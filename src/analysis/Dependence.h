//===- analysis/Dependence.h - Dependence detection (Section 4.3) -*- C++ -*//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loop-carried and loop-independent dependence detection from
/// delta-reaching references (the may-problem of Section 4.3): for each
/// reference r2 at node n and each reaching reference r1, a dependence
/// r1 -> r2 with distance delta exists when some
/// pr <= delta <= IN[n, r1] satisfies f1(i - delta) == f2(i). The
/// dependence kind follows from the def/use roles. Instances closer than
/// the reported distance are dependence-free — exactly the information
/// the controlled loop unrolling strategy of Section 4.3 consumes.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_ANALYSIS_DEPENDENCE_H
#define ARDF_ANALYSIS_DEPENDENCE_H

#include "analysis/LoopDataFlow.h"

#include <iosfwd>
#include <vector>

namespace ardf {

/// Classic dependence kinds [Kuck et al. 81].
enum class DepKind {
  Flow,   ///< def -> use
  Anti,   ///< use -> def
  Output, ///< def -> def
  Input   ///< use -> use (not ordering-relevant; reported for reuse info)
};

const char *depKindName(DepKind K);

/// One detected dependence between two reference occurrences.
struct Dependence {
  /// Source occurrence (executes first).
  unsigned FromId;

  /// Sink occurrence (executes \p Distance iterations later).
  unsigned ToId;

  DepKind Kind;

  /// Minimal iteration distance at which the references may overlap.
  int64_t Distance;

  /// True when Distance >= 1 (carried across iterations).
  bool isLoopCarried() const { return Distance >= 1; }
};

/// Result of dependence analysis for one loop.
struct DependenceInfo {
  std::vector<Dependence> Deps;

  /// True if some dependence with the given distance exists.
  bool hasCarriedDistance(int64_t Distance) const;

  /// All dependences with Distance == 1 (drives the unrolling predictor
  /// of Section 4.3).
  std::vector<Dependence> distanceOne() const;
};

/// Runs delta-reaching references on \p Loop and extracts dependences.
/// Input "dependences" (use -> use) are included only when
/// \p IncludeInput is set.
DependenceInfo computeDependences(const Program &P, const DoLoopStmt &Loop,
                                  bool IncludeInput = false);

/// Extracts dependences from an already-solved reaching-references
/// instance. Overlaps are searched over the instance's iteration space:
/// the enclosing loop's trip count for a with-respect-to session.
DependenceInfo extractDependences(const LoopDataFlow &DF,
                                  bool IncludeInput = false);

/// Prints one dependence per line: "flow C[i+2] -> C[i] distance 2".
void printDependences(std::ostream &OS, const DependenceInfo &Info,
                      const LoopDataFlow &DF);

} // namespace ardf

#endif // ARDF_ANALYSIS_DEPENDENCE_H

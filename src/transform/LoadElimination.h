//===- transform/LoadElimination.h - Redundant loads (4.2.2) ---*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Eliminates delta-redundant loads (Section 4.2.2, Fig. 7) by scalar
/// replacement: when the delta-available-values instance proves that a
/// use re-reads a value generated delta iterations earlier, the value is
/// kept in scalar temporaries forming a source-level register pipeline:
///
///   * def generator  X[f] = rhs      becomes  _tN_0 = rhs; X[f] = _tN_0;
///   * use generator  ... X[g] ...    becomes  _tN_0 = X[g]; ... _tN_0 ...
///   * each reuse at distance d       becomes  a read of _tN_d
///   * end of body                    appends  _tN_d = _tN_{d-1} shifts
///   * the loop preheader             loads    _tN_k = X[f(lower - k)]
///
/// This is the same transformation scalar replacement [Callahan, Carr &
/// Kennedy 90] performs from dependence information; here it is driven
/// by the flow-sensitive framework, so reuse under conditional control
/// flow is found (and unsafe reuse through conditional kills rejected).
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_TRANSFORM_LOADELIMINATION_H
#define ARDF_TRANSFORM_LOADELIMINATION_H

#include "ir/Program.h"

#include <string>
#include <vector>

namespace ardf {

/// Configuration for redundant load elimination.
struct LoadElimOptions {
  /// Largest reuse distance converted into temporaries (pipeline depth
  /// cap; deeper reuse is left in memory).
  int64_t MaxDistance = 8;
};

/// Result of redundant load elimination.
struct LoadElimResult {
  Program Transformed;

  /// Number of use sites rerouted to temporaries.
  unsigned LoadsEliminated = 0;

  /// Number of scalar temporaries introduced.
  unsigned TempsIntroduced = 0;

  /// Human-readable notes, one per rerouted use.
  std::vector<std::string> Notes;
};

/// Applies scalar replacement to every outermost loop that \p P's
/// loop-nesting tree analyzes as written (LoopNest.h); others are kept.
LoadElimResult eliminateRedundantLoads(const Program &P,
                                       const LoadElimOptions &Opts = {});

} // namespace ardf

#endif // ARDF_TRANSFORM_LOADELIMINATION_H

//===- dataflow/CompiledFlow.h - Compiled packed flow programs -*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A CompiledFlowProgram lowers one FrameworkInstance into what the
/// kernel solver needs to sweep it without a single data-dependent
/// branch. It owns only the kernel-specific parts:
///
///   * the working traversal order and the working predecessor lists in
///     CSR form (one flat id array plus per-node offsets),
///   * the scalar solve parameters (meet polarity, source/exit node,
///     encoded increment bound).
///
/// The cell tables are the instance's own, read in place: the preserve
/// constant per (node, tracked) cell in row-major NumNodes x NumTracked
/// layout, and the generating cells as a sparse node-major CSR patch
/// list (column + post-generation preserve constant) -- a statement
/// generates for the handful of classes it references, so a dense
/// generate matrix would be megabytes of identity values streamed
/// through the cache every pass. applyNode collapses into the
/// branch-free dense sweep
///
///   out = min(in, Preserve)
///
/// per non-exit cell, followed by the sparse generate patch
///
///   out[c] = min(max(out[c], finite(0)), GenQ[k])
///
/// at each generating cell, and the exit node is the branch-free
/// increment on the encoding. DistanceValue's unsigned encoding is order
/// isomorphic to the chain (lattice/Distance.h), so these integer
/// sweeps compute exactly the reference fixed point, written straight
/// into the DistanceMatrix SolveResult (see DESIGN.md §8).
///
/// Compile once per instance (LoopAnalysisSession memoizes, and owns
/// both the instance and its program), then solve any number of times.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_DATAFLOW_COMPILEDFLOW_H
#define ARDF_DATAFLOW_COMPILEDFLOW_H

#include "dataflow/Framework.h"
#include "dataflow/VectorOps.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ardf {

/// One FrameworkInstance lowered for the packed kernel (see file
/// comment). Borrows the instance's cell tables, so the instance must
/// outlive the program; read-only once built.
struct CompiledFlowProgram {
  unsigned NumNodes = 0;
  unsigned NumTracked = 0;

  /// Meet polarity: min for must-problems, max for may-problems.
  bool IsMust = true;

  /// First node of the working order (pinned to bottom by the must
  /// initialization pass).
  unsigned SourceNode = 0;

  /// The i := i + 1 node, whose flow function is the packed increment.
  unsigned ExitNode = 0;

  /// Encoded saturation bound of the exit increment
  /// (simd::incrementBound of the instance's trip count).
  uint64_t IncBound = simd::incrementBound(UnknownTripCount);

  /// Working traversal order (forward: RPO; backward: reversed RPO).
  std::vector<unsigned> Order;

  /// Working predecessor lists in CSR layout, indexed by node id:
  /// preds of node n are Preds[PredOffsets[n] .. PredOffsets[n+1]).
  std::vector<unsigned> PredOffsets;
  std::vector<unsigned> Preds;

  /// The instance's row-major NumNodes x NumTracked preserve constants
  /// (preserveAt, min-applied to every non-exit cell).
  std::span<const DistanceValue> Preserve;

  /// The instance's generating cells of node n, sparse and CSR by node
  /// id: columns GenCols[GenOffsets[n] .. GenOffsets[n+1]) with the
  /// matching post-generation preserve constants (preserveAfterGen) in
  /// GenQ.
  std::span<const unsigned> GenOffsets;
  std::span<const unsigned> GenCols;
  std::span<const DistanceValue> GenQ;

  /// Display name of the lowered problem (telemetry span labels).
  std::string ProblemName;

  /// Meet operations one tracked component costs per pass, mirrored
  /// from the instance's orientation (see LoopOrientation) so kernel
  /// solves account operations without touching the instance.
  unsigned MeetEdgesAll = 0;
  unsigned MeetEdgesNoSource = 0;

  /// Cells per matrix side.
  size_t cells() const {
    return static_cast<size_t>(NumNodes) * NumTracked;
  }

  /// Lowers \p FW, which must outlive the program: the kernel reads
  /// its cell tables in place.
  static CompiledFlowProgram compile(const FrameworkInstance &FW);
};

/// Solves \p CF's equation system with the packed kernel under the
/// paper schedule into a fresh SolveResult, bit-identical to the
/// reference solver's, degrading at pass boundaries when \p Budget is
/// breached.
SolveResult solveCompiled(const CompiledFlowProgram &CF,
                          const SolverBudget &Budget = SolverBudget());

} // namespace ardf

#endif // ARDF_DATAFLOW_COMPILEDFLOW_H

//===- dataflow/CompiledFlow.h - Compiled packed flow programs -*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A CompiledFlowProgram lowers one FrameworkInstance into flat arrays
/// the kernel solver can sweep without a single data-dependent branch:
///
///   * the preserve constant per (node, tracked) cell in row-major
///     NumNodes x NumTracked layout,
///   * the generating cells as a sparse per-node patch list (CSR:
///     column + post-generation preserve constant) -- a statement
///     generates for the handful of classes it references, so a dense
///     generate matrix would be megabytes of identity values streamed
///     through the cache every pass,
///   * the working traversal order and the working predecessor lists in
///     CSR form (one flat id array plus per-node offsets),
///   * the scalar solve parameters (meet polarity, source/exit node,
///     encoded increment bound).
///
/// The instance already keeps its preserve table node-major and its
/// generating cells as node-major CSR, so lowering copies those tables
/// as they are. applyNode collapses into the branch-free dense sweep
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
/// Compile once per instance (LoopAnalysisSession memoizes), then solve
/// any number of times through a SolveWorkspace with zero allocation.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_DATAFLOW_COMPILEDFLOW_H
#define ARDF_DATAFLOW_COMPILEDFLOW_H

#include "dataflow/Framework.h"
#include "dataflow/VectorOps.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ardf {

/// One FrameworkInstance lowered to flat tables (see file
/// comment). Plain data: cheap to move, trivially shareable read-only
/// across threads once built.
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

  /// Row-major NumNodes x NumTracked preserve constants (preserveAt,
  /// min-applied to every non-exit cell).
  std::vector<DistanceValue> Preserve;

  /// Generating cells of node n, sparse and CSR by node id: columns
  /// GenCols[GenOffsets[n] .. GenOffsets[n+1]) with the matching
  /// post-generation preserve constants (preserveAfterGen) in GenQ.
  std::vector<unsigned> GenOffsets;
  std::vector<unsigned> GenCols;
  std::vector<DistanceValue> GenQ;

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

  /// Lowers \p FW. The program captures everything the solver needs; it
  /// does not alias FW and may outlive it.
  static CompiledFlowProgram compile(const FrameworkInstance &FW);
};

/// Solves \p CF's equation system with the packed kernel (same pass
/// schedule and strategies as solveDataFlow) into a fresh SolveResult,
/// bit-identical to the reference solver's.
SolveResult solveCompiled(const CompiledFlowProgram &CF,
                          const SolverOptions &Opts = SolverOptions());

/// Workspace form: recycles the result matrices and the one-row
/// scratch buffer, so warm repeated solves are allocation-free.
const SolveResult &solveCompiled(const CompiledFlowProgram &CF,
                                 SolveWorkspace &WS,
                                 const SolverOptions &Opts = SolverOptions());

} // namespace ardf

#endif // ARDF_DATAFLOW_COMPILEDFLOW_H

//===- dataflow/KernelSolver.cpp - Branch-free packed pass loop ----------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
// The packed kernel engine: runs the paper's pass schedule, and only
// that, over a CompiledFlowProgram. Whole-row meets and flow
// applications are tight min/max loops on DistanceValue's unsigned
// encoding with no data-dependent branches, and the generate side is a
// sparse per-node patch. The kernel sweeps the DistanceMatrix
// SolveResult directly, so every client of solveDataFlow works
// unchanged. Results are bit-identical to the reference solver (the row
// operations are the DistanceValue operators, whose encoding is order
// isomorphic to the chain; see lattice/Distance.h), which the
// kernel-vs-reference oracle tests assert. Iterate-to-fixpoint, history
// and provenance are verification modes the Reference engine serves
// (SolverOptions::usesPackedKernel).
//
// The engine exists to win the memory-bandwidth game the reference
// solver loses at large shapes, so the pass loop is frugal with bytes:
// only the final pass writes the IN matrix (nothing reads the IN rows
// of earlier passes again), so until then the matrix's first row serves
// as the one-row scratch.
//
//===----------------------------------------------------------------------===//

#include "dataflow/CompiledFlow.h"
#include "dataflow/SolverTelemetry.h"
#include "dataflow/VectorOps.h"

#include <algorithm>
#include <cassert>

using namespace ardf;

namespace {

/// Overwrites both result matrices with the conservative lattice value
/// (must: NoInstance, may: AllInstances) and tags \p Result degraded.
void fillDegraded(SolveResult &Result, const CompiledFlowProgram &CF,
                  BreachReason Reason) {
  DistanceValue Fill = CF.IsMust ? DistanceValue::noInstance()
                                 : DistanceValue::allInstances();
  std::fill(Result.In.data(), Result.In.data() + CF.cells(), Fill);
  std::fill(Result.Out.data(), Result.Out.data() + CF.cells(), Fill);
  Result.Converged = true;
  Result.Outcome = SolveOutcome::Degraded;
  Result.Breach = Reason;
}

class KernelSolver {
public:
  KernelSolver(const CompiledFlowProgram &CF, SolveResult &Result)
      : CF(CF), Result(Result), In(Result.In.data()),
        Out(Result.Out.data()), Scratch(In), T(CF.NumTracked) {}

  void run(const detail::BudgetGuard &Guard) {
    if (CF.IsMust)
      initMust();
    else
      std::fill(Out, Out + CF.cells(), DistanceValue::allInstances());
    if (degradeIfBreached(Guard.check(Result.NodeVisits)))
      return;
    for (unsigned P = 0; P != 2; ++P) {
      pass(/*Final=*/P == 1);
      ++Result.Passes;
      if (degradeIfBreached(Guard.check(Result.NodeVisits)))
        return;
    }
  }

private:
  /// Budget breach: skip the remaining passes and expose the
  /// conservative fill in the result matrices. Checked at the same pass
  /// boundaries as the reference solver, so under identical
  /// deterministic breaches (visits, failpoints) both engines degrade at
  /// the same point to the same bits.
  bool degradeIfBreached(BreachReason Reason) {
    if (Reason == BreachReason::None)
      return false;
    fillDegraded(Result, CF, Reason);
    return true;
  }

  /// The must-problem initialization pass: optimistic AllInstances at
  /// generating cells along the meet-over-all-paths, with the working
  /// source pinned to bottom. Its IN rows are never read again.
  void initMust() {
    for (unsigned Node : CF.Order) {
      DistanceValue *OutRow = Out + static_cast<size_t>(Node) * T;
      if (Node == CF.SourceNode)
        std::fill(Scratch, Scratch + T, DistanceValue::noInstance());
      else
        meetRow(Node, Scratch);
      std::copy(Scratch, Scratch + T, OutRow);
      for (unsigned K = CF.GenOffsets[Node]; K != CF.GenOffsets[Node + 1];
           ++K)
        OutRow[CF.GenCols[K]] = DistanceValue::allInstances();
    }
    Result.NodeVisits += static_cast<unsigned>(CF.Order.size());
  }

  /// Whole-row meet over the working predecessors into \p Dst.
  void meetRow(unsigned Node, DistanceValue *Dst) {
    const unsigned *P = CF.Preds.data() + CF.PredOffsets[Node];
    unsigned K = CF.PredOffsets[Node + 1] - CF.PredOffsets[Node];
    assert(K != 0 && "flow graph node without predecessors");
    const DistanceValue *First = Out + static_cast<size_t>(P[0]) * T;
    std::copy(First, First + T, Dst);
    for (unsigned I = 1; I != K; ++I) {
      const DistanceValue *S = Out + static_cast<size_t>(P[I]) * T;
      if (CF.IsMust)
        simd::minInto(Dst, S, T);
      else
        simd::maxInto(Dst, S, T);
    }
  }

  /// Whole-row flow application into \p OutRow: the dense preserve
  /// sweep plus the sparse generate patch for body nodes, the
  /// saturating increment at the exit node. Exactly applyNode's
  /// case analysis: min(in, p), then max with finite(0) and min with
  /// the post-generation constant at generating cells only.
  void applyRow(unsigned Node, const DistanceValue *InRow,
                DistanceValue *OutRow) {
    if (Node == CF.ExitNode) {
      simd::increment(OutRow, InRow, T, CF.IncBound);
      return;
    }
    simd::minRows(OutRow, InRow,
                  CF.Preserve.data() + static_cast<size_t>(Node) * T, T);
    const DistanceValue Zero = DistanceValue::finite(0);
    for (unsigned K = CF.GenOffsets[Node]; K != CF.GenOffsets[Node + 1];
         ++K) {
      unsigned C = CF.GenCols[K];
      OutRow[C] =
          DistanceValue::min(DistanceValue::max(OutRow[C], Zero), CF.GenQ[K]);
    }
  }

  /// One iteration pass: no change tracking, maximal vectorizability.
  /// Only the final pass writes the IN matrix: earlier meets land in the
  /// scratch row, or are the single predecessor's OUT row itself,
  /// untouched.
  void pass(bool Final) {
    for (unsigned Node : CF.Order) {
      const DistanceValue *InRow;
      unsigned K = CF.PredOffsets[Node + 1] - CF.PredOffsets[Node];
      if (Final) {
        DistanceValue *Dst = In + static_cast<size_t>(Node) * T;
        meetRow(Node, Dst);
        InRow = Dst;
      } else if (K == 1) {
        // A one-predecessor meet is that row; skip the copy. Exact
        // self-aliasing in applyRow is safe: every row op loads its
        // lane before storing it.
        InRow = Out + static_cast<size_t>(CF.Preds[CF.PredOffsets[Node]]) * T;
      } else {
        meetRow(Node, Scratch);
        InRow = Scratch;
      }
      applyRow(Node, InRow, Out + static_cast<size_t>(Node) * T);
    }
    Result.NodeVisits += static_cast<unsigned>(CF.Order.size());
  }

  const CompiledFlowProgram &CF;
  SolveResult &Result;
  DistanceValue *In;
  DistanceValue *Out;
  /// The IN matrix's first row, free until the final pass writes it.
  DistanceValue *Scratch;
  const unsigned T;
};

} // namespace

SolveResult ardf::solveCompiled(const CompiledFlowProgram &CF,
                                const SolverBudget &Budget) {
  SolveResult Result = detail::freshResult(CF.NumNodes, CF.NumTracked);
  // Per-solve span and counter telemetry (inert when no context is
  // installed).
  telem::Span S("solve", "solver", CF.ProblemName.c_str());
  telem::LatencyTimer LT(telem::Histo::SolveNs);
  detail::BudgetGuard Guard(Budget, CF.IsMust, CF.NumNodes, CF.NumTracked);
  if (BreachReason Cells = Guard.checkCells();
      Cells != BreachReason::None)
    fillDegraded(Result, CF, Cells);
  else
    KernelSolver(CF, Result).run(Guard);
  detail::finishSolveCounts(Result, CF.IsMust, CF.NumNodes, CF.NumTracked,
                            CF.MeetEdgesAll, CF.MeetEdgesNoSource);
  detail::recordSolveTelemetry(Result, CF.IsMust, CF.NumNodes,
                               /*PackedEngine=*/true);
  if (S.active()) {
    S.arg("nodes", CF.NumNodes);
    S.arg("tracked", CF.NumTracked);
    S.arg("node_visits", Result.NodeVisits);
    S.arg("passes", Result.Passes);
  }
  return Result;
}

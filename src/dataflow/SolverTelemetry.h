//===- dataflow/SolverTelemetry.h - Shared solve accounting ----*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
// Internal helpers shared by the Reference solver (Framework.cpp) and
// the packed kernel (KernelSolver.cpp): shapes the fresh result both
// engines solve into, fills the operation-count fields of a SolveResult
// from the precomputed per-pass meet-edge totals (O(1), always on, so
// the two engines stay bit-identical including counters) and flushes
// one solve's telemetry to the current context, if any.
//
//===----------------------------------------------------------------------===//

#ifndef ARDF_DATAFLOW_SOLVERTELEMETRY_H
#define ARDF_DATAFLOW_SOLVERTELEMETRY_H

#include "dataflow/Framework.h"
#include "telemetry/Telemetry.h"

namespace ardf {
namespace detail {

/// A fresh NumNodes x NumTracked result: both matrices filled with
/// NoInstance, every count zero, outcome Ok.
inline SolveResult freshResult(unsigned NumNodes, unsigned NumTracked) {
  SolveResult Result;
  Result.In.reset(NumNodes, NumTracked);
  Result.Out.reset(NumNodes, NumTracked);
  return Result;
}

/// Derives MeetOps/ApplyOps for a finished solve. Both engines evaluate
/// the meet at every node of every iteration pass plus (must problems)
/// every non-source node of the initialization pass, and apply the flow
/// function at every (node, tracked) cell of every iteration pass.
inline void finishSolveCounts(SolveResult &Result, bool IsMust,
                              unsigned NumNodes, unsigned NumTracked,
                              unsigned MeetEdgesAll,
                              unsigned MeetEdgesNoSource) {
  uint64_t T = NumTracked;
  Result.MeetOps =
      T * (static_cast<uint64_t>(MeetEdgesAll) * Result.Passes +
           (IsMust ? MeetEdgesNoSource : 0));
  Result.ApplyOps =
      static_cast<uint64_t>(NumNodes) * T * Result.Passes;
  // Running out of passes without stabilizing is a (benign) budget
  // exhaustion: the last iterate is still conservative for these
  // descending chains, but clients deserve the degraded tag. Breach
  // reasons from the BudgetGuard take precedence.
  if (!Result.Converged && Result.Outcome == SolveOutcome::Ok) {
    Result.Outcome = SolveOutcome::Degraded;
    Result.Breach = BreachReason::NonConvergence;
  }
}

/// Flushes one solve into the current telemetry context: run/visit/op
/// counters plus the paper's cost-bound pair (3N for must, 2N for may).
inline void recordSolveTelemetry(const SolveResult &Result, bool IsMust,
                                 unsigned NumNodes, bool PackedEngine) {
  telem::Telemetry *T = telem::Telemetry::current();
  if (!T)
    return;
  T->add(PackedEngine ? telem::Counter::SolverRunsPacked
                      : telem::Counter::SolverRunsReference);
  T->add(telem::Counter::SolverNodeVisits, Result.NodeVisits);
  T->add(telem::Counter::SolverPasses, Result.Passes);
  T->add(telem::Counter::SolverMeetOps, Result.MeetOps);
  T->add(telem::Counter::SolverApplyOps, Result.ApplyOps);
  if (Result.Outcome == SolveOutcome::Ok) {
    // The 3N/2N cost-bound pairs cover clean solves only: a degraded
    // solve deliberately did less (or, unconverged, more) work than the
    // schedule, and would make the bound ledgers meaningless.
    if (IsMust) {
      T->add(telem::Counter::MustNodeVisits, Result.NodeVisits);
      T->add(telem::Counter::MustVisitBound, 3u * NumNodes);
    } else {
      T->add(telem::Counter::MayNodeVisits, Result.NodeVisits);
      T->add(telem::Counter::MayVisitBound, 2u * NumNodes);
    }
  } else {
    T->add(telem::Counter::DegradedSolves);
    if (Result.Breach == BreachReason::NodeVisits ||
        Result.Breach == BreachReason::Deadline ||
        Result.Breach == BreachReason::MatrixCells)
      T->add(telem::Counter::BudgetBreaches);
  }
}

} // namespace detail
} // namespace ardf

#endif // ARDF_DATAFLOW_SOLVERTELEMETRY_H

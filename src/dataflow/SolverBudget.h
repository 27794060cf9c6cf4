//===- dataflow/SolverBudget.h - Per-solve resource ceilings ---*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Resource governance for one data flow solve. A SolverBudget puts
/// ceilings on node visits (either absolute or as a slack factor over
/// the paper's 3N/2N schedule), wall-clock time, and matrix cells. Both
/// engines check the budget only at pass boundaries -- the hot inner
/// loops stay untouched -- so enforcement granularity is one full pass.
///
/// On breach the solve does not fail: it returns a degraded-but-sound
/// result, every IN/OUT cell filled with the problem's conservative
/// lattice value (NoInstance, the must-problem bottom: "no instance
/// provably available"; AllInstances, the may-problem top: "any instance
/// may reach"). Clients that consume such a solution can only miss
/// optimizations, never apply an unsafe one. The outcome and the breach
/// reason ride on SolveResult::Outcome / SolveResult::Breach.
///
/// A default-constructed budget (all fields 0) disables every check;
/// the pass-boundary guard then costs two integer compares, one relaxed
/// atomic load (the failpoint fast path) and one thread-local load (the
/// running request's deadline, support/Deadline.h) per pass. Armed or
/// not, the guard lives on the stack: the alloc-counting suite holds a
/// budgeted solve, breached or not, to exactly the heap blocks of an
/// unbudgeted one.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_DATAFLOW_SOLVERBUDGET_H
#define ARDF_DATAFLOW_SOLVERBUDGET_H

#include "support/Deadline.h"
#include "support/FailPoint.h"
#include "telemetry/Telemetry.h"

#include <cstdint>

namespace ardf {

/// How a solve ended. Degraded means the result is the documented
/// conservative fill (or, for NonConvergence, the last iterate) -- sound
/// but imprecise. Failed never appears on a SolveResult (a solve that
/// cannot even produce a conservative answer throws instead); it is the
/// driver-level status of a loop whose analysis threw.
enum class SolveOutcome : uint8_t { Ok, Degraded, Failed };

/// Why a solve degraded (SolveOutcome::Degraded) or a loop failed.
enum class BreachReason : uint8_t {
  None,
  NodeVisits,     ///< Visit ceiling (slack * schedule, or absolute) hit.
  Deadline,       ///< A solve or request deadline passed at a boundary.
  MatrixCells,    ///< nodes * tracked exceeds the matrix-cell cap.
  NonConvergence, ///< IterateToFixpoint exhausted MaxPasses.
  FaultInjected   ///< A solver.pass failpoint forced a breach.
};

/// Display name of \p R, e.g. "node-visits" (diagnostics, traces).
const char *breachReasonName(BreachReason R);

/// Per-solve resource ceilings. Every field 0 (or 0.0) disables that
/// check; a default-constructed budget enforces nothing.
struct SolverBudget {
  /// Visit ceiling as a multiple of the paper schedule (3N for must,
  /// 2N for may): the solve degrades once visits exceed
  /// VisitSlack * schedule. 1.0 admits exactly the paper schedule;
  /// values below 1.0 cut solves short; values above admit that much
  /// fixpoint iteration. 0 disables.
  double VisitSlack = 0.0;

  /// Absolute node-visit ceiling; combined with VisitSlack the tighter
  /// bound wins. 0 disables.
  uint64_t MaxNodeVisits = 0;

  /// Wall-clock deadline for one solve, in nanoseconds, checked at pass
  /// boundaries (a pass always completes). 0 disables.
  uint64_t DeadlineNs = 0;

  /// Ceiling on nodes * tracked cells. A breach is detected before any
  /// pass runs: the solve skips all solving and returns the
  /// conservative fill immediately. 0 disables.
  uint64_t MaxMatrixCells = 0;

  bool enabled() const {
    return VisitSlack > 0.0 || MaxNodeVisits != 0 || DeadlineNs != 0 ||
           MaxMatrixCells != 0;
  }

  friend bool operator==(const SolverBudget &A, const SolverBudget &B) {
    return A.VisitSlack == B.VisitSlack &&
           A.MaxNodeVisits == B.MaxNodeVisits &&
           A.DeadlineNs == B.DeadlineNs &&
           A.MaxMatrixCells == B.MaxMatrixCells;
  }
  friend bool operator!=(const SolverBudget &A, const SolverBudget &B) {
    return !(A == B);
  }
};

namespace detail {

/// Pass-boundary budget enforcement shared by both engines. Constructed
/// once per solve; resolves the slack factor against the problem's
/// schedule and reads the start clock only when a deadline is set.
class BudgetGuard {
public:
  BudgetGuard(const SolverBudget &B, bool IsMust, unsigned NumNodes,
              unsigned NumTracked)
      : CellCap(B.MaxMatrixCells),
        Cells(static_cast<uint64_t>(NumNodes) * NumTracked),
        DeadlineNs(B.DeadlineNs) {
    if (B.VisitSlack > 0.0) {
      double Sched =
          static_cast<double>((IsMust ? 3u : 2u)) * NumNodes * B.VisitSlack;
      if (Sched >= 18446744073709551616.0) // 2^64: not convertible
        VisitCap = UINT64_MAX;
      else
        VisitCap = Sched < 1.0 ? 1 : static_cast<uint64_t>(Sched);
    }
    if (B.MaxNodeVisits != 0 &&
        (VisitCap == 0 || B.MaxNodeVisits < VisitCap))
      VisitCap = B.MaxNodeVisits;
    if (DeadlineNs != 0)
      StartNs = telem::wallNowNs();
  }

  /// Pre-solve admission check: the matrix-cell cap.
  BreachReason checkCells() const {
    if (CellCap != 0 && Cells > CellCap)
      return BreachReason::MatrixCells;
    return BreachReason::None;
  }

  /// Pass-boundary check. Evaluates the solver.pass failpoint first, so
  /// a Breach-armed failpoint forces degradation deterministically even
  /// with no budget set.
  BreachReason check(uint64_t NodeVisits) const {
    if (failpoint::evaluate("solver.pass") == failpoint::Fired::Breach)
      return BreachReason::FaultInjected;
    if (VisitCap != 0 && NodeVisits > VisitCap)
      return BreachReason::NodeVisits;
    if ((DeadlineNs != 0 && telem::wallNowNs() - StartNs > DeadlineNs) ||
        deadline::passed())
      return BreachReason::Deadline;
    return BreachReason::None;
  }

private:
  uint64_t VisitCap = 0;
  uint64_t CellCap = 0;
  uint64_t Cells = 0;
  uint64_t DeadlineNs = 0;
  uint64_t StartNs = 0;
};

} // namespace detail
} // namespace ardf

#endif // ARDF_DATAFLOW_SOLVERBUDGET_H

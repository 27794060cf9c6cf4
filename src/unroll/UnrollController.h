//===- unroll/UnrollController.h - Controlled unrolling (4.3) --*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The controlled loop unrolling strategy of Section 4.3: unrolling is
/// performed incrementally; at each step the critical path length
/// l_unroll of the doubled body is predicted from distance-1 dependence
/// information (cheaply available from the framework), and the step is
/// taken only when l_unroll stays below the threshold tau, with
/// l <= tau < 2*l. The process stops when no usable parallelism is
/// created or the factor cap is reached.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_UNROLL_UNROLLCONTROLLER_H
#define ARDF_UNROLL_UNROLLCONTROLLER_H

#include "unroll/StmtDepGraph.h"

#include <vector>

namespace ardf {

/// One evaluated unrolling step.
struct UnrollStep {
  /// Candidate factor evaluated (current factor doubled).
  unsigned Factor;

  /// Critical path predicted from distance-1 dependences only.
  unsigned PredictedCriticalPath;

  /// Exact critical path with all dependence distances.
  unsigned ExactCriticalPath;

  /// Estimated register demand of the candidate body (Section 4.3's
  /// companion prediction); 0 when pressure tracking is disabled.
  unsigned RegisterPressure;

  /// Statements per critical path statement in the unrolled body.
  double Parallelism;

  /// Whether the controller took this step.
  bool Performed;
};

/// Decision record of the controller.
struct UnrollPlan {
  unsigned ChosenFactor = 1;
  std::vector<UnrollStep> Trace;

  /// Critical path of the original body (l in the paper).
  unsigned BaseCriticalPath = 1;
};

/// Options for controlled unrolling.
struct UnrollControlOptions {
  /// Threshold ratio tau / l in [1, 2): a doubling step is taken when
  /// the predicted critical path of the doubled body stays strictly
  /// below TauRatio times the current one.
  double TauRatio = 1.5;

  /// Upper bound on the unroll factor.
  unsigned MaxFactor = 16;

  /// Register budget: a step whose estimated register demand exceeds
  /// this is refused (0 = unlimited, pressure not computed).
  unsigned MaxRegisters = 0;
};

/// Runs the controlled unrolling policy for \p Loop. Returns a plan
/// with ChosenFactor == 1 when buildStmtDepGraph rejects the loop or the
/// body has no statements.
UnrollPlan controlUnrolling(const Program &P, const DoLoopStmt &Loop,
                            const UnrollControlOptions &Opts = {});

} // namespace ardf

#endif // ARDF_UNROLL_UNROLLCONTROLLER_H

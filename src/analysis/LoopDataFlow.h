//===- analysis/LoopDataFlow.h - Analysis facade ---------------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LoopDataFlow bundles graph construction, framework instantiation, and
/// the solve for one loop and one problem — the one-call entry point used
/// by the optimization clients and the examples:
///
/// \code
///   Program P = parseOrDie(Source);
///   LoopDataFlow DF(P, *P.getFirstLoop(), ProblemSpec::availableValues());
///   for (const ReusePair &R : DF.reusePairs(RefSelector::Uses)) ...
/// \endcode
///
/// It is a thin view over a LoopAnalysisSession: the constructors above
/// own a private session; the session constructor attaches to a shared
/// one, so a client that runs several problems on the same loop reuses
/// the graph and reference universe instead of rebuilding them.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_ANALYSIS_LOOPDATAFLOW_H
#define ARDF_ANALYSIS_LOOPDATAFLOW_H

#include "analysis/LoopAnalysisSession.h"

#include <memory>
#include <vector>

namespace ardf {

/// Facade exposing the flow graph, framework instance, and solution of
/// one problem on one loop.
class LoopDataFlow {
public:
  LoopDataFlow(const Program &P, const DoLoopStmt &Loop, ProblemSpec Spec,
               SolverOptions Opts = SolverOptions());

  /// Section 3.6 variant: analyzes the body of nest loop \p Loop with
  /// respect to the induction variable of its enclosing loop \p Level
  /// (the local induction variable becomes a symbolic constant; see
  /// LoopAnalysisSession's NestLoop constructor).
  LoopDataFlow(const Program &P, const NestLoop &Loop, const NestLoop &Level,
               ProblemSpec Spec, SolverOptions Opts = SolverOptions());

  /// Batched variant: draws (and memoizes) the problem's instance and
  /// solution in \p Session instead of rebuilding the loop's tables.
  /// \p Session must outlive this object.
  LoopDataFlow(LoopAnalysisSession &Session, ProblemSpec Spec,
               SolverOptions Opts = SolverOptions());

  const LoopFlowGraph &graph() const { return Session->graph(); }
  const FrameworkInstance &framework() const { return *FW; }
  const SolveResult &result() const { return *Result; }
  const ReferenceUniverse &universe() const { return Session->universe(); }

  /// The underlying session (shared or privately owned); further
  /// problems solved through it reuse this loop's tables.
  LoopAnalysisSession &session() const { return *Session; }

  /// The data flow value for tracked occurrence \p TrackedIdx at node
  /// \p Node (IN tuple; node-exit information for backward problems).
  DistanceValue valueAt(unsigned Node, unsigned TrackedIdx) const {
    return Result->In[Node][TrackedIdx];
  }

  /// Enumerates reuse pairs: for every occurrence matching \p SinkSel
  /// and every tracked reference, reports a pair when a constant
  /// iteration distance exists and lies within the solved range
  /// [pr(d, n), IN[n, d]]. The sink's own generation site is skipped.
  std::vector<ReusePair> reusePairs(RefSelector SinkSel) const {
    return collectReusePairs(*FW, *Result, SinkSel);
  }

private:
  std::unique_ptr<LoopAnalysisSession> Owned;
  LoopAnalysisSession *Session;
  const FrameworkInstance *FW;
  const SolveResult *Result;
};

} // namespace ardf

#endif // ARDF_ANALYSIS_LOOPDATAFLOW_H

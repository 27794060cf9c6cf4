//===- analysis/LoopAnalysisSession.cpp - Cached per-loop analysis -------===//

#include "analysis/LoopAnalysisSession.h"

#include "ir/PrettyPrinter.h"
#include "support/FailPoint.h"
#include "telemetry/Telemetry.h"

using namespace ardf;

namespace {

/// Problems are cached by parameters, not by display name: two specs
/// with equal (mode, direction, G, K, grouping) share one instance.
bool sameProblem(const ProblemSpec &A, const ProblemSpec &B) {
  return A.Mode == B.Mode && A.Direction == B.Direction && A.Gen == B.Gen &&
         A.Kill == B.Kill && A.GroupByAccess == B.GroupByAccess;
}

} // namespace

LoopAnalysisSession::LoopAnalysisSession(const Program &P,
                                         const DoLoopStmt &Loop,
                                         const std::string &WithRespectTo,
                                         int64_t EnclosingTripCount)
    : Prog(&P), TheLoop(&Loop),
      Graph(std::make_unique<LoopFlowGraph>(Loop)),
      Universe(std::make_unique<ReferenceUniverse>(*Graph, P,
                                                   WithRespectTo)),
      TripCount(WithRespectTo.empty() ||
                        WithRespectTo == Graph->getIndVar()
                    ? Graph->getTripCount()
                    : EnclosingTripCount) {
  telem::count(telem::Counter::SessionsBuilt);
}

const LoopOrientation &LoopAnalysisSession::orientation(FlowDirection Dir) {
  std::unique_ptr<LoopOrientation> &Slot =
      Dir == FlowDirection::Backward ? Backward : Forward;
  if (!Slot)
    Slot = std::make_unique<LoopOrientation>(
        LoopOrientation::compute(*Graph, Dir));
  return *Slot;
}

LoopAnalysisSession::Instance &
LoopAnalysisSession::instanceRecord(const ProblemSpec &Spec) {
  for (const std::unique_ptr<Instance> &I : Instances)
    if (sameProblem(I->Spec, Spec)) {
      ++Stats.InstanceHits;
      telem::count(telem::Counter::SessionInstanceHits);
      return *I;
    }
  ++Stats.InstanceMisses;
  telem::count(telem::Counter::SessionInstanceMisses);
  Instances.push_back(std::make_unique<Instance>(Instance{
      Spec,
      FrameworkInstance(*Universe, orientation(Spec.Direction), Spec,
                        TripCount, &Cache),
      nullptr}));
  return *Instances.back();
}

const FrameworkInstance &
LoopAnalysisSession::instance(const ProblemSpec &Spec) {
  return instanceRecord(Spec).FW;
}

const CompiledFlowProgram &
LoopAnalysisSession::compiledFlow(const ProblemSpec &Spec) {
  Instance &I = instanceRecord(Spec);
  if (I.Compiled) {
    ++Stats.CompiledHits;
    telem::count(telem::Counter::SessionCompiledHits);
    return *I.Compiled;
  }
  ++Stats.CompiledMisses;
  telem::count(telem::Counter::SessionCompiledMisses);
  failpoint::evaluate("session.lower");
  I.Compiled = std::make_unique<CompiledFlowProgram>(
      CompiledFlowProgram::compile(I.FW));
  return *I.Compiled;
}

const SolveResult &LoopAnalysisSession::solve(const ProblemSpec &Spec,
                                              const SolverOptions &Opts) {
  for (const std::unique_ptr<Solution> &S : Solutions)
    if (sameProblem(S->Spec, Spec) && S->Opts == Opts) {
      ++Stats.SolutionHits;
      telem::count(telem::Counter::SessionSolutionHits);
      return S->Result;
    }
  ++Stats.SolutionMisses;
  telem::count(telem::Counter::SessionSolutionMisses);
  const FrameworkInstance &FW = instance(Spec);
  SolveResult Result = Opts.usesPackedKernel()
                           ? solveCompiled(compiledFlow(Spec), Opts.Budget)
                           : solveDataFlow(FW, Opts);
  Solutions.push_back(std::make_unique<Solution>(
      Solution{Spec, Opts, std::move(Result)}));
  return Solutions.back()->Result;
}

std::vector<ReusePair>
LoopAnalysisSession::reusePairs(const ProblemSpec &Spec,
                                RefSelector SinkSel,
                                const SolverOptions &Opts) {
  return collectReusePairs(instance(Spec), solve(Spec, Opts), SinkSel);
}

const std::string &LoopAnalysisSession::occurrenceText(unsigned OccId) {
  if (OccurrenceTexts.empty())
    OccurrenceTexts.resize(Universe->size());
  std::string &Text = OccurrenceTexts[OccId];
  if (Text.empty())
    appendExpr(Text, *Universe->occurrence(OccId).Ref);
  return Text;
}

std::vector<ReusePair> ardf::collectReusePairs(const FrameworkInstance &FW,
                                               const SolveResult &Result,
                                               RefSelector SinkSel) {
  std::vector<ReusePair> Pairs;
  unsigned NumTracked = FW.getNumTracked();
  if (NumTracked == 0)
    return Pairs;
  const ReferenceUniverse &U = FW.getUniverse();
  const bool Backward = FW.getSpec().isBackward();
  Pairs.reserve(U.size());

  // Per tuple element: its representative and its class's slot among
  // the array's classes. Per sink: the reuse distance from each tracked
  // class of the sink's array, -1 when absent or negative (below every
  // pr), so the element loop reads one table entry.
  std::vector<unsigned> SourceId(NumTracked);
  std::vector<unsigned> SlotOf(NumTracked);
  for (unsigned Idx = 0; Idx != NumTracked; ++Idx) {
    SourceId[Idx] = FW.getTracked(Idx).Id;
    SlotOf[Idx] = U.classSlot(FW.trackedClass(Idx));
  }
  std::vector<int64_t> DistOfSlot;

  for (const RefOccurrence &Sink : U.occurrences()) {
    if (!selects(SinkSel, Sink) || !Sink.isTrackable())
      continue;
    unsigned Array = U.arrayId(Sink.Id);
    unsigned SinkClass = U.accessClass(Sink.Id);
    DistOfSlot.resize(U.numArrayClasses(Array));
    for (unsigned SourceClass : FW.trackedClassesOfArray(Array)) {
      // Forward problems: the source executed delta iterations earlier,
      // Source.subscript(i - delta) == Sink.subscript(i). Backward
      // problems look into the future: Source.subscript(i + delta) ==
      // Sink.subscript(i), which is the same equation with the roles
      // swapped.
      std::optional<int64_t> D = Backward
                                     ? FW.reuseDistance(SinkClass, SourceClass)
                                     : FW.reuseDistance(SourceClass, SinkClass);
      DistOfSlot[U.classSlot(SourceClass)] = D && *D >= 0 ? *D : -1;
    }
    DistanceMatrix::ConstRow InRow = Result.In[Sink.Node];
    for (unsigned Idx : FW.trackedOfArray(Array)) {
      int64_t D = DistOfSlot[SlotOf[Idx]];
      if (D < FW.pr(Idx, Sink.Node) || SourceId[Idx] == Sink.Id)
        continue;
      if (!InRow[Idx].covers(D))
        continue;
      Pairs.push_back(ReusePair{SourceId[Idx], Sink.Id, D});
    }
  }
  return Pairs;
}

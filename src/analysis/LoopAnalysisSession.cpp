//===- analysis/LoopAnalysisSession.cpp - Cached per-loop analysis -------===//

#include "analysis/LoopAnalysisSession.h"

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
      nullptr, nullptr}));
  return *Instances.back();
}

const FrameworkInstance &
LoopAnalysisSession::instance(const ProblemSpec &Spec) {
  return instanceRecord(Spec).FW;
}

const CompiledFlowProgram &
LoopAnalysisSession::compiledFor(Instance &I) {
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

const CompiledFlowProgram &
LoopAnalysisSession::compiledFlow(const ProblemSpec &Spec) {
  return compiledFor(instanceRecord(Spec));
}

const FlowSummary &
LoopAnalysisSession::flowSummary(const ProblemSpec &Spec) {
  Instance &I = instanceRecord(Spec);
  if (I.Summary) {
    ++Stats.SummaryHits;
    telem::count(telem::Counter::SummaryCacheHits);
    return *I.Summary;
  }
  ++Stats.SummaryMisses;
  I.Summary = std::make_unique<FlowSummary>(FlowSummary::lower(compiledFor(I)));
  return *I.Summary;
}

const LoopAnalysisSession::Solution *
LoopAnalysisSession::lookupSolution(const ProblemSpec &Spec,
                                    const SolverOptions &Opts) const {
  for (const std::unique_ptr<Solution> &S : Solutions)
    if (sameProblem(S->Spec, Spec) && S->Opts == Opts)
      return S.get();
  return nullptr;
}

const SolveResult &LoopAnalysisSession::solve(const ProblemSpec &Spec,
                                              const SolverOptions &Opts) {
  if (const Solution *S = lookupSolution(Spec, Opts)) {
    ++Stats.SolutionHits;
    telem::count(telem::Counter::SessionSolutionHits);
    return S->Result;
  }
  ++Stats.SolutionMisses;
  telem::count(telem::Counter::SessionSolutionMisses);
  const FrameworkInstance &FW = instance(Spec);
  SolveResult Result;
  if (Opts.Eng == SolverOptions::Engine::Summary && summaryEligible(Opts)) {
    // The memoized summary serves any budget (replayed per
    // application); an invalid one falls through to the kernel.
    const FlowSummary &S = flowSummary(Spec);
    Result = S.Valid ? applySummary(S, Opts)
                     : solveCompiled(compiledFlow(Spec), Opts);
  } else if (Opts.usesPackedKernel() && !Opts.RecordProvenance) {
    Result = solveCompiled(compiledFlow(Spec), Opts);
  } else {
    // Reference path; RecordProvenance lands here for every engine
    // (solveDataFlow forces the scalar solver under that flag).
    Result = solveDataFlow(FW, Opts);
  }
  Solutions.push_back(std::make_unique<Solution>(
      Solution{Spec, Opts, std::move(Result)}));
  return Solutions.back()->Result;
}

const CompiledFlowGroup &LoopAnalysisSession::compiledGroup(
    const std::vector<const CompiledFlowProgram *> &Parts) {
  for (const std::unique_ptr<Group> &G : Groups)
    if (G->Parts == Parts) {
      ++Stats.GroupHits;
      telem::count(telem::Counter::SessionGroupHits);
      return G->Fused;
    }
  ++Stats.GroupMisses;
  telem::count(telem::Counter::SessionGroupMisses);
  Groups.push_back(std::make_unique<Group>(
      Group{Parts, CompiledFlowGroup::compile(Parts)}));
  return Groups.back()->Fused;
}

const CompiledFlowGroup &LoopAnalysisSession::compiledFlowGroup(
    const std::vector<ProblemSpec> &Specs) {
  std::vector<const CompiledFlowProgram *> Parts;
  Parts.reserve(Specs.size());
  for (const ProblemSpec &Spec : Specs)
    Parts.push_back(&compiledFlow(Spec));
  return compiledGroup(Parts);
}

std::vector<const SolveResult *>
LoopAnalysisSession::solveInterleaved(const std::vector<ProblemSpec> &Specs,
                                      const SolverOptions &Opts) {
  // Fusing requires the packed kernel on the plain paper schedule:
  // change-tracked iteration would couple the members' convergence and
  // history snapshots would interleave their matrices, either of which
  // breaks the per-member bit-identity contract. Summary solves skip
  // fusion too -- each spec's memoized summary is already a zero-pass
  // application, so the fill loop below is the fast path.
  bool Fusable = Opts.usesPackedKernel() &&
                 Opts.Eng != SolverOptions::Engine::Summary &&
                 Opts.Strat == SolverOptions::Strategy::PaperSchedule &&
                 !Opts.RecordHistory && !Opts.RecordProvenance;
  if (Fusable) {
    for (FlowDirection Dir :
         {FlowDirection::Forward, FlowDirection::Backward}) {
      // The specs of this direction that miss the solution cache, first
      // occurrence only (duplicates resolve from the cache afterwards).
      std::vector<const ProblemSpec *> Need;
      for (const ProblemSpec &Spec : Specs) {
        if (Spec.Direction != Dir || lookupSolution(Spec, Opts))
          continue;
        bool Seen = false;
        for (const ProblemSpec *N : Need)
          Seen |= sameProblem(*N, Spec);
        if (!Seen)
          Need.push_back(&Spec);
      }
      // A lone miss gains nothing from the group layout; the fill loop
      // below solves it through the ordinary memoized path.
      if (Need.size() < 2)
        continue;
      std::vector<const CompiledFlowProgram *> Parts;
      Parts.reserve(Need.size());
      for (const ProblemSpec *Spec : Need)
        Parts.push_back(&compiledFlow(*Spec));
      std::vector<SolveResult> Solved =
          solveCompiledGroup(compiledGroup(Parts), Opts);
      for (size_t I = 0; I != Need.size(); ++I) {
        ++Stats.SolutionMisses;
        telem::count(telem::Counter::SessionSolutionMisses);
        Solutions.push_back(std::make_unique<Solution>(
            Solution{*Need[I], Opts, std::move(Solved[I])}));
      }
    }
  }
  std::vector<const SolveResult *> Results;
  Results.reserve(Specs.size());
  for (const ProblemSpec &Spec : Specs)
    Results.push_back(&solve(Spec, Opts));
  return Results;
}

std::vector<ReusePair>
LoopAnalysisSession::reusePairs(const ProblemSpec &Spec,
                                RefSelector SinkSel,
                                const SolverOptions &Opts) {
  return collectReusePairs(instance(Spec), solve(Spec, Opts), SinkSel);
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

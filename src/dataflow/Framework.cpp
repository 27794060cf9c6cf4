//===- dataflow/Framework.cpp - Flow functions and solver ----------------===//

#include "dataflow/Framework.h"

#include "dataflow/CompiledFlow.h"
#include "dataflow/Provenance.h"
#include "dataflow/SolverTelemetry.h"
#include "ir/PrettyPrinter.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <ostream>
#include <sstream>

using namespace ardf;

LoopOrientation LoopOrientation::compute(const LoopFlowGraph &Graph,
                                         FlowDirection Dir) {
  LoopOrientation O;
  O.Direction = Dir;

  // Working orientation: reverse postorder for forward problems, the
  // reversed sequence (a topological order of the reversed acyclic body
  // graph) for backward problems.
  O.Order = Graph.reversePostorder();
  if (Dir == FlowDirection::Backward)
    std::reverse(O.Order.begin(), O.Order.end());

  O.Preds.resize(Graph.getNumNodes());
  for (unsigned N = 0; N != Graph.getNumNodes(); ++N)
    O.Preds[N] = Dir == FlowDirection::Backward ? Graph.getNode(N).Succs
                                                : Graph.getNode(N).Preds;

  // Per-pass meet totals (telemetry and SolveResult op accounting).
  for (unsigned N = 0; N != Graph.getNumNodes(); ++N)
    if (!O.Preds[N].empty())
      O.MeetEdgesAll += O.Preds[N].size() - 1;
  unsigned Source = O.Order.front();
  O.MeetEdgesNoSource = O.MeetEdgesAll;
  if (!O.Preds[Source].empty())
    O.MeetEdgesNoSource -= O.Preds[Source].size() - 1;

  unsigned N = Graph.getNumNodes();
  O.ReachWords = (N + 63) / 64;
  O.Reach.assign(size_t(N) * O.ReachWords, 0);
  for (unsigned From = 0; From != N; ++From)
    for (unsigned To = 0; To != N; ++To)
      if (Graph.reachesIntraIteration(From, To)) {
        unsigned Row = Dir == FlowDirection::Backward ? To : From;
        unsigned Bit = Dir == FlowDirection::Backward ? From : To;
        O.Reach[size_t(Row) * O.ReachWords + Bit / 64] |=
            uint64_t(1) << (Bit % 64);
      }
  return O;
}

FrameworkInstance::FrameworkInstance(const LoopFlowGraph &Graph,
                                     const Program &P, ProblemSpec Spec,
                                     const std::string &IVOverride,
                                     int64_t TripOverride)
    : Graph(&Graph), Spec(Spec),
      TripCount(IVOverride.empty() || IVOverride == Graph.getIndVar()
                    ? Graph.getTripCount()
                    : TripOverride),
      OwnedUniverse(
          std::make_unique<ReferenceUniverse>(Graph, P, IVOverride)),
      Universe(OwnedUniverse.get()),
      OwnedOrient(std::make_unique<LoopOrientation>(
          LoopOrientation::compute(Graph, Spec.Direction))),
      Orient(OwnedOrient.get()),
      OwnedCache(std::make_unique<PreserveCache>()),
      Cache(OwnedCache.get()) {
  selectTracked();
  computePr();
  computePreserves();
}

FrameworkInstance::FrameworkInstance(const ReferenceUniverse &Universe,
                                     const LoopOrientation &Orient,
                                     ProblemSpec Spec, int64_t TripCount,
                                     PreserveCache *SharedCache)
    : Graph(&Universe.getGraph()), Spec(Spec), TripCount(TripCount),
      Universe(&Universe), Orient(&Orient) {
  assert(Orient.Direction == Spec.Direction &&
         "orientation direction must match the problem's");
  if (!SharedCache) {
    OwnedCache = std::make_unique<PreserveCache>();
    SharedCache = OwnedCache.get();
  }
  Cache = SharedCache;
  selectTracked();
  computePr();
  computePreserves();
}

void FrameworkInstance::selectTracked() {
  OccToTracked.assign(Universe->size(), -1);
  // With grouping, occurrences of the same access class (same array,
  // same affine subscript) share one tuple element; the class partition
  // is precomputed by the universe.
  std::vector<int> GroupOfClass(
      Spec.GroupByAccess ? Universe->numAccessClasses() : 0, -1);
  for (const RefOccurrence &Occ : Universe->occurrences()) {
    if (!selects(Spec.Gen, Occ) || !Occ.isTrackable())
      continue;
    if (Spec.GroupByAccess) {
      int &G = GroupOfClass[Universe->accessClass(Occ.Id)];
      if (G < 0) {
        G = Groups.size();
        Groups.emplace_back();
      }
      Groups[G].push_back(Occ.Id);
      OccToTracked[Occ.Id] = G;
      continue;
    }
    OccToTracked[Occ.Id] = Groups.size();
    Groups.push_back({Occ.Id});
  }
  unsigned N = Graph->getNumNodes();
  unsigned T = Groups.size();
  TrackedClass.resize(T);
  for (unsigned Idx = 0; Idx != T; ++Idx)
    TrackedClass[Idx] = Universe->accessClass(Groups[Idx].front());

  // Array buckets (counting sort, so each bucket stays ascending).
  ArrayBegin.assign(Universe->numArrays() + 1, 0);
  for (unsigned Idx = 0; Idx != T; ++Idx)
    ++ArrayBegin[Universe->arrayId(Groups[Idx].front()) + 1];
  for (unsigned A = 0; A != Universe->numArrays(); ++A)
    ArrayBegin[A + 1] += ArrayBegin[A];
  ByArray.resize(T);
  std::vector<unsigned> Fill(ArrayBegin.begin(), ArrayBegin.end() - 1);
  for (unsigned Idx = 0; Idx != T; ++Idx)
    ByArray[Fill[Universe->arrayId(Groups[Idx].front())]++] = Idx;
  std::vector<char> Seen(Universe->numAccessClasses(), 0);
  ArrayClassBegin.assign(1, 0);
  for (unsigned A = 0; A != Universe->numArrays(); ++A) {
    for (unsigned Idx : trackedOfArray(A))
      if (!Seen[TrackedClass[Idx]]) {
        Seen[TrackedClass[Idx]] = 1;
        ClassesByArray.push_back(TrackedClass[Idx]);
      }
    ArrayClassBegin.push_back(ClassesByArray.size());
  }

  // Generating cells, dense and node-major CSR (a member sharing its
  // node with an earlier member of the same element adds no cell).
  GenAt.assign(size_t(N) * T, 0);
  GenBegin.assign(N + 1, 0);
  for (unsigned Idx = 0; Idx != T; ++Idx)
    for (unsigned OccId : Groups[Idx]) {
      unsigned Node = Universe->occurrence(OccId).Node;
      char &G = GenAt[size_t(Node) * T + Idx];
      if (!G)
        ++GenBegin[Node + 1];
      G = 1;
    }
  for (unsigned Node = 0; Node != N; ++Node)
    GenBegin[Node + 1] += GenBegin[Node];
  GenCols.resize(GenBegin[N]);
  Fill.assign(GenBegin.begin(), GenBegin.end() - 1);
  for (unsigned Idx = 0; Idx != T; ++Idx)
    for (unsigned OccId : Groups[Idx]) {
      unsigned Node = Universe->occurrence(OccId).Node;
      if (Fill[Node] == GenBegin[Node] || GenCols[Fill[Node] - 1] != Idx)
        GenCols[Fill[Node]++] = Idx;
    }
}

size_t FrameworkInstance::genSlot(unsigned Idx, unsigned Node) const {
  auto Begin = GenCols.begin() + GenBegin[Node];
  auto End = GenCols.begin() + GenBegin[Node + 1];
  auto It = std::lower_bound(Begin, End, Idx);
  assert(It != End && *It == Idx && "not a generating cell");
  return It - GenCols.begin();
}

void FrameworkInstance::computePr() {
  unsigned W = Orient->ReachWords;
  unsigned T = Groups.size();
  Pr.assign(size_t(Graph->getNumNodes()) * T, 1);
  // pr(d, n) == 0 iff a generating node of d reaches n in the working
  // orientation within the same iteration, so the distance-0 instance
  // is in range (Section 3.1.2): clear the union of the members'
  // reachability rows.
  std::vector<uint64_t> Row(W);
  for (unsigned Idx = 0; Idx != T; ++Idx) {
    std::fill(Row.begin(), Row.end(), 0);
    for (unsigned OccId : Groups[Idx]) {
      const uint64_t *Home =
          Orient->reachRow(Universe->occurrence(OccId).Node);
      for (unsigned Word = 0; Word != W; ++Word)
        Row[Word] |= Home[Word];
    }
    for (unsigned Word = 0; Word != W; ++Word)
      for (uint64_t Bits = Row[Word]; Bits; Bits &= Bits - 1)
        Pr[(size_t(Word) * 64 + std::countr_zero(Bits)) * T + Idx] = 0;
  }
}

void FrameworkInstance::computePreserves() {
  unsigned N = Graph->getNumNodes();
  unsigned T = Groups.size();
  Preserve.assign(size_t(N) * T, DistanceValue::allInstances());
  PreserveAfter.assign(GenCols.size(), DistanceValue::allInstances());

  // The constant depends only on the access-class pair, pr, mode, and
  // direction (trip count is fixed per cache): one dense table per
  // (mode, direction), shared by the session's instances, so repeated
  // killers of one class and sibling instances skip the rational
  // arithmetic.
  PreserveCache::Table &Table =
      Cache->Tables[unsigned(Spec.isMust()) * 2 + unsigned(Spec.isBackward())];
  if (Table.Known.empty()) {
    Table.Values.resize(Universe->numClassPairs() * 2);
    Table.Known.resize(Universe->numClassPairs() * 2, 0);
  }
  uint64_t Hits = 0;
  uint64_t Misses = 0;

  // Micro-position of an occurrence within its statement, in working
  // execution order: forward problems execute uses (0) before the def
  // (1); backward problems traverse the statement in reverse.
  auto microPos = [&](const RefOccurrence &Occ) {
    unsigned Forward = Occ.IsDef ? 1 : 0;
    return Spec.isBackward() ? 1 - Forward : Forward;
  };

  for (unsigned Node = 0; Node != N; ++Node) {
    for (unsigned KillId : Universe->occurrencesAt(Node)) {
      const RefOccurrence &Killer = Universe->occurrence(KillId);
      if (!selects(Spec.Kill, Killer))
        continue;
      unsigned KillerCol = Killer.KillsWholeArray
                               ? ReferenceUniverse::wholeArrayColumn
                               : Universe->accessClass(KillId);
      // Only same-array tracked references can be killed.
      for (unsigned Idx : trackedOfArray(Universe->arrayId(KillId))) {
        // A killer that is itself a member regenerates the tracked
        // value in the same breath; its (distance-0) kill is subsumed.
        if (OccToTracked[KillId] == static_cast<int>(Idx))
          continue;
        // A killer in a generating node of d positioned after the
        // generation point applies post-generation, with the fresh
        // distance-0 instance already in range.
        bool AfterGen = false;
        if (generatesAt(Idx, Node))
          for (unsigned MemberId : Groups[Idx])
            if (Universe->occurrence(MemberId).Node == Node &&
                microPos(Killer) >
                    microPos(Universe->occurrence(MemberId)))
              AfterGen = true;
        int64_t EffPr = AfterGen ? 0 : pr(Idx, Node);
        unsigned Tracked = trackedClass(Idx);
        size_t Key = Universe->classPairIndex(Tracked, KillerCol) * 2 + EffPr;
        if (Table.Known[Key]) {
          ++Hits;
        } else {
          ++Misses;
          PreserveQuery Q;
          Q.Preserved = &Universe->classAccess(Tracked);
          Q.Killer = Killer.KillsWholeArray ? nullptr : &*Killer.Affine;
          Q.Pr = EffPr;
          Q.TripCount = TripCount;
          Q.Mode = Spec.Mode;
          Q.Direction = Spec.Direction;
          Table.Values[Key] = computePreserveConstant(Q);
          Table.Known[Key] = 1;
        }
        // Several killers compose; surviving instances must survive
        // each of them.
        DistanceValue &Slot = AfterGen ? PreserveAfter[genSlot(Idx, Node)]
                                       : Preserve[size_t(Node) * T + Idx];
        Slot = DistanceValue::min(Slot, Table.Values[Key]);
      }
    }
  }
  Cache->Hits += Hits;
  Cache->Misses += Misses;
  telem::count(telem::Counter::PreserveHits, Hits);
  telem::count(telem::Counter::PreserveMisses, Misses);
}

std::optional<int64_t>
FrameworkInstance::reuseDistance(unsigned FromClass, unsigned ToClass) const {
  if (ReuseMemo.empty())
    ReuseMemo.resize(Universe->numClassPairs());
  std::optional<std::optional<int64_t>> &Slot =
      ReuseMemo[Universe->classPairIndex(FromClass, ToClass)];
  if (!Slot) {
    std::optional<Rational> Delta = constantReuseDistance(
        Universe->classAccess(FromClass), Universe->classAccess(ToClass));
    Slot = Delta && Delta->isInteger()
               ? std::optional<int64_t>(Delta->asInteger())
               : std::nullopt;
  }
  return *Slot;
}

std::optional<int64_t> FrameworkInstance::overlapDistance(unsigned FromClass,
                                                          unsigned ToClass,
                                                          int64_t Pr) const {
  if (OverlapMemo.empty())
    OverlapMemo.resize(Universe->numClassPairs() * 2);
  std::optional<std::optional<int64_t>> &Slot =
      OverlapMemo[Universe->classPairIndex(FromClass, ToClass) * 2 + Pr];
  if (!Slot)
    Slot = minOverlapDistance(Universe->classAccess(FromClass),
                              Universe->classAccess(ToClass), Pr, TripCount);
  return *Slot;
}

DistanceValue FrameworkInstance::applyNode(unsigned Node, unsigned Idx,
                                           DistanceValue In) const {
  if (Node == Graph->getExit())
    return In.increment(TripCount);
  DistanceValue Out = DistanceValue::min(In, preserveAt(Idx, Node));
  if (!generatesAt(Idx, Node))
    return Out;
  Out = DistanceValue::max(Out, DistanceValue::finite(0));
  return DistanceValue::min(Out, preserveAfterGen(Idx, Node));
}

std::string FrameworkInstance::tupleHeader() const {
  std::ostringstream OS;
  OS << '(';
  for (unsigned Idx = 0; Idx != Groups.size(); ++Idx) {
    if (Idx)
      OS << ", ";
    OS << exprToString(*getTracked(Idx).Ref);
  }
  OS << ')';
  return OS.str();
}

namespace {

void tupleToStream(std::ostringstream &OS, const DistanceValue *Vals,
                   unsigned Size) {
  OS << '(';
  for (unsigned I = 0; I != Size; ++I) {
    if (I)
      OS << ", ";
    OS << Vals[I].toString();
  }
  OS << ')';
}

} // namespace

std::string ardf::tupleToString(const DistanceTuple &T) {
  std::ostringstream OS;
  tupleToStream(OS, T.data(), T.size());
  return OS.str();
}

std::string ardf::tupleToString(DistanceMatrix::ConstRow Row) {
  std::ostringstream OS;
  tupleToStream(OS, Row.begin(), Row.size());
  return OS.str();
}

std::ostream &ardf::operator<<(std::ostream &OS, const DistanceMatrix &M) {
  for (unsigned Node = 0; Node != M.numNodes(); ++Node)
    OS << "\n  [" << Node << "] " << tupleToString(M[Node]);
  return OS;
}

namespace {

/// Shared solver state and passes. Writes into a caller-shaped
/// SolveResult; the pass loop itself never allocates.
class Solver {
public:
  Solver(const FrameworkInstance &FW, const SolverOptions &Opts,
         SolveResult &Result)
      : FW(FW), Opts(Opts), Result(Result),
        NumNodes(FW.getGraph().getNumNodes()),
        NumTracked(FW.getNumTracked()) {}

  /// Enables derivation recording into \p P (RecordProvenance mode;
  /// \p P must have been captured from this solver's instance).
  void setProvenance(SolveProvenance *P) { Prov = P; }

  void run() {
    detail::BudgetGuard Guard(Opts.Budget, FW.getSpec().isMust(), NumNodes,
                              NumTracked);
    if (degradeIfBreached(Guard.checkCells()))
      return;
    if (FW.getSpec().isMust())
      initializationPass();
    else
      initializeMay();
    if (degradeIfBreached(Guard.check(Result.NodeVisits)))
      return;

    unsigned Prescribed = 2;
    if (Opts.Strat == SolverOptions::Strategy::PaperSchedule) {
      for (unsigned P = 0; P != Prescribed; ++P) {
        iteratePass();
        if (degradeIfBreached(Guard.check(Result.NodeVisits)))
          return;
      }
    } else {
      Result.Converged = false;
      for (unsigned P = 0; P != Opts.MaxPasses; ++P) {
        bool Changed = iteratePass();
        if (degradeIfBreached(Guard.check(Result.NodeVisits)))
          return;
        if (!Changed) {
          Result.Converged = true;
          break;
        }
      }
    }
  }

private:
  /// On a breach, overwrites both matrices with the problem's
  /// conservative lattice value (must: NoInstance, nothing provably
  /// available; may: AllInstances, anything may reach) and tags the
  /// result degraded. Sound by construction -- clients can only lose
  /// precision.
  bool degradeIfBreached(BreachReason Reason) {
    if (Reason == BreachReason::None)
      return false;
    DistanceValue Fill = FW.getSpec().isMust()
                             ? DistanceValue::noInstance()
                             : DistanceValue::allInstances();
    for (unsigned Node = 0; Node != NumNodes; ++Node) {
      DistanceMatrix::Row InRow = Result.In[Node];
      DistanceMatrix::Row OutRow = Result.Out[Node];
      for (unsigned Idx = 0; Idx != NumTracked; ++Idx) {
        InRow[Idx] = Fill;
        OutRow[Idx] = Fill;
      }
    }
    Result.Converged = true;
    Result.Outcome = SolveOutcome::Degraded;
    Result.Breach = Reason;
    return true;
  }

  /// The must-problem initialization pass (Section 3.2): optimistic T
  /// for references generated along the meet-over-all-paths, with the
  /// loop entry pinned to bottom.
  void initializationPass() {
    provBeginLayer(0);
    unsigned Source = FW.workingOrder().front();
    for (unsigned Node : FW.workingOrder()) {
      ++Result.NodeVisits;
      DistanceMatrix::Row InRow = Result.In[Node];
      DistanceMatrix::Row OutRow = Result.Out[Node];
      for (unsigned Idx = 0; Idx != NumTracked; ++Idx) {
        DistanceValue In = DistanceValue::noInstance();
        if (Node != Source)
          In = meetOverPreds(Node, Idx);
        DistanceValue Out = FW.generatesAt(Idx, Node)
                                ? DistanceValue::allInstances()
                                : In;
        InRow[Idx] = In;
        OutRow[Idx] = Out;
        if (Prov)
          provCell(Node, Idx, In, Out);
      }
    }
    snapshot("init");
  }

  /// The may-problem initial guess: bottom (= all instances) everywhere,
  /// predicting the maximal effect of the exit increment (Section 3.3).
  void initializeMay() {
    provBeginLayer(0);
    for (unsigned Node = 0; Node != NumNodes; ++Node)
      for (unsigned Idx = 0; Idx != NumTracked; ++Idx) {
        Result.In[Node][Idx] = DistanceValue::allInstances();
        Result.Out[Node][Idx] = DistanceValue::allInstances();
        if (Prov)
          provCell(Node, Idx, DistanceValue::allInstances(),
                   DistanceValue::allInstances());
      }
    snapshot("init");
  }

  DistanceValue meetOverPreds(unsigned Node, unsigned Idx) {
    const std::vector<unsigned> &Preds = FW.workingPreds(Node);
    assert(!Preds.empty() && "flow graph node without predecessors");
    DistanceValue V = Result.Out[Preds.front()][Idx];
    if (Prov)
      provMeetInput(Node, 0, Idx, V);
    for (unsigned I = 1; I < Preds.size(); ++I) {
      DistanceValue PV = Result.Out[Preds[I]][Idx];
      if (Prov)
        provMeetInput(Node, I, Idx, PV);
      V = FW.meet(V, PV);
    }
    return V;
  }

  /// One chaotic-iteration pass in working order; returns true if any
  /// value changed.
  bool iteratePass() {
    provBeginLayer(Result.Passes + 1);
    bool Changed = false;
    for (unsigned Node : FW.workingOrder()) {
      ++Result.NodeVisits;
      DistanceMatrix::Row InRow = Result.In[Node];
      DistanceMatrix::Row OutRow = Result.Out[Node];
      for (unsigned Idx = 0; Idx != NumTracked; ++Idx) {
        DistanceValue In = meetOverPreds(Node, Idx);
        DistanceValue Out = FW.applyNode(Node, Idx, In);
        if (In != InRow[Idx] || Out != OutRow[Idx])
          Changed = true;
        InRow[Idx] = In;
        OutRow[Idx] = Out;
        if (Prov)
          provCell(Node, Idx, In, Out);
      }
    }
    ++Result.Passes;
    snapshot("pass " + std::to_string(Result.Passes));
    return Changed;
  }

  /// Derivation-recording helpers (all no-ops unless setProvenance was
  /// called; the extra per-operand branch is confined to the reference
  /// engine, whose role is the executable spec, not speed).
  void provBeginLayer(unsigned L) {
    if (!Prov)
      return;
    CurLayer = L;
    Prov->Passes = L;
    size_t Cells = size_t(L + 1) * NumNodes * NumTracked;
    Prov->CellIn.resize(Cells, DistanceValue::noInstance());
    Prov->CellOut.resize(Cells, DistanceValue::noInstance());
    Prov->MeetIn.resize(size_t(L + 1) * Prov->PredList.size() * NumTracked,
                        DistanceValue::noInstance());
  }
  void provCell(unsigned Node, unsigned Idx, DistanceValue In,
                DistanceValue Out) {
    unsigned C = Prov->cellIndex(CurLayer, Node, Idx);
    Prov->CellIn[C] = In;
    Prov->CellOut[C] = Out;
  }
  void provMeetInput(unsigned Node, unsigned K, unsigned Idx,
                     DistanceValue V) {
    Prov->MeetIn[(CurLayer * Prov->PredList.size() +
                  Prov->PredOffset[Node] + K) *
                     NumTracked +
                 Idx] = V;
  }

  void snapshot(std::string Label) {
    if (!Opts.RecordHistory)
      return;
    PassSnapshot S;
    S.Label = std::move(Label);
    S.In = Result.In;
    S.Out = Result.Out;
    Result.History.push_back(std::move(S));
  }

  const FrameworkInstance &FW;
  const SolverOptions &Opts;
  SolveResult &Result;
  unsigned NumNodes;
  unsigned NumTracked;
  SolveProvenance *Prov = nullptr;
  unsigned CurLayer = 0;
};

} // namespace

const char *ardf::engineName(SolverOptions::Engine E) {
  switch (E) {
  case SolverOptions::Engine::Reference:
    return "reference";
  case SolverOptions::Engine::PackedKernel:
    return "packed";
  }
  return "unknown";
}

bool ardf::parseEngineName(std::string_view Name,
                           SolverOptions::Engine &Out) {
  if (Name == "reference")
    Out = SolverOptions::Engine::Reference;
  else if (Name == "packed")
    Out = SolverOptions::Engine::PackedKernel;
  else
    return false;
  return true;
}

const char *ardf::engineNameList() { return "reference, packed"; }

SolveResult ardf::solveDataFlow(const FrameworkInstance &FW,
                                const SolverOptions &Opts) {
  if (Opts.usesPackedKernel())
    return solveCompiled(CompiledFlowProgram::compile(FW), Opts.Budget);
  // The Reference engine, with per-solve span and counter telemetry
  // (inert when no context is installed).
  SolveResult Result =
      detail::freshResult(FW.getGraph().getNumNodes(), FW.getNumTracked());
  telem::Span S("solve", "solver", FW.getSpec().Name);
  telem::LatencyTimer LT(telem::Histo::SolveNs);
  Solver Sol(FW, Opts, Result);
  std::shared_ptr<SolveProvenance> Prov;
  if (Opts.RecordProvenance) {
    Prov = std::make_shared<SolveProvenance>(SolveProvenance::capture(FW));
    Sol.setProvenance(Prov.get());
  }
  Sol.run();
  if (Prov) {
    Prov->Degraded = !Result.ok();
    Result.Provenance = std::move(Prov);
  }
  detail::finishSolveCounts(Result, FW.getSpec().isMust(),
                            FW.getGraph().getNumNodes(),
                            FW.getNumTracked(), FW.meetEdges(false),
                            FW.meetEdges(true));
  detail::recordSolveTelemetry(Result, FW.getSpec().isMust(),
                               FW.getGraph().getNumNodes(),
                               /*PackedEngine=*/false);
  if (S.active()) {
    S.arg("nodes", FW.getGraph().getNumNodes());
    S.arg("tracked", FW.getNumTracked());
    S.arg("node_visits", Result.NodeVisits);
    S.arg("passes", Result.Passes);
  }
  return Result;
}

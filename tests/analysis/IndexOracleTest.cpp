//===- tests/analysis/IndexOracleTest.cpp - Indexed vs per-pair oracle ----===//
//
// Instance construction and check extraction read per-array buckets and
// class-pair tables. This suite keeps the straightforward per-pair form
// of the same computations -- every tracked reference against every
// occurrence, array names compared as strings, no memoization -- as the
// oracle, and requires identical pr, preserve constants, reuse pairs and
// dependences on loops that exercise every index path: large synthetic
// loops, non-unit and symbolic coefficients, invariant and non-affine
// subscripts, summary nodes, and with-respect-to sessions over known
// and unknown enclosing trip counts.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include "analysis/Dependence.h"
#include "analysis/LoopDataFlow.h"
#include "frontend/Parser.h"
#include "lint/Checks.h"

#include <gtest/gtest.h>

using namespace ardf;

namespace {

//===----------------------------------------------------------------------===//
// The per-pair reference
//===----------------------------------------------------------------------===//

bool naiveGenerates(const FrameworkInstance &FW, unsigned Idx,
                    unsigned Node) {
  for (unsigned OccId : FW.trackedMembers(Idx))
    if (FW.getUniverse().occurrence(OccId).Node == Node)
      return true;
  return false;
}

int64_t naivePr(const FrameworkInstance &FW, unsigned Idx, unsigned Node) {
  const LoopFlowGraph &Graph = FW.getGraph();
  for (unsigned OccId : FW.trackedMembers(Idx)) {
    unsigned Home = FW.getUniverse().occurrence(OccId).Node;
    bool Reaches = FW.getSpec().isBackward()
                       ? Graph.reachesIntraIteration(Node, Home)
                       : Graph.reachesIntraIteration(Home, Node);
    if (Reaches)
      return 0;
  }
  return 1;
}

/// Pre- and post-generation preserve constants, node-major.
struct NaivePreserves {
  std::vector<DistanceValue> Before;
  std::vector<DistanceValue> After;
};

NaivePreserves naivePreserves(const FrameworkInstance &FW) {
  const ReferenceUniverse &U = FW.getUniverse();
  const ProblemSpec &Spec = FW.getSpec();
  unsigned N = FW.getGraph().getNumNodes();
  unsigned T = FW.getNumTracked();
  NaivePreserves P{std::vector<DistanceValue>(N * T,
                                              DistanceValue::allInstances()),
                   std::vector<DistanceValue>(N * T,
                                              DistanceValue::allInstances())};
  auto microPos = [&](const RefOccurrence &Occ) {
    unsigned Forward = Occ.IsDef ? 1 : 0;
    return Spec.isBackward() ? 1 - Forward : Forward;
  };
  for (unsigned Node = 0; Node != N; ++Node) {
    for (unsigned KillId : U.occurrencesAt(Node)) {
      const RefOccurrence &Killer = U.occurrence(KillId);
      if (!selects(Spec.Kill, Killer))
        continue;
      for (unsigned Idx = 0; Idx != T; ++Idx) {
        const RefOccurrence &D = FW.getTracked(Idx);
        if (D.arrayName() != Killer.arrayName())
          continue;
        if (FW.trackedIndexOf(KillId) == static_cast<int>(Idx))
          continue;
        bool AfterGen = false;
        if (naiveGenerates(FW, Idx, Node))
          for (unsigned MemberId : FW.trackedMembers(Idx))
            if (U.occurrence(MemberId).Node == Node &&
                microPos(Killer) > microPos(U.occurrence(MemberId)))
              AfterGen = true;
        PreserveQuery Q;
        Q.Preserved = &*D.Affine;
        Q.Killer = Killer.KillsWholeArray ? nullptr : &*Killer.Affine;
        Q.Pr = AfterGen ? 0 : naivePr(FW, Idx, Node);
        Q.TripCount = FW.getTripCount();
        Q.Mode = Spec.Mode;
        Q.Direction = Spec.Direction;
        DistanceValue &Slot =
            AfterGen ? P.After[Node * T + Idx] : P.Before[Node * T + Idx];
        Slot = DistanceValue::min(Slot, computePreserveConstant(Q));
      }
    }
  }
  return P;
}

std::vector<ReusePair> naiveReusePairs(const FrameworkInstance &FW,
                                       const SolveResult &Result,
                                       RefSelector SinkSel) {
  std::vector<ReusePair> Pairs;
  const ReferenceUniverse &U = FW.getUniverse();
  const bool Backward = FW.getSpec().isBackward();
  for (const RefOccurrence &Sink : U.occurrences()) {
    if (!selects(SinkSel, Sink) || !Sink.isTrackable())
      continue;
    for (unsigned Idx = 0; Idx != FW.getNumTracked(); ++Idx) {
      const RefOccurrence &Source = FW.getTracked(Idx);
      if (Source.Id == Sink.Id)
        continue;
      std::optional<Rational> Delta =
          Backward ? constantReuseDistance(*Sink.Affine, *Source.Affine)
                   : constantReuseDistance(*Source.Affine, *Sink.Affine);
      if (!Delta || !Delta->isInteger())
        continue;
      int64_t D = Delta->asInteger();
      if (D < naivePr(FW, Idx, Sink.Node))
        continue;
      if (!Result.In[Sink.Node][Idx].covers(D))
        continue;
      Pairs.push_back(ReusePair{Source.Id, Sink.Id, D});
    }
  }
  return Pairs;
}

DepKind naiveKind(bool FromIsDef, bool ToIsDef) {
  if (FromIsDef)
    return ToIsDef ? DepKind::Output : DepKind::Flow;
  return ToIsDef ? DepKind::Anti : DepKind::Input;
}

/// The overlap search spans the instance's iteration space
/// (getTripCount(): the enclosing loop's under a with-respect-to view).
std::vector<Dependence> naiveDependences(const FrameworkInstance &FW,
                                         const SolveResult &Result,
                                         bool IncludeInput) {
  std::vector<Dependence> Deps;
  const ReferenceUniverse &U = FW.getUniverse();
  for (const RefOccurrence &To : U.occurrences()) {
    if (!To.isTrackable())
      continue;
    for (unsigned Idx = 0; Idx != FW.getNumTracked(); ++Idx) {
      const RefOccurrence &From = FW.getTracked(Idx);
      if (From.Id == To.Id || From.arrayName() != To.arrayName())
        continue;
      DepKind Kind = naiveKind(From.IsDef, To.IsDef);
      if (Kind == DepKind::Input && !IncludeInput)
        continue;
      std::optional<int64_t> D =
          minOverlapDistance(*From.Affine, *To.Affine,
                             naivePr(FW, Idx, To.Node), FW.getTripCount());
      if (!D || !Result.In[To.Node][Idx].covers(*D))
        continue;
      Deps.push_back(Dependence{From.Id, To.Id, Kind, *D});
    }
  }
  return Deps;
}

//===----------------------------------------------------------------------===//
// Comparison
//===----------------------------------------------------------------------===//

void expectSamePairs(const std::vector<ReusePair> &Got,
                     const std::vector<ReusePair> &Want,
                     const std::string &What) {
  ASSERT_EQ(Got.size(), Want.size()) << What;
  for (size_t I = 0; I != Got.size(); ++I) {
    EXPECT_EQ(Got[I].SourceId, Want[I].SourceId) << What << " #" << I;
    EXPECT_EQ(Got[I].SinkId, Want[I].SinkId) << What << " #" << I;
    EXPECT_EQ(Got[I].Distance, Want[I].Distance) << What << " #" << I;
  }
}

void expectSameDeps(const std::vector<Dependence> &Got,
                    const std::vector<Dependence> &Want,
                    const std::string &What) {
  ASSERT_EQ(Got.size(), Want.size()) << What;
  for (size_t I = 0; I != Got.size(); ++I) {
    EXPECT_EQ(Got[I].FromId, Want[I].FromId) << What << " #" << I;
    EXPECT_EQ(Got[I].ToId, Want[I].ToId) << What << " #" << I;
    EXPECT_EQ(Got[I].Kind, Want[I].Kind) << What << " #" << I;
    EXPECT_EQ(Got[I].Distance, Want[I].Distance) << What << " #" << I;
  }
}

/// The lint problems plus the grouped variants the transforms use.
std::vector<ProblemSpec> oracleSpecs() {
  std::vector<ProblemSpec> Specs = lintProblems();
  Specs.push_back(ProblemSpec::availableValues());
  Specs.push_back(ProblemSpec::busyStores());
  return Specs;
}

/// Per cell: generation, pr, and both preserve constants. Post-generation
/// constants exist only for generating cells; the reference never sets
/// one anywhere else.
void expectSameCells(const FrameworkInstance &FW, const std::string &What) {
  unsigned N = FW.getGraph().getNumNodes();
  unsigned T = FW.getNumTracked();
  NaivePreserves P = naivePreserves(FW);
  for (unsigned Node = 0; Node != N; ++Node)
    for (unsigned Idx = 0; Idx != T; ++Idx) {
      ASSERT_EQ(FW.generatesAt(Idx, Node), naiveGenerates(FW, Idx, Node))
          << What << " cell " << Node << "," << Idx;
      ASSERT_EQ(FW.pr(Idx, Node), naivePr(FW, Idx, Node))
          << What << " cell " << Node << "," << Idx;
      ASSERT_EQ(FW.preserveAt(Idx, Node), P.Before[Node * T + Idx])
          << What << " cell " << Node << "," << Idx;
      if (FW.generatesAt(Idx, Node))
        ASSERT_EQ(FW.preserveAfterGen(Idx, Node), P.After[Node * T + Idx])
            << What << " cell " << Node << "," << Idx;
      else
        ASSERT_TRUE(P.After[Node * T + Idx].isAllInstances())
            << What << " cell " << Node << "," << Idx;
    }
}

/// Checks every instance of \p Session against the per-pair reference.
/// Returns the number of reuse pairs and dependences compared, so the
/// caller can tell a vacuous corpus from a passing one.
size_t checkSession(LoopAnalysisSession &Session, const std::string &Where) {
  size_t Compared = 0;
  for (const ProblemSpec &Spec : oracleSpecs()) {
    std::string What = Where + " / " + Spec.Name +
                       (Spec.GroupByAccess ? " (grouped)" : "");
    const FrameworkInstance &FW = Session.instance(Spec);
    expectSameCells(FW, What);

    const SolveResult &R = Session.solve(Spec);
    for (RefSelector Sel :
         {RefSelector::Uses, RefSelector::Defs, RefSelector::DefsAndUses}) {
      std::vector<ReusePair> Want = naiveReusePairs(FW, R, Sel);
      expectSamePairs(collectReusePairs(FW, R, Sel), Want, What + " pairs");
      Compared += Want.size();
    }
    LoopDataFlow DF(Session, Spec);
    for (bool IncludeInput : {false, true}) {
      std::vector<Dependence> Want = naiveDependences(FW, R, IncludeInput);
      expectSameDeps(extractDependences(DF, IncludeInput).Deps, Want,
                     What + " deps");
      Compared += Want.size();
    }
  }
  return Compared;
}

/// Every DO loop of \p P with its enclosing DO loops, outermost first.
std::vector<std::pair<const DoLoopStmt *, std::vector<const DoLoopStmt *>>>
loopsOf(const Program &P) {
  std::vector<const DoLoopStmt *> All;
  forEachStmt(P.getStmts(), [&](const Stmt &S) {
    if (const auto *L = dyn_cast<DoLoopStmt>(&S))
      All.push_back(L);
  });
  std::vector<std::pair<const DoLoopStmt *, std::vector<const DoLoopStmt *>>>
      Out;
  for (const DoLoopStmt *L : All) {
    std::vector<const DoLoopStmt *> Enclosing;
    for (const DoLoopStmt *E : All) {
      bool Contains = false;
      forEachStmt(E->getBody(), [&](const Stmt &S) { Contains |= &S == L; });
      if (Contains)
        Enclosing.push_back(E);
    }
    Out.emplace_back(L, std::move(Enclosing));
  }
  return Out;
}

/// Checks the plain session of every loop of \p Source, and for nested
/// loops the with-respect-to sessions of each enclosing loop over its
/// own trip count and over an unknown one.
size_t checkProgram(const std::string &Source, const std::string &Name) {
  Program P = parseOrDie(Source);
  size_t Compared = 0;
  for (const auto &[Loop, Enclosing] : loopsOf(P)) {
    std::string Where = Name + " loop " + Loop->getIndVar();
    LoopAnalysisSession Plain(P, *Loop);
    Compared += checkSession(Plain, Where);
    for (const DoLoopStmt *Outer : Enclosing) {
      int64_t OuterTrip = LoopFlowGraph(*Outer).getTripCount();
      for (int64_t Trip : {OuterTrip, UnknownTripCount}) {
        LoopAnalysisSession Wrt(P, *Loop, Outer->getIndVar(), Trip);
        Compared += checkSession(Wrt, Where + " wrt " + Outer->getIndVar() +
                                          " trip " + std::to_string(Trip));
      }
    }
  }
  return Compared;
}

} // namespace

TEST(IndexOracleTest, SyntheticBigLoops) {
  size_t Compared =
      checkProgram(ardfbench::makeSyntheticLoop(192, 4, 20, 7), "big4");
  Compared += checkProgram(ardfbench::makeSyntheticLoop(96, 2, 30, 11, 6),
                           "trip6");
  EXPECT_GT(Compared, 1000u);
}

TEST(IndexOracleTest, NonUnitAndSymbolicCoefficients) {
  EXPECT_GT(checkProgram("array X[N, M];\n"
                         "do i = 1, 64 {\n"
                         "  B[2*i] = B[2*i - 2] + B[i] + B[2*i + 1];\n"
                         "  X[i, j] = X[i - 1, j] + X[i, j + 1];\n"
                         "  C[N*i + 1] = C[N*i - N + 1] + C[3*i];\n"
                         "  D[k*i] = D[k*i - k] + D[i];\n"
                         "  if (B[2*i] > 0) { X[i + 1, j] = C[N*i + 1]; }\n"
                         "}\n",
                         "coefficients"),
            0u);
}

TEST(IndexOracleTest, InvariantAndNonAffineSubscripts) {
  EXPECT_GT(checkProgram("do i = 1, 40 {\n"
                         "  A[5] = A[i] + A[k];\n"
                         "  A[i*i] = A[i - 1] + B[A[i]];\n"
                         "  if (A[5] > 0) { B[i + 1] = A[k] + B[i]; }\n"
                         "  A[k] = B[i - 1] + A[5];\n"
                         "}\n",
                         "invariant"),
            0u);
}

TEST(IndexOracleTest, InnerLoopsAndWithRespectToSessions) {
  // Summary nodes (affine-in-i members stay trackable, j-dependent ones
  // kill whole arrays; a summary killer shares its class with a
  // statement killer, which must still kill precisely), a nest whose
  // outer trip count is unknown, and one whose outer iteration space is
  // wider than the inner loop's.
  size_t Compared = checkProgram("do i = 1, 30 {\n"
                                 "  A[i] = B[i] + B[i - 1];\n"
                                 "  do j = 1, 5 {\n"
                                 "    C[j] = A[i] + C[j + 1];\n"
                                 "    B[2*i + 1] = C[j];\n"
                                 "  }\n"
                                 "  B[i + 2] = A[i - 1] + C[i];\n"
                                 "  B[2*i + 1] = B[i + 2];\n"
                                 "}\n",
                                 "summary");
  Compared += checkProgram("array X[N, N];\n"
                           "do j = 1, UB {\n"
                           "  do i = 1, 8 {\n"
                           "    X[i + 1, j] = X[i, j] + X[i, j - 1];\n"
                           "    A[5] = A[j] + A[i];\n"
                           "  }\n"
                           "}\n",
                           "unknown-outer");
  Compared += checkProgram("do j = 1, 10 {\n"
                           "  do i = 1, 3 {\n"
                           "    A[5] = A[j] + 1;\n"
                           "    A[j + 1] = A[i] + A[j - 2];\n"
                           "  }\n"
                           "}\n",
                           "wide-outer");
  EXPECT_GT(Compared, 0u);
}

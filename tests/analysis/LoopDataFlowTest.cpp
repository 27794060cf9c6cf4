//===- tests/analysis/LoopDataFlowTest.cpp - Facade and reuse pairs ------===//

#include "analysis/Dependence.h"
#include "analysis/LoopDataFlow.h"
#include "analysis/LoopNest.h"
#include "frontend/Parser.h"
#include "ir/PrettyPrinter.h"

#include <gtest/gtest.h>

using namespace ardf;

namespace {

/// Renders a reuse pair as "source -> sink @ d" for compact matching.
std::string pairText(const LoopDataFlow &DF, const ReusePair &P) {
  const ReferenceUniverse &U = DF.universe();
  return exprToString(*U.occurrence(P.SourceId).Ref) + " -> " +
         exprToString(*U.occurrence(P.SinkId).Ref) + " @ " +
         std::to_string(P.Distance);
}

bool hasPair(const LoopDataFlow &DF, const std::vector<ReusePair> &Pairs,
             const std::string &Text) {
  for (const ReusePair &P : Pairs)
    if (pairText(DF, P) == Text)
      return true;
  return false;
}

} // namespace

TEST(LoopDataFlowTest, Fig1ReuseConclusions) {
  // Section 3.5's three conclusions from the must-reaching solution.
  Program P = parseOrDie(R"(
    do i = 1, 1000 {
      C[i+2] = C[i] * 2;
      B[2*i] = C[i] + X;
      if (C[i] == 0) { C[i] = B[i-1]; }
      B[i] = C[i+1];
    })");
  LoopDataFlow DF(P, *P.getFirstLoop(), ProblemSpec::mustReachingDefs());
  std::vector<ReusePair> Pairs = DF.reusePairs(RefSelector::Uses);

  // "The uses of C[i] in nodes 1 and 2 reuse the value computed by
  //  definition C[i+2] two iterations earlier."
  int CiUses = 0;
  for (const ReusePair &Pair : Pairs)
    if (pairText(DF, Pair) == "C[i + 2] -> C[i] @ 2")
      ++CiUses;
  EXPECT_GE(CiUses, 2);

  // "The reference B[i-1] uses the value computed in node 4 one
  //  iteration earlier."
  EXPECT_TRUE(hasPair(DF, Pairs, "B[i] -> B[i - 1] @ 1"));

  // "The reference to C[i+1] uses the value computed by C[i+2] one
  //  iteration earlier."
  EXPECT_TRUE(hasPair(DF, Pairs, "C[i + 2] -> C[i + 1] @ 1"));
}

TEST(LoopDataFlowTest, ConditionalDefIsNotAMustSource) {
  // The guarded def C[i] must not claim must-reuse at C[i-1].
  Program P = parseOrDie(R"(
    do i = 1, 100 {
      if (x == 0) { C[i] = 1; }
      y = C[i-1];
    })");
  LoopDataFlow DF(P, *P.getFirstLoop(), ProblemSpec::mustReachingDefs());
  std::vector<ReusePair> Pairs = DF.reusePairs(RefSelector::Uses);
  EXPECT_FALSE(hasPair(DF, Pairs, "C[i] -> C[i - 1] @ 1"));
}

TEST(LoopDataFlowTest, ConditionalDefIsAMaySource) {
  Program P = parseOrDie(R"(
    do i = 1, 100 {
      if (x == 0) { C[i] = 1; }
      y = C[i-1];
    })");
  LoopDataFlow DF(P, *P.getFirstLoop(), ProblemSpec::reachingReferences());
  std::vector<ReusePair> Pairs = DF.reusePairs(RefSelector::Uses);
  EXPECT_TRUE(hasPair(DF, Pairs, "C[i] -> C[i - 1] @ 1"));
}

TEST(LoopDataFlowTest, AvailabilityAcrossBothBranches) {
  // Both branches load A[i]; the value is available at the join
  // regardless of the path.
  Program P = parseOrDie(R"(
    do i = 1, 100 {
      if (x == 0) { B[i] = A[i]; } else { C[i] = A[i]; }
      D[i] = A[i];
    })");
  LoopDataFlow DF(P, *P.getFirstLoop(), ProblemSpec::availableValues());
  std::vector<ReusePair> Pairs = DF.reusePairs(RefSelector::Uses);
  bool JoinUseCovered = false;
  for (const ReusePair &Pair : Pairs) {
    const RefOccurrence &Sink = DF.universe().occurrence(Pair.SinkId);
    if (Pair.Distance == 0 && !Sink.IsDef &&
        DF.graph().getNode(Sink.Node).StmtNumber == 3)
      JoinUseCovered = true;
  }
  EXPECT_TRUE(JoinUseCovered);
}

TEST(LoopDataFlowTest, BusyStoreReusePairsFlipRoles) {
  Program P = parseOrDie(R"(
    do i = 1, 100 {
      A[i] = 1;
      A[i+1] = 2;
    })");
  LoopDataFlow DF(P, *P.getFirstLoop(), ProblemSpec::busyStores());
  std::vector<ReusePair> Pairs = DF.reusePairs(RefSelector::Defs);
  // Sink A[i+1] is overwritten by source A[i] one iteration LATER.
  EXPECT_TRUE(hasPair(DF, Pairs, "A[i] -> A[i + 1] @ 1"));
}

TEST(DependenceTest, ClassicKinds) {
  Program P = parseOrDie(R"(
    do i = 1, 100 {
      A[i] = A[i-1] + 1;
      B[i] = A[i+1];
    })");
  DependenceInfo Info = computeDependences(P, *P.getFirstLoop());
  bool Flow = false, Anti = false, Output = false;
  for (const Dependence &D : Info.Deps) {
    if (D.Kind == DepKind::Flow && D.Distance == 1)
      Flow = true; // A[i] -> A[i-1] next iteration
    if (D.Kind == DepKind::Anti)
      Anti = true; // use A[i+1] before next iterations' def A[i]
    if (D.Kind == DepKind::Output)
      Output = true;
  }
  EXPECT_TRUE(Flow);
  EXPECT_TRUE(Anti);
  EXPECT_FALSE(Output);
  EXPECT_TRUE(Info.hasCarriedDistance(1));
}

TEST(DependenceTest, IndependentIterations) {
  Program P = parseOrDie("do i = 1, 100 { A[i] = B[i] + 1; }");
  DependenceInfo Info = computeDependences(P, *P.getFirstLoop());
  for (const Dependence &D : Info.Deps)
    EXPECT_FALSE(D.isLoopCarried()) << depKindName(D.Kind);
}

TEST(DependenceTest, OutputDependence) {
  Program P = parseOrDie("do i = 1, 100 { A[i] = 1; A[i+3] = 2; }");
  DependenceInfo Info = computeDependences(P, *P.getFirstLoop());
  bool Output3 = false;
  for (const Dependence &D : Info.Deps)
    if (D.Kind == DepKind::Output && D.Distance == 3)
      Output3 = true;
  EXPECT_TRUE(Output3);
}

TEST(DependenceTest, DistanceOneFilter) {
  Program P = parseOrDie("do i = 1, 100 { A[i+1] = A[i]; B[i+2] = B[i]; }");
  DependenceInfo Info = computeDependences(P, *P.getFirstLoop());
  std::vector<Dependence> D1 = Info.distanceOne();
  ASSERT_FALSE(D1.empty());
  for (const Dependence &D : D1)
    EXPECT_EQ(D.Distance, 1);
  EXPECT_TRUE(Info.hasCarriedDistance(2));
}

TEST(DependenceTest, InputDependencesOptIn) {
  Program P = parseOrDie("do i = 1, 100 { x = A[i]; y = A[i-1]; }");
  DependenceInfo NoInput = computeDependences(P, *P.getFirstLoop(), false);
  for (const Dependence &D : NoInput.Deps)
    EXPECT_NE(D.Kind, DepKind::Input);
  DependenceInfo WithInput = computeDependences(P, *P.getFirstLoop(), true);
  bool SawInput = false;
  for (const Dependence &D : WithInput.Deps)
    SawInput |= D.Kind == DepKind::Input;
  EXPECT_TRUE(SawInput);
}

TEST(LoopDataFlowTest, NestLevelSeesTheEnclosingLoopsScalarWrites) {
  // k grows by 3 per i iteration, so at the i level A[k + i + j - 1]
  // never reads what A[k + i + j] wrote an i iteration earlier; within
  // one i iteration k is constant and the j level reuses at distance 1.
  Program P = parseOrDie("array A[200];\n"
                         "k = 0;\n"
                         "do i = 1, 10 {\n"
                         "  k = k + 3;\n"
                         "  do j = 1, 5 {\n"
                         "    A[k + i + j] = A[k + i + j - 1] + 1;\n"
                         "  }\n"
                         "}\n");
  LoopNestTree Nest(P);
  const NestLoop &I = *Nest.roots()[0];
  const NestLoop &J = *I.Children[0];

  LoopDataFlow OwnLevel(P, *J.Analyzed, ProblemSpec::availableValues());
  EXPECT_TRUE(hasPair(OwnLevel, OwnLevel.reusePairs(RefSelector::Uses),
                      "A[k + i + j] -> A[k + i + j - 1] @ 1"));

  LoopDataFlow OuterLevel(P, J, I, ProblemSpec::availableValues());
  EXPECT_EQ(OuterLevel.universe().getIV(), "i");
  EXPECT_TRUE(OuterLevel.reusePairs(RefSelector::Uses).empty());
}

//===- tests/baseline/BaselineTest.cpp - Baseline comparators ------------===//

#include "analysis/LoopDataFlow.h"
#include "baseline/DepScalarReplacement.h"
#include "baseline/DependenceTest.h"
#include "baseline/NaiveSolver.h"
#include "frontend/Parser.h"

#include <gtest/gtest.h>

#include <cstdint>

using namespace ardf;

TEST(ClassicDepTest, GcdFiltersDisjointStrides) {
  // 2i and 2i+1: even vs odd cells never meet.
  ClassicDepVerdict V = classicDependenceTest(2, 0, 2, 1, 100);
  EXPECT_FALSE(V.MayDepend);
}

TEST(ClassicDepTest, ConsistentDistance) {
  ClassicDepVerdict V = classicDependenceTest(1, 2, 1, 0, 100);
  ASSERT_TRUE(V.MayDepend);
  ASSERT_TRUE(V.Distance.has_value());
  EXPECT_EQ(*V.Distance, 2);
}

TEST(ClassicDepTest, BoundsFilterFarApartRefs) {
  // A[i] vs A[i + 1000] over 100 iterations: ranges do not overlap.
  ClassicDepVerdict V = classicDependenceTest(1, 0, 1, 1000, 100);
  EXPECT_FALSE(V.MayDepend);
  // Unknown bound: the distance could be realized by a long enough
  // loop, so the test stays conservative.
  EXPECT_TRUE(classicDependenceTest(1, 0, 1, 1000, -1).MayDepend);
}

TEST(ClassicDepTest, InconsistentPairConservative) {
  ClassicDepVerdict V = classicDependenceTest(2, 0, 1, 0, 100);
  EXPECT_TRUE(V.MayDepend);
  EXPECT_FALSE(V.Distance.has_value());
}

TEST(ClassicDepTest, InvariantPair) {
  EXPECT_TRUE(classicDependenceTest(0, 5, 0, 5, 100).MayDepend);
  EXPECT_FALSE(classicDependenceTest(0, 5, 0, 7, 100).MayDepend);
}

TEST(ClassicDepTest, OverflowMayDependAtNoDistance) {
  // B2 - B1 leaves int64: the answer is a dependence at no known
  // distance, not one computed from a wrapped difference.
  ClassicDepVerdict V = classicDependenceTest(1, 9000000000000000000, 1,
                                              -9000000000000000000, 100);
  EXPECT_TRUE(V.MayDepend);
  EXPECT_FALSE(V.Distance.has_value());
  // So do the negated and divided differences and the range check.
  EXPECT_TRUE(classicDependenceTest(-1, INT64_MIN, -1, 0, 100).MayDepend);
  EXPECT_FALSE(classicDependenceTest(-1, INT64_MIN, -1, 0, 100)
                   .Distance.has_value());
  EXPECT_TRUE(
      classicDependenceTest(INT64_MIN, 0, INT64_MIN, 0, INT64_MAX).MayDepend);
  EXPECT_TRUE(classicDependenceTest(2, 0, 3, 0, INT64_MAX).MayDepend);
}

TEST(BaselineSRTest, OverflowingTripCountIsUnknown) {
  // The loop's trip count leaves int64: it is unknown, so the bounds
  // step does not run and the distance-1 reuse is found.
  Program P = parseOrDie(
      "do i = 0, 9223372036854775807 { A[i + 1] = A[i] + 1; }");
  EXPECT_EQ(P.getFirstLoop()->getConstantTripCount(), -1);
  BaselineSRResult R = findReuseDependenceBased(P, *P.getFirstLoop());
  ASSERT_EQ(R.Reuses.size(), 1u);
  EXPECT_EQ(R.Reuses[0].Distance, 1);
}

TEST(BaselineSRTest, StraightLineParity) {
  // On straight-line loops the baseline matches the framework.
  Program P = parseOrDie("do i = 1, 100 { A[i+2] = A[i] + x; }");
  BaselineSRResult R = findReuseDependenceBased(P, *P.getFirstLoop());
  EXPECT_FALSE(R.BailedOnControlFlow);
  ASSERT_EQ(R.Reuses.size(), 1u);
  EXPECT_EQ(R.Reuses[0].SourceText, "A[i + 2]");
  EXPECT_EQ(R.Reuses[0].SinkText, "A[i]");
  EXPECT_EQ(R.Reuses[0].Distance, 2);
}

TEST(BaselineSRTest, KillScanBlocksOverwrittenValue) {
  // A[i] overwrites what A[i+1] produced before the use consumes it.
  Program P = parseOrDie(R"(
    do i = 1, 100 {
      A[i+1] = x;
      A[i] = y;
      B[i] = A[i-1];
    })");
  BaselineSRResult R = findReuseDependenceBased(P, *P.getFirstLoop());
  // The value reaching A[i-1] comes from A[i] (distance 1), not from
  // A[i+1] (distance 2, killed in between).
  bool FromKilled = false, FromKiller = false;
  for (const BaselineReuse &Reuse : R.Reuses) {
    if (Reuse.SinkText != "A[i - 1]")
      continue;
    FromKilled |= Reuse.SourceText == "A[i + 1]";
    FromKiller |= Reuse.SourceText == "A[i]";
  }
  EXPECT_FALSE(FromKilled);
  EXPECT_TRUE(FromKiller);
}

TEST(BaselineSRTest, BailsOnConditionals) {
  // The paper's headline contrast (Section 5): flow-insensitive scalar
  // replacement gives up under conditional control flow, the framework
  // does not.
  const char *Source = R"(
    do i = 1, 100 {
      A[i+1] = B[i];
      if (B[i] > 0) { C[i] = A[i]; }
    })";
  Program P = parseOrDie(Source);
  BaselineSRResult Base = findReuseDependenceBased(P, *P.getFirstLoop());
  EXPECT_TRUE(Base.BailedOnControlFlow);
  EXPECT_TRUE(Base.Reuses.empty());

  LoopDataFlow DF(P, *P.getFirstLoop(), ProblemSpec::availableValues());
  EXPECT_FALSE(DF.reusePairs(RefSelector::Uses).empty());
}

TEST(BaselineSRTest, BailsOnNonAffine) {
  Program P = parseOrDie("do i = 1, 100 { A[i*i] = A[i]; }");
  BaselineSRResult R = findReuseDependenceBased(P, *P.getFirstLoop());
  EXPECT_TRUE(R.BailedOnSubscripts);
}

namespace {

FrameworkInstance makeInstance(Program &P, ProblemSpec Spec,
                               std::unique_ptr<LoopFlowGraph> &Graph) {
  Graph = std::make_unique<LoopFlowGraph>(*P.getFirstLoop());
  return FrameworkInstance(*Graph, P, Spec);
}

} // namespace

TEST(NaiveSolverTest, SameSolutionMorePasses) {
  Program P = parseOrDie(R"(
    do i = 1, 1000 {
      C[i+2] = C[i] * 2;
      B[2*i] = C[i] + X;
      if (C[i] == 0) { C[i] = B[i-1]; }
      B[i] = C[i+1];
    })");
  std::unique_ptr<LoopFlowGraph> Graph;
  FrameworkInstance FW =
      makeInstance(P, ProblemSpec::mustReachingDefs(), Graph);
  SolveResult Paper = solveDataFlow(FW);
  SolveResult Naive = solveNaiveWorklist(FW);
  ASSERT_TRUE(Naive.Converged);
  EXPECT_EQ(Naive.In, Paper.In);
  EXPECT_EQ(Naive.Out, Paper.Out);
  // The paper schedule is never beaten by the pessimally seeded FIFO.
  EXPECT_LE(Paper.NodeVisits, Naive.NodeVisits);
}

TEST(NaiveSolverTest, MayProblemSameSolution) {
  Program P = parseOrDie("do i = 1, 100 { A[i+1] = A[i]; B[i] = A[i-1]; }");
  std::unique_ptr<LoopFlowGraph> Graph;
  FrameworkInstance FW =
      makeInstance(P, ProblemSpec::reachingReferences(), Graph);
  SolveResult Paper = solveDataFlow(FW);
  SolveResult Naive = solveNaiveWorklist(FW);
  ASSERT_TRUE(Naive.Converged);
  EXPECT_EQ(Naive.In, Paper.In);
}

TEST(NaiveSolverTest, PessimisticMayInitCrawls) {
  // Section 3.3: starting a may-problem from "no instances" needs on
  // the order of UB rounds; the paper's initial guess needs two passes.
  Program P = parseOrDie("do i = 1, 200 { A[i+1] = A[i]; }");
  std::unique_ptr<LoopFlowGraph> Graph;
  FrameworkInstance FW =
      makeInstance(P, ProblemSpec::reachingReferences(), Graph);
  NaiveSolverOptions Pess;
  Pess.PessimisticMayInit = true;
  SolveResult Slow = solveNaiveWorklist(FW, Pess);
  SolveResult Fast = solveDataFlow(FW);
  ASSERT_TRUE(Slow.Converged);
  EXPECT_EQ(Slow.In, Fast.In);
  // Crawling: at least ~UB node visits vs 2N for the paper schedule.
  EXPECT_GT(Slow.NodeVisits, 100u);
  EXPECT_EQ(Fast.NodeVisits, 2 * Graph->getNumNodes());
}

TEST(NaiveSolverTest, PessimisticMayInitDivergesOnUnknownBound) {
  // With an unknown trip count there is no saturation point: the naive
  // ascent never stabilizes (the paper's non-termination warning).
  Program P = parseOrDie("do i = 1, N { A[i+1] = A[i]; }");
  std::unique_ptr<LoopFlowGraph> Graph;
  FrameworkInstance FW =
      makeInstance(P, ProblemSpec::reachingReferences(), Graph);
  NaiveSolverOptions Pess;
  Pess.PessimisticMayInit = true;
  Pess.MaxNodeVisits = 5000;
  SolveResult Slow = solveNaiveWorklist(FW, Pess);
  EXPECT_FALSE(Slow.Converged);
}

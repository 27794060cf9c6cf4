//===- tests/transform/LoadElimTest.cpp - Redundant load elimination -----===//

#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "ir/PrettyPrinter.h"
#include "transform/LoadElimination.h"
#include "transform/StoreElimination.h"

#include <gtest/gtest.h>

using namespace ardf;

namespace {

std::pair<Interpreter, Interpreter>
checkEquivalent(const Program &Original, const Program &Transformed,
                const std::map<std::string, int64_t> &Scalars = {},
                uint64_t Seed = 11) {
  Interpreter A(Original), B(Transformed);
  for (const auto &[Name, Value] : Scalars) {
    A.setScalar(Name, Value);
    B.setScalar(Name, Value);
  }
  for (const char *Arr : {"A", "B", "C"}) {
    A.seedArray(Arr, 128, Seed);
    B.seedArray(Arr, 128, Seed);
  }
  A.run();
  B.run();
  EXPECT_EQ(A.state().Arrays, B.state().Arrays)
      << "original:\n"
      << programToString(Original) << "transformed:\n"
      << programToString(Transformed);
  return {std::move(A), std::move(B)};
}

} // namespace

TEST(LoadElimTest, Fig7StyleDefToUse) {
  // The def A[i+1] feeds the (conditional) use A[i] one iteration later.
  Program P = parseOrDie(R"(
    do i = 1, 1000 {
      if (A[i] > 0) { y = y + A[i]; }
      A[i+1] = i;
    })");
  LoadElimResult R = eliminateRedundantLoads(P);
  EXPECT_GE(R.LoadsEliminated, 1u);
  auto [IA, IB] = checkEquivalent(P, R.Transformed);
  EXPECT_EQ(IA.scalar("y"), IB.scalar("y"));
  EXPECT_LT(IB.stats().ArrayLoads, IA.stats().ArrayLoads);
}

TEST(LoadElimTest, SelfRecurrencePipelines) {
  // A[i+2] = A[i] + x: classic two-deep pipeline; in-loop loads vanish.
  Program P = parseOrDie("do i = 1, 1000 { A[i+2] = A[i] + x; }");
  LoadElimResult R = eliminateRedundantLoads(P);
  EXPECT_EQ(R.LoadsEliminated, 1u);
  auto [IA, IB] = checkEquivalent(P, R.Transformed, {{"x", 3}});
  EXPECT_EQ(IA.stats().ArrayLoads, 1000u);
  // Only the two preheader fills remain.
  EXPECT_EQ(IB.stats().ArrayLoads, 2u);
  EXPECT_EQ(IB.stats().ArrayStores, 1000u);
}

TEST(LoadElimTest, SubscriptOverAssignedScalarIsNotReused) {
  // k changes every iteration, so A[k + j - 1] does not read the value
  // A[k + j] stored one iteration earlier: nothing may be eliminated.
  for (const char *Source :
       {"do j = 1, 10 { A[k + j] = A[k + j - 1] + 1; k = k + 5; }",
        "do j = 1, 10 { A[k + j] = j; k = k + 1; B[j] = A[k + j - 1]; "
        "A[k + j] = 2; }"}) {
    Program P = parseOrDie(Source);
    LoadElimResult R = eliminateRedundantLoads(P);
    EXPECT_EQ(R.LoadsEliminated, 0u) << Source;
    checkEquivalent(P, R.Transformed);
  }
}

TEST(LoadElimTest, CommonSubexpressionWithinIteration) {
  // Two loads of C[i] in one iteration collapse to one.
  Program P = parseOrDie(R"(
    do i = 1, 100 {
      A[i] = C[i] * 2;
      B[i] = C[i] + 1;
    })");
  LoadElimResult R = eliminateRedundantLoads(P);
  EXPECT_GE(R.LoadsEliminated, 1u);
  auto [IA, IB] = checkEquivalent(P, R.Transformed);
  EXPECT_EQ(IA.stats().ArrayLoads, 200u);
  EXPECT_EQ(IB.stats().ArrayLoads, 100u);
}

TEST(LoadElimTest, ConditionalKillBlocksReuse) {
  // The conditional def of C[i] kills availability of C[i+1]'s value on
  // one path: scalar replacement across the iteration is illegal and
  // must not happen (the flow-sensitivity claim, Section 5).
  Program P = parseOrDie(R"(
    do i = 1, 100 {
      if (B[i] > 0) { C[i] = 0; }
      y = y + C[i];
    })");
  LoadElimResult R = eliminateRedundantLoads(P);
  // Whatever was or was not rewritten, behavior must match on inputs
  // exercising both branch directions.
  auto [IA, IB] = checkEquivalent(P, R.Transformed);
  EXPECT_EQ(IA.scalar("y"), IB.scalar("y"));
}

TEST(LoadElimTest, GuardUseParticipates) {
  // The guard's use of C[i] and the body's use share one load.
  Program P = parseOrDie(R"(
    do i = 1, 100 {
      if (C[i] == 0) { A[i] = C[i] + 5; }
    })");
  LoadElimResult R = eliminateRedundantLoads(P);
  EXPECT_GE(R.LoadsEliminated, 1u);
  checkEquivalent(P, R.Transformed);
}

TEST(LoadElimTest, Fig1FullExample) {
  // All three reuse patterns of Fig. 1 at once.
  Program P = parseOrDie(R"(
    do i = 1, 1000 {
      C[i+2] = C[i] * 2;
      B[2*i] = C[i] + x;
      if (C[i] == 0) { C[i] = B[i-1]; }
      B[i] = C[i+1];
    })");
  LoadElimResult R = eliminateRedundantLoads(P);
  EXPECT_GE(R.LoadsEliminated, 3u);
  auto [IA, IB] = checkEquivalent(P, R.Transformed, {{"x", 2}});
  EXPECT_LT(IB.stats().ArrayLoads, IA.stats().ArrayLoads);
}

TEST(LoadElimTest, DeepDistanceCapRespected) {
  Program P = parseOrDie("do i = 1, 100 { A[i+20] = A[i]; }");
  LoadElimOptions Opts;
  Opts.MaxDistance = 8;
  LoadElimResult R = eliminateRedundantLoads(P, Opts);
  EXPECT_EQ(R.LoadsEliminated, 0u);
  Opts.MaxDistance = 32;
  LoadElimResult R2 = eliminateRedundantLoads(P, Opts);
  EXPECT_EQ(R2.LoadsEliminated, 1u);
  checkEquivalent(P, R2.Transformed);
}

TEST(LoadElimTest, MultipleIndependentPipelines) {
  Program P = parseOrDie(R"(
    do i = 1, 200 {
      A[i+1] = A[i] + 1;
      B[i+2] = B[i] * 2;
    })");
  LoadElimResult R = eliminateRedundantLoads(P);
  EXPECT_EQ(R.LoadsEliminated, 2u);
  auto [IA, IB] = checkEquivalent(P, R.Transformed);
  EXPECT_EQ(IB.stats().ArrayLoads, 3u); // 1 + 2 preheader fills
  (void)IA;
}

TEST(LoadElimTest, NoReuseAtOrBeyondTheTripCount) {
  // B[i - 3] reads the element B[i + 1] produced four iterations earlier,
  // but the loop runs four times, so every such read sees the preheader
  // fill -- which the conditional store B[i - 2] may overwrite one
  // iteration before the read. The framework's fact does not cover that
  // kill (the exit increment saturates a distance of trip - 2 or more to
  // every in-loop instance), so the pair must not be pipelined.
  Program P = parseOrDie(R"(
    do i = 1, 4 {
      A[i] = B[i - 3];
      C[i] = B[i + 1];
      if (C[i + 1] > 0) { B[i - 2] = 7; }
    })");
  LoadElimResult R = eliminateRedundantLoads(P);
  EXPECT_EQ(R.LoadsEliminated, 0u);
  checkEquivalent(P, R.Transformed);
}

TEST(LoadElimTest, StoreThenLoadEliminationOfAShortLoop) {
  // Seed 740 of TransformPropertyTest's UnderIf shape: store elimination
  // unpeels the last iteration, leaving a loop of trip count 4 in which
  // `B[i - 3]` would reuse `B[i + 1]` from 4 iterations earlier past the
  // conditional kill `B[i - 2] = ...`.
  Program P = parseOrDie(R"(
    if (x > -7) {
      do i = 1, 5 {
        if (A[2 * i - 1] > -53) {
          C[2 * i - 2] = B[2 * i + 3] + B[2 * i - 1] + x;
          B[2 * i + 3] = B[i - 3];
        }
        A[2 * i - 3] = A[2 * i - 3] * 3 + x;
        C[i] = A[2 * i - 3] + B[i + 1] + x;
        C[i - 2] = C[2 * i - 1] + C[i - 1];
        A[2 * i - 3] = A[i] + x;
        C[i - 1] = C[i - 1] + B[i - 3] * 2 + x;
        A[2 * i + 1] = A[i + 3];
        if (C[i + 1] > -41) {
          B[i - 2] = B[2 * i + 1] * 3;
          A[i + 1] = C[2 * i + 1];
        }
        A[i - 2] = A[2 * i - 2] + x;
      }
    })");
  Program Stored = eliminateRedundantStores(P).Transformed;
  LoadElimResult R = eliminateRedundantLoads(Stored);
  checkEquivalent(P, R.Transformed, {{"x", 1}}, 740 ^ 0xabcdef);
}

//===- tests/transform/StoreElimTest.cpp - Redundant store elimination ---===//

#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "ir/PrettyPrinter.h"
#include "transform/StoreElimination.h"

#include <gtest/gtest.h>

using namespace ardf;

namespace {

/// Runs both programs on identical inputs and compares the full array
/// state; returns the two interpreters for stat comparisons.
std::pair<Interpreter, Interpreter>
checkEquivalent(const Program &Original, const Program &Transformed,
                const std::map<std::string, int64_t> &Scalars = {},
                uint64_t Seed = 7) {
  Interpreter A(Original), B(Transformed);
  for (const auto &[Name, Value] : Scalars) {
    A.setScalar(Name, Value);
    B.setScalar(Name, Value);
  }
  A.seedArray("A", 64, Seed);
  B.seedArray("A", 64, Seed);
  A.run();
  B.run();
  EXPECT_EQ(A.state().Arrays, B.state().Arrays)
      << "original:\n"
      << programToString(Original) << "transformed:\n"
      << programToString(Transformed);
  return {std::move(A), std::move(B)};
}

} // namespace

TEST(StoreElimTest, Fig6ConditionalRedundantStore) {
  // Fig. 6: the conditional store A[i+1] is overwritten one iteration
  // later by the unconditional A[i] without an intervening use.
  Program P = parseOrDie(R"(
    do i = 1, 1000 {
      A[i] = i;
      if (x == 0) { A[i+1] = 99; }
    })");
  StoreElimResult R = eliminateRedundantStores(P);
  EXPECT_EQ(R.StoresEliminated, 1u);
  EXPECT_EQ(R.UnpeeledIterations, 1);
  ASSERT_EQ(R.Notes.size(), 1u);
  EXPECT_EQ(R.Notes[0], "A[i + 1] is 1-redundant (overwritten by A[i])");

  // Equivalent under both truth values of the condition.
  auto [A0, B0] = checkEquivalent(P, R.Transformed, {{"x", 0}});
  checkEquivalent(P, R.Transformed, {{"x", 1}});
  // And cheaper: one store per iteration saved in 999 iterations.
  EXPECT_LT(B0.stats().ArrayStores, A0.stats().ArrayStores);
  EXPECT_EQ(A0.stats().ArrayStores - B0.stats().ArrayStores, 999u);
}

TEST(StoreElimTest, SubscriptOverAssignedScalarIsNotOverwritten) {
  // k changes between the two stores, so A[k + j] = 2 writes another
  // element than A[k + j] = j, whose value B[j] reads: neither store is
  // redundant.
  for (const char *Source :
       {"do j = 1, 10 { A[k + j] = A[k + j - 1] + 1; k = k + 5; }",
        "do j = 1, 10 { A[k + j] = j; k = k + 1; B[j] = A[k + j - 1]; "
        "A[k + j] = 2; }"}) {
    Program P = parseOrDie(Source);
    StoreElimResult R = eliminateRedundantStores(P);
    EXPECT_EQ(R.StoresEliminated, 0u) << Source;
    checkEquivalent(P, R.Transformed);
  }
}

TEST(StoreElimTest, UnconditionalRedundantStore) {
  Program P = parseOrDie(R"(
    do i = 1, 100 {
      A[i+1] = 5;
      A[i] = i;
    })");
  // A[i+1] is rewritten by A[i] one iteration later; no use intervenes.
  StoreElimResult R = eliminateRedundantStores(P);
  EXPECT_EQ(R.StoresEliminated, 1u);
  checkEquivalent(P, R.Transformed);
}

TEST(StoreElimTest, InterveningUseBlocksElimination) {
  Program P = parseOrDie(R"(
    do i = 1, 100 {
      A[i] = i;
      B[i] = A[i-1];
      A[i+1] = 7;
    })");
  // The use A[i-1] reads what A[i+1] stored two iterations earlier...
  // more precisely A[i+1]@j is read at j+2 before A[i]@j+1? No: A[i]@j+1
  // overwrites cell j+1 before B[j+2] reads cell j+1. Careful analysis
  // aside, the framework must prove safety; check behavioral equality.
  StoreElimResult R = eliminateRedundantStores(P);
  checkEquivalent(P, R.Transformed);
}

TEST(StoreElimTest, UseOfStoredValueBlocks) {
  // The stored A[i] value is read one iteration later: not redundant.
  Program P = parseOrDie(R"(
    do i = 1, 100 {
      A[i] = i * 3;
      y = y + A[i-1];
      A[i+1] = 0;
    })");
  StoreElimResult R = eliminateRedundantStores(P);
  // A[i+1] is overwritten by A[i] in the next iteration BUT its cell
  // (i+1) is read by A[i-1] two iterations later -- after the overwrite,
  // so A[i+1] is still dead; A[i] itself is read, so it stays.
  checkEquivalent(P, R.Transformed);
  Interpreter IA(P), IB(R.Transformed);
  IA.run();
  IB.run();
  EXPECT_EQ(IA.scalar("y"), IB.scalar("y"));
}

TEST(StoreElimTest, SameIterationOverwrite) {
  Program P = parseOrDie(R"(
    do i = 1, 50 {
      A[i] = 1;
      A[i] = 2;
    })");
  StoreElimResult R = eliminateRedundantStores(P);
  EXPECT_EQ(R.StoresEliminated, 1u);
  EXPECT_EQ(R.UnpeeledIterations, 0);
  checkEquivalent(P, R.Transformed);
  Interpreter I(R.Transformed);
  I.run();
  EXPECT_EQ(I.stats().ArrayStores, 50u);
}

TEST(StoreElimTest, ConditionalOverwriterDoesNotKill) {
  // The future store is conditional: no all-paths guarantee, nothing
  // may be removed.
  Program P = parseOrDie(R"(
    do i = 1, 100 {
      A[i+1] = 5;
      if (x == 0) { A[i] = i; }
    })");
  StoreElimResult R = eliminateRedundantStores(P);
  EXPECT_EQ(R.StoresEliminated, 0u);
}

TEST(StoreElimTest, SymbolicBoundUnpeelsSymbolically) {
  Program P = parseOrDie(R"(
    do i = 1, N {
      A[i] = i;
      A[i+1] = 0;
    })");
  StoreElimResult R = eliminateRedundantStores(P);
  ASSERT_EQ(R.StoresEliminated, 1u);
  // Run with a concrete N on both.
  checkEquivalent(P, R.Transformed, {{"N", 37}});
  std::string Text = programToString(R.Transformed);
  EXPECT_NE(Text.find("N - 1"), std::string::npos) << Text;
}

TEST(StoreElimTest, TinyTripCountLeftAlone) {
  Program P = parseOrDie(R"(
    do i = 1, 1 {
      A[i] = i;
      A[i+1] = 0;
    })");
  StoreElimResult R = eliminateRedundantStores(P);
  checkEquivalent(P, R.Transformed);
}

//===- tests/transform/TransformPropertyTest.cpp - Randomized equivalence ===//
//
// Property-based testing of the optimization pipeline: pseudo-random
// loops are generated, transformed by store elimination, load
// elimination, unrolling, and their compositions, and each variant must
// be observationally equivalent to the original under interpretation on
// seeded memory. This is the strongest soundness net for the framework:
// any unsound preserve constant, pr predicate, or reuse distance shows
// up as a state divergence here. A second generator wraps the same
// random bodies in the loop shapes the loop-nesting tree rejects or
// reduces (early exit, rewritten induction variable, inner counted
// while, non-normalized bounds) or keeps as written (inner do, a loop
// under a top-level if): no transform may throw on them, change their
// behavior, or rewrite a loop outside the framework's model.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "ir/PrettyPrinter.h"
#include "transform/LoadElimination.h"
#include "transform/LoopUnroll.h"
#include "transform/StoreElimination.h"
#include "unroll/UnrollController.h"

#include <gtest/gtest.h>

#include <sstream>
#include <tuple>

using namespace ardf;

namespace {

/// Deterministic xorshift generator (no global state).
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed * 2654435769u + 1) {}
  uint64_t next() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  }
  int64_t range(int64_t Lo, int64_t Hi) { // inclusive
    return Lo + static_cast<int64_t>(next() % (Hi - Lo + 1));
  }
  bool chance(int Percent) { return range(1, 100) <= Percent; }
};

/// Emits one random affine reference like "A[2*i - 1]" over \p Iv.
std::string randomRef(Rng &R, char Iv = 'i') {
  static const char *Arrays[] = {"A", "B", "C"};
  const char *Name = Arrays[R.range(0, 2)];
  int64_t Coef = R.range(1, 2);
  int64_t Off = R.range(-3, 3);
  std::ostringstream OS;
  OS << Name << '[';
  if (Coef != 1)
    OS << Coef << " * ";
  OS << Iv;
  if (Off > 0)
    OS << " + " << Off;
  else if (Off < 0)
    OS << " - " << -Off;
  OS << ']';
  return OS.str();
}

std::string randomExpr(Rng &R) {
  std::ostringstream OS;
  OS << randomRef(R);
  if (R.chance(50))
    OS << " + " << randomRef(R);
  if (R.chance(30))
    OS << " * " << R.range(1, 3);
  if (R.chance(30))
    OS << " + x";
  return OS.str();
}

std::string randomStmt(Rng &R, unsigned Depth) {
  std::ostringstream OS;
  if (Depth == 0 && R.chance(30)) {
    OS << "if (" << randomRef(R) << " > " << R.range(-100, 100) << ") { "
       << randomStmt(R, 1);
    if (R.chance(40))
      OS << randomStmt(R, 1);
    OS << " }";
    if (R.chance(30))
      OS << " else { " << randomStmt(R, 1) << " }";
    return OS.str();
  }
  OS << randomRef(R) << " = " << randomExpr(R) << "; ";
  return OS.str();
}

/// Emits 2 to 6 random statements over `i`.
std::string randomBody(Rng &R) {
  std::ostringstream OS;
  unsigned NumStmts = R.range(2, 6);
  for (unsigned I = 0; I != NumStmts; ++I)
    OS << randomStmt(R, 0) << ' ';
  return OS.str();
}

std::string randomLoop(uint64_t Seed) {
  Rng R(Seed);
  std::ostringstream OS;
  OS << "do i = 1, " << R.range(5, 60) << " { " << randomBody(R) << "}";
  return OS.str();
}

/// Loop shapes around a random body, named by what the loop-nesting
/// tree makes of them.
enum class Shape {
  GuardedBreak,  // rejected: early exit
  IvAssignment,  // rejected: conditional assignment to the IV
  InnerWhile,    // reduced: the inner counted while becomes a do
  NonNormalized, // reduced: normalized bounds
  InnerDo,       // analyzed as written
  UnderIf,       // analyzed as written, outermost inside a top-level if
};

const char *shapeName(Shape S) {
  switch (S) {
  case Shape::GuardedBreak:
    return "GuardedBreak";
  case Shape::IvAssignment:
    return "IvAssignment";
  case Shape::InnerWhile:
    return "InnerWhile";
  case Shape::NonNormalized:
    return "NonNormalized";
  case Shape::InnerDo:
    return "InnerDo";
  case Shape::UnderIf:
    return "UnderIf";
  }
  return "";
}

void PrintTo(Shape S, std::ostream *OS) { *OS << shapeName(S); }

/// One random statement of an inner loop over `j`.
std::string randomInnerStmt(Rng &R) {
  return randomRef(R, 'j') + " = " + randomRef(R, 'j') + " + " +
         randomRef(R) + "; ";
}

/// A random loop of shape \p S: the flat body of randomLoop split around
/// the shape's own statements.
std::string randomShapedLoop(Shape S, uint64_t Seed) {
  Rng R(Seed);
  int64_t Trip = R.range(5, 60);
  std::string Before = randomBody(R);
  std::string After = randomBody(R);
  std::ostringstream OS;
  switch (S) {
  case Shape::GuardedBreak:
    OS << "do i = 1, " << Trip << " { " << Before << "if ("
       << randomRef(R) << " > " << R.range(-100, 100) << ") { break; } "
       << After << "}";
    break;
  case Shape::IvAssignment:
    OS << "do i = 1, " << Trip << " { " << Before << "if ("
       << randomRef(R) << " > " << R.range(-100, 100)
       << ") { i = i + 1; } " << After << "}";
    break;
  case Shape::InnerWhile:
    OS << "do i = 1, " << Trip << " { " << Before << "j = 1; while (j <= "
       << R.range(1, 4) << ") { " << randomInnerStmt(R) << "j = j + 1; } "
       << After << "}";
    break;
  case Shape::NonNormalized: {
    int64_t Lo = R.range(2, 5);
    int64_t Step = R.chance(30) ? -R.range(1, 2) : R.range(1, 3);
    int64_t Hi = Lo + Trip;
    OS << "do i = " << (Step > 0 ? Lo : Hi) << ", " << (Step > 0 ? Hi : Lo)
       << ", " << Step << " { " << Before << After << "}";
    break;
  }
  case Shape::InnerDo:
    OS << "do i = 1, " << Trip << " { " << Before << "do j = 1, "
       << R.range(1, 4) << " { " << randomInnerStmt(R) << "} " << After
       << "}";
    break;
  case Shape::UnderIf:
    OS << "if (x > " << R.range(-9, 3) << ") { do i = 1, " << Trip << " { "
       << Before << After << "} }";
    break;
  }
  return OS.str();
}

MachineState runOn(const Program &P, uint64_t Seed) {
  Interpreter I(P);
  I.setScalar("x", static_cast<int64_t>(Seed % 17) - 8);
  for (const char *Arr : {"A", "B", "C"})
    I.seedArray(Arr, 160, Seed ^ 0xabcdef);
  I.run();
  MachineState S = I.state();
  // Temporaries and induction values are implementation details; only
  // arrays are compared.
  S.Scalars.clear();
  return S;
}

class TransformProperty : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(TransformProperty, StoreEliminationPreservesState) {
  uint64_t Seed = GetParam();
  Program P = parseOrDie(randomLoop(Seed));
  StoreElimResult R = eliminateRedundantStores(P);
  EXPECT_EQ(runOn(P, Seed).Arrays, runOn(R.Transformed, Seed).Arrays)
      << programToString(P) << "--- transformed:\n"
      << programToString(R.Transformed);
}

TEST_P(TransformProperty, LoadEliminationPreservesState) {
  uint64_t Seed = GetParam();
  Program P = parseOrDie(randomLoop(Seed));
  LoadElimResult R = eliminateRedundantLoads(P);
  EXPECT_EQ(runOn(P, Seed).Arrays, runOn(R.Transformed, Seed).Arrays)
      << programToString(P) << "--- transformed:\n"
      << programToString(R.Transformed);
}

TEST_P(TransformProperty, UnrollingPreservesState) {
  uint64_t Seed = GetParam();
  Program P = parseOrDie(randomLoop(Seed));
  for (unsigned F : {2u, 3u}) {
    Program Q = unrollProgram(P, F);
    EXPECT_EQ(runOn(P, Seed).Arrays, runOn(Q, Seed).Arrays)
        << programToString(P) << "--- unrolled x" << F << ":\n"
        << programToString(Q);
  }
}

TEST_P(TransformProperty, ComposedPipelinePreservesState) {
  uint64_t Seed = GetParam();
  Program P = parseOrDie(randomLoop(Seed));
  StoreElimResult S = eliminateRedundantStores(P);
  LoadElimResult L = eliminateRedundantLoads(S.Transformed);
  EXPECT_EQ(runOn(P, Seed).Arrays, runOn(L.Transformed, Seed).Arrays)
      << programToString(P) << "--- pipeline output:\n"
      << programToString(L.Transformed);
}

TEST_P(TransformProperty, LoadEliminationNeverAddsLoads) {
  uint64_t Seed = GetParam();
  Program P = parseOrDie(randomLoop(Seed));
  LoadElimResult R = eliminateRedundantLoads(P);
  Interpreter A(P), B(R.Transformed);
  for (const char *Arr : {"A", "B", "C"}) {
    A.seedArray(Arr, 160, Seed);
    B.seedArray(Arr, 160, Seed);
  }
  A.run();
  B.run();
  // In-loop loads never increase; the only additions are the one-time
  // preheader fills (bounded by the number of temporaries introduced).
  // Sinks under never-taken conditionals can make the one-time cost
  // visible, hence the slack term.
  EXPECT_LE(B.stats().ArrayLoads,
            A.stats().ArrayLoads + R.TempsIntroduced);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformProperty,
                         ::testing::Range<uint64_t>(1, 81));

TEST(TransformNestRootTest, LoopInsideAnAlwaysBreakingLoopIsRewritten) {
  // The outer body always breaks, so its latch is unreachable and the
  // outer `do` is no loop: the inner loop is an outermost nest loop.
  Program P = parseOrDie("do k = 1, 3 { do i = 1, 20 { A[i] = i + x; "
                         "if (x == 0) { A[i+1] = 99; } B[i] = A[i-1]; } "
                         "break; }");
  const uint64_t Seed = 8; // x == 0: the conditional store runs
  StoreElimResult S = eliminateRedundantStores(P);
  LoadElimResult L = eliminateRedundantLoads(P);
  Program U = unrollProgram(P, 2);
  EXPECT_EQ(S.StoresEliminated, 1u);
  EXPECT_EQ(L.LoadsEliminated, 1u);
  EXPECT_FALSE(U.equals(P));
  for (const Program *Q : {&S.Transformed, &L.Transformed, &U})
    EXPECT_EQ(runOn(P, Seed).Arrays, runOn(*Q, Seed).Arrays)
        << programToString(*Q);
}

namespace {

class ShapedTransformProperty
    : public ::testing::TestWithParam<std::tuple<Shape, uint64_t>> {
protected:
  Shape shape() const { return std::get<0>(GetParam()); }
  uint64_t seed() const { return std::get<1>(GetParam()); }
  Program program() const {
    return parseOrDie(randomShapedLoop(shape(), seed()));
  }

  void expectSameState(const Program &P, const Program &Q,
                       const char *What) const {
    EXPECT_EQ(runOn(P, seed()).Arrays, runOn(Q, seed()).Arrays)
        << programToString(P) << "--- " << What << ":\n"
        << programToString(Q);
  }
};

} // namespace

TEST_P(ShapedTransformProperty, TransformsPreserveState) {
  Program P = program();
  StoreElimResult S = eliminateRedundantStores(P);
  expectSameState(P, S.Transformed, "store elimination");
  expectSameState(P, eliminateRedundantLoads(P).Transformed,
                  "load elimination");
  expectSameState(P, eliminateRedundantLoads(S.Transformed).Transformed,
                  "store then load elimination");
  for (unsigned F : {2u, 3u})
    expectSameState(P, unrollProgram(P, F), "unrolled");
}

TEST_P(ShapedTransformProperty, ControlledUnrollingPreservesState) {
  Program P = program();
  // Every loop, the inner ones included, gets a plan; only outermost
  // loops are unrolled by unrollProgram.
  unsigned Outer = 1;
  forEachStmt(P.getStmts(), [&](const Stmt &St) {
    const auto *Loop = dyn_cast<DoLoopStmt>(&St);
    if (!Loop)
      return;
    UnrollPlan Plan = controlUnrolling(P, *Loop);
    if (Loop->getIndVar() == "i")
      Outer = Plan.ChosenFactor;
  });
  if (Outer > 1)
    expectSameState(P, unrollProgram(P, Outer), "controlled unrolling");
}

TEST_P(ShapedTransformProperty, OnlyLoopsInTheModelAreRewritten) {
  Program P = program();
  std::string Text = programToString(P);
  std::string Stores =
      programToString(eliminateRedundantStores(P).Transformed);
  std::string Loads = programToString(eliminateRedundantLoads(P).Transformed);
  std::string Unrolled = programToString(unrollProgram(P, 2));
  switch (shape()) {
  case Shape::GuardedBreak:
  case Shape::IvAssignment:
  case Shape::NonNormalized:
    // Rejected by the nest, or reduced and not normalized for unrollLoop:
    // no transform touches the loop.
    EXPECT_EQ(Stores, Text);
    EXPECT_EQ(Loads, Text);
    EXPECT_EQ(Unrolled, Text);
    break;
  case Shape::InnerWhile:
    // Analyzed only in reduced form, which the rewrite cannot target;
    // unrolling replicates the body as written.
    EXPECT_EQ(Stores, Text);
    EXPECT_EQ(Loads, Text);
    EXPECT_NE(Unrolled, Text);
    break;
  case Shape::InnerDo:
  case Shape::UnderIf:
    EXPECT_NE(Unrolled, Text);
    break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ShapedTransformProperty,
    ::testing::Combine(::testing::Values(Shape::GuardedBreak,
                                         Shape::IvAssignment,
                                         Shape::InnerWhile,
                                         Shape::NonNormalized, Shape::InnerDo,
                                         Shape::UnderIf),
                       ::testing::Range<uint64_t>(1, 41)),
    [](const ::testing::TestParamInfo<std::tuple<Shape, uint64_t>> &Info) {
      return std::string(shapeName(std::get<0>(Info.param))) + "_" +
             std::to_string(std::get<1>(Info.param));
    });

//===- tests/interp/InterpreterTest.cpp - Interpreter semantics ----------===//

#include "frontend/Parser.h"
#include "interp/Interpreter.h"

#include <gtest/gtest.h>

#include <limits>

using namespace ardf;

TEST(InterpreterTest, SimpleLoopComputes) {
  Program P = parseOrDie("do i = 1, 10 { A[i] = i * 2; }");
  Interpreter I(P);
  I.run();
  for (int64_t K = 1; K <= 10; ++K)
    EXPECT_EQ(I.arrayCell("A", K), 2 * K);
  EXPECT_EQ(I.stats().ArrayStores, 10u);
  EXPECT_EQ(I.stats().ArrayLoads, 0u);
  EXPECT_EQ(I.stats().LoopIterations, 10u);
}

TEST(InterpreterTest, LoadsCounted) {
  Program P = parseOrDie("do i = 1, 5 { A[i+1] = A[i] + A[i]; }");
  Interpreter I(P);
  I.run();
  EXPECT_EQ(I.stats().ArrayLoads, 10u);
  EXPECT_EQ(I.stats().ArrayStores, 5u);
}

TEST(InterpreterTest, Conditionals) {
  Program P = parseOrDie(R"(
    do i = 1, 10 {
      if (i <= 5) { A[i] = 1; } else { A[i] = 2; }
    })");
  Interpreter I(P);
  I.run();
  EXPECT_EQ(I.arrayCell("A", 3), 1);
  EXPECT_EQ(I.arrayCell("A", 8), 2);
}

TEST(InterpreterTest, ScalarPresetsAndShortCircuit) {
  Program P = parseOrDie("y = x > 2 && 1 / 0 == 0; z = x > 2 || w;");
  Interpreter I(P);
  I.setScalar("x", 5);
  I.run();
  // Division by zero evaluates to 0 (defined semantics); && forced it.
  EXPECT_EQ(I.scalar("y"), 1);
  EXPECT_EQ(I.scalar("z"), 1);
}

TEST(InterpreterTest, ArithmeticWrapsInTwosComplement) {
  // Overflow wraps instead of being undefined, x / 0 is 0 and
  // INT64_MIN / -1 is INT64_MIN: the machine simulator's semantics too.
  const int64_t Max = std::numeric_limits<int64_t>::max();
  const int64_t Min = std::numeric_limits<int64_t>::min();
  Program P = parseOrDie("A[1] = big + 1; A[2] = small - 1; A[3] = big * 2;"
                         " A[4] = small / m; A[5] = small * m;"
                         " A[6] = -small; A[7] = big / 0; A[8] = small / 2;");
  Interpreter I(P);
  I.setScalar("big", Max);
  I.setScalar("small", Min);
  I.setScalar("m", -1);
  I.run();
  EXPECT_EQ(I.arrayCell("A", 1), Min);
  EXPECT_EQ(I.arrayCell("A", 2), Max);
  EXPECT_EQ(I.arrayCell("A", 3), -2);
  EXPECT_EQ(I.arrayCell("A", 4), Min);
  EXPECT_EQ(I.arrayCell("A", 5), Min);
  EXPECT_EQ(I.arrayCell("A", 6), Min);
  EXPECT_EQ(I.arrayCell("A", 7), 0);
  EXPECT_EQ(I.arrayCell("A", 8), Min / 2);
}

TEST(InterpreterTest, RecurrencePropagatesValues) {
  // Fibonacci-ish through memory.
  Program P = parseOrDie("A[1] = 1; A[2] = 1; "
                         "do i = 3, 10 { A[i] = A[i-1] + A[i-2]; }");
  Interpreter I(P);
  I.run();
  EXPECT_EQ(I.arrayCell("A", 10), 55);
}

TEST(InterpreterTest, MultiDimFlattening) {
  Program P = parseOrDie("array X[4, 8];\n"
                         "do i = 1, 3 { X[i, 2] = i; }");
  Interpreter I(P);
  I.run();
  // Row-major: X[i, 2] -> i * 8 + 2.
  EXPECT_EQ(I.arrayCell("X", 1 * 8 + 2), 1);
  EXPECT_EQ(I.arrayCell("X", 3 * 8 + 2), 3);
}

TEST(InterpreterTest, NegativeIndicesWork) {
  Program P = parseOrDie("do i = 1, 3 { A[i - 2] = i; }");
  Interpreter I(P);
  I.run();
  EXPECT_EQ(I.arrayCell("A", -1), 1);
  EXPECT_EQ(I.arrayCell("A", 0), 2);
}

TEST(InterpreterTest, SeededArrayDeterministic) {
  Program P = parseOrDie("x = 0;");
  Interpreter A(P), B(P);
  A.seedArray("D", 100, 42);
  B.seedArray("D", 100, 42);
  for (int64_t K = 0; K != 100; ++K)
    EXPECT_EQ(A.arrayCell("D", K), B.arrayCell("D", K));
  Interpreter C(P);
  C.seedArray("D", 100, 43);
  bool AnyDiff = false;
  for (int64_t K = 0; K != 100; ++K)
    AnyDiff |= A.arrayCell("D", K) != C.arrayCell("D", K);
  EXPECT_TRUE(AnyDiff);
}

TEST(InterpreterTest, DownwardLoop) {
  Program P = parseOrDie("do i = 5, 1, -1 { A[i] = 6 - i; }");
  Interpreter I(P);
  I.run();
  EXPECT_EQ(I.arrayCell("A", 1), 5);
  EXPECT_EQ(I.arrayCell("A", 5), 1);
  EXPECT_EQ(I.stats().LoopIterations, 5u);
}

TEST(InterpreterTest, SymbolicUpperBound) {
  Program P = parseOrDie("do i = 1, N { A[i] = 1; }");
  Interpreter I(P);
  I.setScalar("N", 7);
  I.run();
  EXPECT_EQ(I.stats().ArrayStores, 7u);
}

TEST(InterpreterTest, MachineStateEquality) {
  Program P = parseOrDie("do i = 1, 4 { A[i] = i; }");
  Interpreter A(P), B(P);
  A.run();
  B.run();
  EXPECT_EQ(A.state().Arrays, B.state().Arrays);
}

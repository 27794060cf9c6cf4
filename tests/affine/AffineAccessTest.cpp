//===- tests/affine/AffineAccessTest.cpp - Affine subscript views --------===//

#include "affine/AffineAccess.h"
#include "frontend/Parser.h"
#include "ir/IRBuilder.h"
#include "lattice/Distance.h"

#include <gtest/gtest.h>

using namespace ardf;

namespace {

/// Parses a single assignment and returns its target reference.
const ArrayRefExpr *targetOf(const Program &P) {
  const auto *AS = cast<AssignStmt>(P.getStmts().back().get());
  return AS->getArrayTarget();
}

} // namespace

TEST(AffineAccessTest, EvalToPoly) {
  Program P = parseOrDie("x = 2 * i + b - 1;");
  const auto *AS = cast<AssignStmt>(P.getStmts()[0].get());
  std::optional<Poly> Poly = evalToPoly(*AS->getRHS());
  ASSERT_TRUE(Poly.has_value());
  EXPECT_EQ(Poly->getCoeff(Monomial{"i"}), 2);
  EXPECT_EQ(Poly->getCoeff(Monomial{"b"}), 1);
  EXPECT_EQ(Poly->getCoeff(Monomial{}), -1);
}

TEST(AffineAccessTest, EvalRejectsArrayRefsAndComparisons) {
  Program P = parseOrDie("x = A[i] + 1; y = i == 0;");
  EXPECT_FALSE(
      evalToPoly(*cast<AssignStmt>(P.getStmts()[0].get())->getRHS()));
  EXPECT_FALSE(
      evalToPoly(*cast<AssignStmt>(P.getStmts()[1].get())->getRHS()));
}

TEST(AffineAccessTest, ExactDivisionOnly) {
  Program P = parseOrDie("x = (4 * i + 2) / 2; y = i / 2;");
  std::optional<Poly> Exact =
      evalToPoly(*cast<AssignStmt>(P.getStmts()[0].get())->getRHS());
  ASSERT_TRUE(Exact.has_value());
  EXPECT_EQ(Exact->getCoeff(Monomial{"i"}), 2);
  EXPECT_FALSE(
      evalToPoly(*cast<AssignStmt>(P.getStmts()[1].get())->getRHS()));
}

TEST(AffineAccessTest, OneDimensionalAffine) {
  Program P = parseOrDie("A[2 * i + 3] = 0;");
  std::optional<AffineAccess> A = makeAffineAccess(*targetOf(P), P, "i");
  ASSERT_TRUE(A.has_value());
  EXPECT_EQ(A->Array, "A");
  EXPECT_EQ(A->A, Poly::constant(2));
  EXPECT_EQ(A->B, Poly::constant(3));
  EXPECT_FALSE(A->isLoopInvariant());
}

TEST(AffineAccessTest, LoopInvariantReference) {
  Program P = parseOrDie("A[5] = 0;");
  std::optional<AffineAccess> A = makeAffineAccess(*targetOf(P), P, "i");
  ASSERT_TRUE(A.has_value());
  EXPECT_TRUE(A->isLoopInvariant());
  EXPECT_EQ(A->B, Poly::constant(5));
}

TEST(AffineAccessTest, NonAffineRejected) {
  Program P = parseOrDie("A[i * i] = 0;");
  EXPECT_FALSE(makeAffineAccess(*targetOf(P), P, "i").has_value());
}

TEST(AffineAccessTest, MultiDimLinearizationMatchesFig4) {
  // X[i+1, j] with first-dimension size N linearizes to N*i + N + j.
  Program P = parseOrDie("array X[N, N];\nX[i + 1, j] = X[i, j];");
  std::optional<Poly> Lin = linearizeSubscripts(*targetOf(P), P);
  ASSERT_TRUE(Lin.has_value());
  Poly Expected = Poly::symbol("N") * Poly::symbol("i") + Poly::symbol("N") +
                  Poly::symbol("j");
  EXPECT_EQ(*Lin, Expected);

  // Affine in i: A = N, B = N + j (j is an enclosing-loop symbolic).
  std::optional<AffineAccess> A = makeAffineAccess(*targetOf(P), P, "i");
  ASSERT_TRUE(A.has_value());
  EXPECT_EQ(A->A, Poly::symbol("N"));
  EXPECT_EQ(A->B, Poly::symbol("N") + Poly::symbol("j"));
}

TEST(AffineAccessTest, MultiDimWithoutDeclRejected) {
  Program P = parseOrDie("X[i, j] = 0;");
  EXPECT_FALSE(linearizeSubscripts(*targetOf(P), P).has_value());
}

TEST(AffineAccessTest, ConstantReuseDistanceSimple) {
  // A[i+2] defines what A[i] uses two iterations later.
  Program P = parseOrDie("A[i + 2] = A[i];");
  const auto *AS = cast<AssignStmt>(P.getStmts()[0].get());
  const auto *Use = cast<ArrayRefExpr>(AS->getRHS());
  AffineAccess Def = *makeAffineAccess(*AS->getArrayTarget(), P, "i");
  AffineAccess UseA = *makeAffineAccess(*Use, P, "i");
  std::optional<Rational> D = constantReuseDistance(Def, UseA);
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(*D, Rational(2));
}

TEST(AffineAccessTest, ConstantReuseDistanceSymbolicFig4) {
  // X[i+1, j] -> X[i, j]: delta = N / N = 1 even with symbolic N.
  Program P = parseOrDie("array X[N, N];\nX[i + 1, j] = X[i, j];");
  const auto *AS = cast<AssignStmt>(P.getStmts().back().get());
  const auto *Use = cast<ArrayRefExpr>(AS->getRHS());
  AffineAccess Def = *makeAffineAccess(*AS->getArrayTarget(), P, "i");
  AffineAccess UseA = *makeAffineAccess(*Use, P, "i");
  std::optional<Rational> D = constantReuseDistance(Def, UseA);
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(*D, Rational(1));
}

TEST(AffineAccessTest, NoConstantDistanceForCoupledSubscripts) {
  // Z[i+1, j] vs Z[i, j-1] w.r.t. i alone: B differs by j-dependence.
  Program P = parseOrDie("array Z[N, N];\nZ[i + 1, j] = Z[i, j - 1];");
  const auto *AS = cast<AssignStmt>(P.getStmts().back().get());
  const auto *Use = cast<ArrayRefExpr>(AS->getRHS());
  AffineAccess Def = *makeAffineAccess(*AS->getArrayTarget(), P, "i");
  AffineAccess UseA = *makeAffineAccess(*Use, P, "i");
  EXPECT_FALSE(constantReuseDistance(Def, UseA).has_value());
}

TEST(AffineAccessTest, DifferentArraysNeverReuse) {
  Program P = parseOrDie("A[i] = B[i];");
  const auto *AS = cast<AssignStmt>(P.getStmts()[0].get());
  AffineAccess Def = *makeAffineAccess(*AS->getArrayTarget(), P, "i");
  AffineAccess UseA =
      *makeAffineAccess(*cast<ArrayRefExpr>(AS->getRHS()), P, "i");
  EXPECT_FALSE(constantReuseDistance(Def, UseA).has_value());
}

TEST(AffineAccessTest, ToStringForms) {
  Program P = parseOrDie("A[2 * i + 3] = 0;");
  AffineAccess A = *makeAffineAccess(*targetOf(P), P, "i");
  EXPECT_EQ(A.toString("i"), "A[(2)*i + 3]");
  Program Q = parseOrDie("B[7] = 0;");
  AffineAccess BInv = *makeAffineAccess(*targetOf(Q), Q, "i");
  EXPECT_EQ(BInv.toString("i"), "B[7]");
}

TEST(AffineAccessTest, OverflowIsNonAffineOrConservative) {
  // A subscript whose polynomial leaves int64 is not affine.
  Program Wide = parseOrDie("A[9000000000000000000 + 9000000000000000000] = 0;"
                            "A[-(0 - 9223372036854775807 - 1) * i] = 0;");
  for (const StmtPtr &S : Wide.getStmts())
    EXPECT_FALSE(makeAffineAccess(
        *cast<AssignStmt>(S.get())->getArrayTarget(), Wide, "i"));

  // Two subscripts that fit, with a difference that does not: no
  // constant reuse distance, and an overlap assumed at distance Pr.
  Program P = parseOrDie("A[i + 9000000000000000000] = 1;"
                         "A[i - 9000000000000000000] = 2;");
  std::optional<AffineAccess> Hi = makeAffineAccess(
      *cast<AssignStmt>(P.getStmts()[0].get())->getArrayTarget(), P, "i");
  std::optional<AffineAccess> Lo = makeAffineAccess(
      *cast<AssignStmt>(P.getStmts()[1].get())->getArrayTarget(), P, "i");
  ASSERT_TRUE(Hi && Lo);
  EXPECT_FALSE(constantReuseDistance(*Hi, *Lo));
  EXPECT_FALSE(constantReuseDistance(*Lo, *Hi));
  for (int64_t Pr : {0, 1}) {
    EXPECT_EQ(minOverlapDistance(*Hi, *Lo, Pr, 100), Pr);
    EXPECT_EQ(minOverlapDistance(*Lo, *Hi, Pr, UnknownTripCount), Pr);
  }
  // Each still reuses itself.
  EXPECT_EQ(constantReuseDistance(*Hi, *Hi), Rational(0));
}

//===- tests/affine/PolyTest.cpp - Polynomial algebra --------------------===//

#include "affine/AffineAccess.h"
#include "affine/Poly.h"
#include "frontend/Parser.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <stdexcept>

using namespace ardf;

namespace {

Poly sym(const char *S) { return Poly::symbol(S); }

/// Values of the sweep's symbols N, i and j.
struct Point {
  int64_t N, I, J;

  int64_t of(const std::string &Name) const {
    return Name == "N" ? N : Name == "i" ? I : J;
  }
};

/// Every monomial over {N, i, j} up to degree 4 (the product of two
/// degree-2 sweep polynomials), as sorted multisets.
std::vector<Monomial> monomialsUpTo4() {
  const char *Names[] = {"N", "i", "j"};
  std::vector<Monomial> Out{Monomial()};
  for (size_t Begin = 0, Degree = 1; Degree <= 4; ++Degree) {
    size_t End = Out.size();
    for (size_t K = Begin; K != End; ++K)
      for (const char *Name : Names)
        if (Out[K].empty() || Out[K].back() <= Name) {
          Monomial M = Out[K];
          M.push_back(Name);
          Out.push_back(std::move(M));
        }
    Begin = End;
  }
  return Out;
}

/// P at \p X, summed from its coefficients; fails the test if P has a
/// term outside monomialsUpTo4().
int64_t evalAt(const Poly &P, const Point &X) {
  static const std::vector<Monomial> All = monomialsUpTo4();
  EXPECT_LE(P.degree(), 4u);
  for (const std::string &Name : P.symbols())
    EXPECT_TRUE(Name == "N" || Name == "i" || Name == "j") << Name;
  int64_t Sum = 0;
  for (const Monomial &M : All) {
    int64_t Term = P.getCoeff(M);
    for (const std::string &Name : M)
      Term *= X.of(Name);
    Sum += Term;
  }
  return Sum;
}

/// A random polynomial over {N, i, j} with coefficients in [-9, 9] and
/// degree at most 2, built through the public API, and the value its
/// terms give at \p X (computed without Poly).
struct Sample {
  Poly P;
  std::map<Monomial, int64_t> Terms;

  int64_t at(const Point &X) const {
    int64_t Sum = 0;
    for (const auto &[M, C] : Terms) {
      int64_t Term = C;
      for (const std::string &Name : M)
        Term *= X.of(Name);
      Sum += Term;
    }
    return Sum;
  }
};

Sample randomPoly(std::mt19937_64 &Rng) {
  const char *Names[] = {"N", "i", "j"};
  std::uniform_int_distribution<int> NumTerms(0, 4), Degree(0, 2),
      Name(0, 2), Coeff(-9, 9);
  Sample S;
  for (int T = NumTerms(Rng); T != 0; --T) {
    int64_t C = Coeff(Rng);
    Poly Term = Poly::constant(C);
    Monomial M;
    for (int D = Degree(Rng); D != 0; --D) {
      const char *N = Names[Name(Rng)];
      Term = Term * sym(N);
      M.push_back(N);
    }
    std::sort(M.begin(), M.end());
    S.P = S.P + Term;
    S.Terms[M] += C;
  }
  return S;
}

Point randomPoint(std::mt19937_64 &Rng) {
  std::uniform_int_distribution<int64_t> V(-5, 5);
  return Point{V(Rng), V(Rng), V(Rng)};
}

} // namespace

TEST(PolyTest, ConstantsAndZero) {
  EXPECT_TRUE(Poly().isZero());
  EXPECT_TRUE(Poly::constant(0).isZero());
  Poly C = Poly::constant(7);
  EXPECT_TRUE(C.isConstant());
  EXPECT_EQ(C.getConstant(), 7);
  EXPECT_FALSE(sym("i").isConstant());
}

TEST(PolyTest, AdditionCancels) {
  Poly P = sym("i") + Poly::constant(2);
  Poly Q = P - sym("i");
  EXPECT_TRUE(Q.isConstant());
  EXPECT_EQ(Q.getConstant(), 2);
  EXPECT_TRUE((P - P).isZero());
}

TEST(PolyTest, Multiplication) {
  // (i + 1) * (i + 2) = i^2 + 3i + 2.
  Poly P = (sym("i") + Poly::constant(1)) * (sym("i") + Poly::constant(2));
  EXPECT_EQ(P.getCoeff(Monomial{"i", "i"}), 1);
  EXPECT_EQ(P.getCoeff(Monomial{"i"}), 3);
  EXPECT_EQ(P.getCoeff(Monomial{}), 2);
  EXPECT_EQ(P.degree(), 2u);
}

TEST(PolyTest, MonomialSortingIsCanonical) {
  Poly P = sym("a") * sym("b");
  Poly Q = sym("b") * sym("a");
  EXPECT_EQ(P, Q);
}

TEST(PolyTest, ScaledAndDividedBy) {
  Poly P = sym("i").scaled(4) + Poly::constant(6);
  std::optional<Poly> Half = P.dividedBy(2);
  ASSERT_TRUE(Half.has_value());
  EXPECT_EQ(Half->getCoeff(Monomial{"i"}), 2);
  EXPECT_EQ(Half->getCoeff(Monomial{}), 3);
  EXPECT_FALSE(P.dividedBy(4).has_value());
}

TEST(PolyTest, RatioToDetectsProportionality) {
  Poly N = sym("N");
  EXPECT_EQ(N.ratioTo(N), Rational(1));
  EXPECT_EQ(N.scaled(2).ratioTo(N), Rational(2));
  EXPECT_EQ(N.ratioTo(N.scaled(2)), Rational(1, 2));
  EXPECT_EQ(Poly().ratioTo(N), Rational(0));
  EXPECT_FALSE((N + Poly::constant(1)).ratioTo(N).has_value());
  EXPECT_FALSE(sym("M").ratioTo(N).has_value());
  // Mixed: (2N + 2) / (N + 1) == 2.
  Poly A = N.scaled(2) + Poly::constant(2);
  Poly B = N + Poly::constant(1);
  EXPECT_EQ(A.ratioTo(B), Rational(2));
}

TEST(PolyTest, SplitAffine) {
  // N*i + j + 3 w.r.t. i: A = N, B = j + 3.
  Poly P = sym("N") * sym("i") + sym("j") + Poly::constant(3);
  auto Split = P.splitAffine("i");
  ASSERT_TRUE(Split.has_value());
  EXPECT_EQ(Split->first, sym("N"));
  EXPECT_EQ(Split->second, sym("j") + Poly::constant(3));

  // i*i is not affine in i.
  EXPECT_FALSE((sym("i") * sym("i")).splitAffine("i").has_value());

  // But affine in an absent symbol: A = 0.
  auto Split2 = (sym("i") * sym("i")).splitAffine("j");
  ASSERT_TRUE(Split2.has_value());
  EXPECT_TRUE(Split2->first.isZero());
}

TEST(PolyTest, Substitution) {
  // (i + 1) with i := j + 2 gives j + 3.
  Poly P = sym("i") + Poly::constant(1);
  Poly Q = P.substituted("i", sym("j") + Poly::constant(2));
  EXPECT_EQ(Q, sym("j") + Poly::constant(3));
  // N*i with i := 2 gives 2N.
  Poly R = (sym("N") * sym("i")).substituted("i", Poly::constant(2));
  EXPECT_EQ(R, sym("N").scaled(2));
}

TEST(PolyTest, SymbolsAndMentions) {
  Poly P = sym("N") * sym("i") + sym("j");
  EXPECT_TRUE(P.mentions("N"));
  EXPECT_TRUE(P.mentions("j"));
  EXPECT_FALSE(P.mentions("k"));
  std::vector<std::string> Syms = P.symbols();
  EXPECT_EQ(Syms.size(), 3u);
}

TEST(PolyTest, Printing) {
  EXPECT_EQ(Poly().toString(), "0");
  EXPECT_EQ(Poly::constant(-3).toString(), "-3");
  Poly P = sym("N") * sym("i") + sym("j") - Poly::constant(1);
  EXPECT_EQ(P.toString(), "N*i + j - 1");
  EXPECT_EQ((sym("i").scaled(2)).toString(), "2*i");
}

TEST(PolyTest, PrintingGoldens) {
  Poly P = Poly::constant(2) * sym("N") * sym("i") + sym("j") -
           Poly::constant(1);
  EXPECT_EQ(P.toString(), "2*N*i + j - 1");
  EXPECT_EQ((Poly::constant(3) - sym("i")).toString(), "-i + 3");
  EXPECT_EQ((sym("i") - sym("i")).toString(), "0");
  EXPECT_EQ(Poly::constant(INT64_MIN).toString(), "-9223372036854775808");
}

TEST(PolyTest, CoefficientOverflowThrows) {
  const int64_t Big = 9000000000000000000;
  Poly C = Poly::constant(Big);
  Poly I = sym("i").scaled(Big);
  Poly Min = Poly::constant(INT64_MIN);
  EXPECT_THROW(C + C, std::overflow_error);
  EXPECT_THROW(C - -C, std::overflow_error);
  EXPECT_THROW(I + I, std::overflow_error);
  EXPECT_THROW(I - -I, std::overflow_error);
  EXPECT_THROW(C * C, std::overflow_error);
  EXPECT_THROW(I * sym("j").scaled(2), std::overflow_error);
  EXPECT_THROW(I.scaled(2), std::overflow_error);
  EXPECT_THROW(-Min, std::overflow_error);
  EXPECT_THROW(sym("i") - Min, std::overflow_error);
  EXPECT_THROW(Min.dividedBy(-1), std::overflow_error);
  EXPECT_THROW(Min.ratioTo(Poly::constant(-1)), std::overflow_error);
  // Results at the edge of the range are exact.
  EXPECT_EQ((C - C).toString(), "0");
  EXPECT_EQ(Min.dividedBy(2), Poly::constant(INT64_MIN / 2));
  EXPECT_EQ(Min.ratioTo(Poly::constant(1)), Rational(INT64_MIN));
  EXPECT_EQ((-Poly::constant(INT64_MAX)).getConstant(), -INT64_MAX);
}

TEST(PolyTest, PropertySweep) {
  std::mt19937_64 Rng(20260);
  for (int Round = 0; Round != 400; ++Round) {
    Sample A = randomPoly(Rng), B = randomPoly(Rng), C = randomPoly(Rng);
    std::uniform_int_distribution<int64_t> Factor(-9, 9);
    int64_t K = Factor(Rng);
    Poly Sum = A.P + B.P, Diff = A.P - B.P, Prod = A.P * B.P,
         Scaled = A.P.scaled(K), Subst = A.P.substituted("i", B.P);
    for (int Trial = 0; Trial != 4; ++Trial) {
      Point X = randomPoint(Rng);
      int64_t VA = A.at(X), VB = B.at(X);
      ASSERT_EQ(evalAt(A.P, X), VA) << A.P;
      EXPECT_EQ(evalAt(Sum, X), VA + VB) << A.P << " + " << B.P;
      EXPECT_EQ(evalAt(Diff, X), VA - VB) << A.P << " - " << B.P;
      EXPECT_EQ(evalAt(Prod, X), VA * VB) << A.P << " * " << B.P;
      EXPECT_EQ(evalAt(Scaled, X), VA * K) << A.P << " scaled " << K;
      Point Y = X;
      Y.I = VB;
      EXPECT_EQ(evalAt(Subst, X), A.at(Y)) << A.P << " [i := " << B.P << "]";
    }

    // Affine split and recombination.
    auto Split = A.P.splitAffine("i");
    if (Split) {
      EXPECT_FALSE(Split->first.mentions("i")) << A.P;
      EXPECT_FALSE(Split->second.mentions("i")) << A.P;
      EXPECT_EQ(Split->first * sym("i") + Split->second, A.P);
    } else {
      EXPECT_NE(A.P.getCoeff(Monomial{"i", "i"}), 0) << A.P;
    }

    // Cancellation and operand order.
    EXPECT_TRUE((A.P - A.P).isZero()) << A.P;
    EXPECT_TRUE((A.P + -A.P).isZero()) << A.P;
    EXPECT_EQ(A.P + B.P - B.P, A.P);
    EXPECT_EQ(A.P + B.P, B.P + A.P);
    EXPECT_EQ(A.P * B.P, B.P * A.P);
    EXPECT_EQ((A.P + B.P) + C.P, A.P + (B.P + C.P));
    EXPECT_EQ((A.P * B.P) * C.P, A.P * (B.P * C.P));
    EXPECT_EQ(A.P * (B.P + C.P), A.P * B.P + A.P * C.P);

    // The printed form parses back to the same polynomial.
    std::string Text = A.P.toString();
    ParseResult Parsed = parseProgram("A[" + Text + "] = 0;");
    ASSERT_TRUE(Parsed.succeeded()) << Text;
    const auto *AS = cast<AssignStmt>(Parsed.Prog.getStmts().back().get());
    EXPECT_EQ(evalToPoly(*AS->getArrayTarget()->getSubscript(0)), A.P)
        << Text;
  }
}

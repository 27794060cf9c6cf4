//===- tests/support/RationalTest.cpp - Exact rational arithmetic --------===//

#include "support/Rational.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

using namespace ardf;

TEST(RationalTest, Normalization) {
  Rational R(6, 4);
  EXPECT_EQ(R.numerator(), 3);
  EXPECT_EQ(R.denominator(), 2);
  Rational N(3, -6);
  EXPECT_EQ(N.numerator(), -1);
  EXPECT_EQ(N.denominator(), 2);
  Rational Z(0, -7);
  EXPECT_EQ(Z.numerator(), 0);
  EXPECT_EQ(Z.denominator(), 1);
}

TEST(RationalTest, IntegerPredicates) {
  EXPECT_TRUE(Rational(4, 2).isInteger());
  EXPECT_EQ(Rational(4, 2).asInteger(), 2);
  EXPECT_FALSE(Rational(1, 2).isInteger());
}

TEST(RationalTest, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).floor(), 3);
  EXPECT_EQ(Rational(7, 2).ceil(), 4);
  EXPECT_EQ(Rational(-7, 2).floor(), -4);
  EXPECT_EQ(Rational(-7, 2).ceil(), -3);
  EXPECT_EQ(Rational(6, 2).floor(), 3);
  EXPECT_EQ(Rational(6, 2).ceil(), 3);
  EXPECT_EQ(Rational(-6, 2).floor(), -3);
  EXPECT_EQ(Rational(-6, 2).ceil(), -3);
  EXPECT_EQ(Rational(0).floor(), 0);
  EXPECT_EQ(Rational(0).ceil(), 0);
}

TEST(RationalTest, Arithmetic) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
  EXPECT_EQ(Rational(2, 3) * Rational(3, 4), Rational(1, 2));
  EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational(2));
  EXPECT_EQ(-Rational(1, 2), Rational(-1, 2));
}

TEST(RationalTest, Ordering) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(0));
  EXPECT_GE(Rational(5, 5), Rational(1));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_GT(Rational(3, 2), Rational(1));
}

TEST(RationalTest, Printing) {
  std::ostringstream OS;
  OS << Rational(3, 2) << ' ' << Rational(4, 2);
  EXPECT_EQ(OS.str(), "3/2 2");
}

// Property-style sweep: floor/ceil bracket the value and agree on
// integers, for a grid of numerators and denominators.
TEST(RationalTest, FloorCeilBracketProperty) {
  for (int64_t N = -20; N <= 20; ++N) {
    for (int64_t D = 1; D <= 7; ++D) {
      Rational R(N, D);
      EXPECT_LE(Rational(R.floor()), R);
      EXPECT_GE(Rational(R.ceil()), R);
      EXPECT_LE(R.ceil() - R.floor(), 1);
      if (R.isInteger())
        EXPECT_EQ(R.floor(), R.ceil());
      else
        EXPECT_EQ(R.ceil(), R.floor() + 1);
    }
  }
}

TEST(RationalTest, OverflowThrowsAndComparisonsAreExact) {
  EXPECT_THROW(Rational(INT64_MIN, -1), std::overflow_error);
  EXPECT_THROW(Rational(1, INT64_MIN), std::overflow_error);
  EXPECT_THROW(-Rational(INT64_MIN), std::overflow_error);
  EXPECT_THROW(Rational(INT64_MAX) + Rational(1), std::overflow_error);
  EXPECT_THROW(Rational(INT64_MIN) - Rational(1), std::overflow_error);
  EXPECT_THROW(Rational(INT64_MAX) * Rational(2), std::overflow_error);
  EXPECT_THROW(Rational(INT64_MAX) / Rational(1, 2), std::overflow_error);
  EXPECT_EQ(Rational(INT64_MIN, 2).numerator(), INT64_MIN / 2);
  EXPECT_EQ(Rational(INT64_MIN, 1).numerator(), INT64_MIN);
  EXPECT_EQ(Rational(INT64_MIN, INT64_MIN / 4).numerator(), 4);
  EXPECT_EQ(Rational(INT64_MIN).floor(), INT64_MIN);
  EXPECT_LT(Rational(INT64_MAX - 1, INT64_MAX), Rational(1));
  EXPECT_LT(Rational(INT64_MIN), Rational(INT64_MAX));
  EXPECT_GT(Rational(INT64_MAX, 2), Rational(INT64_MAX - 2, 2));
}

//===- support/Rational.cpp - Exact rational arithmetic ------------------===//

#include "support/Rational.h"

#include <numeric>
#include <ostream>

using namespace ardf;

namespace {

/// |V| in uint64_t, where INT64_MIN has one.
uint64_t magnitude(int64_t V) {
  return V < 0 ? 0 - static_cast<uint64_t>(V) : static_cast<uint64_t>(V);
}

} // namespace

Rational::Rational(int64_t N, int64_t D) {
  assert(D != 0 && "rational with zero denominator");
  // Reduce the magnitudes first, then sign the numerator: the value
  // overflows only if a reduced magnitude is 2^63 (a positive numerator
  // or any denominator).
  uint64_t MagN = magnitude(N), MagD = magnitude(D);
  uint64_t G = std::gcd(MagN, MagD);
  MagN /= G;
  MagD /= G;
  bool Negative = (N < 0) != (D < 0);
  if (MagD > INT64_MAX || MagN > uint64_t(INT64_MAX) + Negative)
    throwInt64Overflow();
  Num = static_cast<int64_t>(Negative ? 0 - MagN : MagN);
  Den = static_cast<int64_t>(MagD);
}

int64_t Rational::floor() const {
  if (Num >= 0 || Num % Den == 0)
    return Num / Den;
  return Num / Den - 1;
}

int64_t Rational::ceil() const {
  if (Num <= 0 || Num % Den == 0)
    return Num / Den;
  return Num / Den + 1;
}

Rational Rational::operator+(const Rational &RHS) const {
  int64_t N = checkedAdd(checkedMul(Num, RHS.Den), checkedMul(RHS.Num, Den));
  return Rational(N, checkedMul(Den, RHS.Den));
}

Rational Rational::operator-(const Rational &RHS) const {
  int64_t N = checkedSub(checkedMul(Num, RHS.Den), checkedMul(RHS.Num, Den));
  return Rational(N, checkedMul(Den, RHS.Den));
}

Rational Rational::operator*(const Rational &RHS) const {
  return Rational(checkedMul(Num, RHS.Num), checkedMul(Den, RHS.Den));
}

Rational Rational::operator/(const Rational &RHS) const {
  assert(RHS.Num != 0 && "rational division by zero");
  return Rational(checkedMul(Num, RHS.Den), checkedMul(Den, RHS.Num));
}

bool Rational::operator<(const Rational &RHS) const {
  // Cross products of two int64 values always fit in 128 bits.
  return static_cast<__int128>(Num) * RHS.Den <
         static_cast<__int128>(RHS.Num) * Den;
}

std::ostream &ardf::operator<<(std::ostream &OS, const Rational &R) {
  OS << R.numerator();
  if (!R.isInteger())
    OS << '/' << R.denominator();
  return OS;
}

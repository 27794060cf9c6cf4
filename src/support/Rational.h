//===- support/Rational.h - Exact rational arithmetic ----------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa,
// "A Practical Data Flow Framework for Array Reference Analysis and its
// Use in Optimizations", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact rational numbers over int64, used by the preserve-constant
/// computation of the data flow framework (Section 3.1.2 of the paper),
/// where the kill-distance function k(i) = (P*i + Q) / R must be evaluated
/// without rounding error.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_SUPPORT_RATIONAL_H
#define ARDF_SUPPORT_RATIONAL_H

#include "support/CheckedArith.h"

#include <cassert>
#include <cstdint>
#include <iosfwd>

namespace ardf {

/// An exact rational number Num/Den with Den > 0 and gcd(Num, Den) == 1.
///
/// Construction and arithmetic are overflow-checked: they throw
/// std::overflow_error (support/CheckedArith.h) when a numerator or
/// denominator leaves the int64 range. Comparisons are exact and never
/// throw. Subscript coefficients of source programs reach any int64
/// value, so the analysis catches the error and answers conservatively.
class Rational {
public:
  /// Constructs the rational zero.
  Rational() : Num(0), Den(1) {}

  /// Constructs the integer \p N.
  Rational(int64_t N) : Num(N), Den(1) {}

  /// Constructs \p N / \p D; \p D must be nonzero.
  Rational(int64_t N, int64_t D);

  int64_t numerator() const { return Num; }
  int64_t denominator() const { return Den; }

  /// Returns true if this rational is an integer.
  bool isInteger() const { return Den == 1; }

  /// Returns the largest integer <= this value.
  int64_t floor() const;

  /// Returns the smallest integer >= this value.
  int64_t ceil() const;

  /// Returns the integer value; asserts unless isInteger().
  int64_t asInteger() const {
    assert(isInteger() && "rational is not an integer");
    return Num;
  }

  Rational operator+(const Rational &RHS) const;
  Rational operator-(const Rational &RHS) const;
  Rational operator*(const Rational &RHS) const;
  Rational operator/(const Rational &RHS) const;
  Rational operator-() const { return Rational(checkedNeg(Num), Den); }

  bool operator==(const Rational &RHS) const {
    return Num == RHS.Num && Den == RHS.Den;
  }
  bool operator!=(const Rational &RHS) const { return !(*this == RHS); }
  bool operator<(const Rational &RHS) const;
  bool operator<=(const Rational &RHS) const { return !(RHS < *this); }
  bool operator>(const Rational &RHS) const { return RHS < *this; }
  bool operator>=(const Rational &RHS) const { return !(*this < RHS); }

private:
  int64_t Num;
  int64_t Den;
};

/// Prints "Num/Den" (or just "Num" for integers).
std::ostream &operator<<(std::ostream &OS, const Rational &R);

} // namespace ardf

#endif // ARDF_SUPPORT_RATIONAL_H

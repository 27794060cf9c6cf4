//===- affine/Poly.h - Multivariate integer polynomials --------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sparse multivariate polynomials with integer coefficients over symbolic
/// constants and induction variables. Subscript expressions evaluate to
/// Poly values; linearizing a multi-dimensional reference X[f1(i), f2(i)]
/// multiplies subscripts by (symbolic) dimension sizes, producing terms
/// such as N*i (Section 3.6 of the paper). The affine decomposition
/// a*iv + b with symbolic a and b is computed from a Poly.
///
/// Representation: the constant term is an inline int64_t and the other
/// terms form one vector sorted by monomial, with no zero coefficient.
/// A constant -- every coefficient and offset of a constant-coefficient
/// subscript after splitAffine -- therefore owns no heap memory, and
/// arithmetic over constants allocates nothing. Every coefficient
/// operation is overflow-checked: a result outside int64 throws
/// std::overflow_error (support/CheckedArith.h).
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_AFFINE_POLY_H
#define ARDF_AFFINE_POLY_H

#include "support/Rational.h"

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace ardf {

/// A monomial: a sorted multiset of symbol names. The empty monomial is
/// the constant term.
using Monomial = std::vector<std::string>;

/// A sparse multivariate polynomial with int64 coefficients. Operations
/// whose exact coefficients leave the int64 range throw
/// std::overflow_error.
class Poly {
public:
  /// The zero polynomial.
  Poly() = default;

  /// The constant polynomial \p C.
  static Poly constant(int64_t C);

  /// The degree-1 polynomial consisting of the single symbol \p Name.
  static Poly symbol(const std::string &Name);

  bool isZero() const { return Const == 0 && Terms.empty(); }

  /// True if the polynomial is a constant (possibly zero).
  bool isConstant() const { return Terms.empty(); }

  /// Returns the constant value; asserts isConstant().
  int64_t getConstant() const;

  /// Returns the coefficient of \p M (0 when absent).
  int64_t getCoeff(const Monomial &M) const;

  /// True if \p Name occurs in any monomial.
  bool mentions(const std::string &Name) const;

  /// Maximum total degree of any monomial (0 for constants and zero).
  unsigned degree() const;

  Poly operator+(const Poly &RHS) const;
  Poly operator-(const Poly &RHS) const;
  Poly operator*(const Poly &RHS) const;
  Poly operator-() const;
  bool operator==(const Poly &RHS) const {
    return Const == RHS.Const && Terms == RHS.Terms;
  }
  bool operator!=(const Poly &RHS) const { return !(*this == RHS); }

  /// Multiplies all coefficients by \p C.
  Poly scaled(int64_t C) const;

  /// Exact division by an integer: returns nullopt unless every
  /// coefficient is divisible by \p C.
  std::optional<Poly> dividedBy(int64_t C) const;

  /// If this == c * RHS for a rational c, returns c. Handles the symbolic
  /// kill-distance evaluation of Section 3.6 (e.g. (2*N) / (N) == 2).
  /// RHS must be nonzero.
  std::optional<Rational> ratioTo(const Poly &RHS) const;

  /// Splits this polynomial P into (A, B) with P == A * sym + B, where
  /// neither A nor B mentions \p Sym. Returns nullopt when some monomial
  /// contains \p Sym with degree >= 2 (non-affine in Sym).
  std::optional<std::pair<Poly, Poly>> splitAffine(const std::string &Sym) const;

  /// Substitutes the polynomial \p Value for the symbol \p Sym.
  Poly substituted(const std::string &Sym, const Poly &Value) const;

  /// All distinct symbols mentioned.
  std::vector<std::string> symbols() const;

  /// Renders e.g. "2*N*i + j - 1": terms by degree, highest first (ties
  /// in monomial order), the constant last; "0" for the zero polynomial.
  std::string toString() const;

private:
  using Term = std::pair<Monomial, int64_t>;

  /// L + R, or L - R when \p Subtract.
  static Poly combine(const Poly &L, const Poly &R, bool Subtract);

  /// The constant term (the empty monomial's coefficient).
  int64_t Const = 0;

  /// The non-constant terms, sorted by monomial; no coefficient is zero.
  std::vector<Term> Terms;
};

std::ostream &operator<<(std::ostream &OS, const Poly &P);

} // namespace ardf

#endif // ARDF_AFFINE_POLY_H

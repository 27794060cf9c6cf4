//===- affine/AffineAccess.h - Affine view of array references -*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Converts subscript expressions into polynomials, linearizes
/// multi-dimensional references (Section 3.6), and decomposes the result
/// into the affine form a*iv + b with respect to the controlling
/// induction variable. Induction variables of enclosing loops and
/// dimension sizes remain symbolic, exactly as the paper prescribes.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_AFFINE_AFFINEACCESS_H
#define ARDF_AFFINE_AFFINEACCESS_H

#include "affine/Poly.h"
#include "ir/Program.h"

#include <optional>
#include <string>
#include <vector>

namespace ardf {

/// Evaluates a subscript-position expression to a polynomial over
/// symbolic names. Returns nullopt for expressions containing array
/// references, comparisons, logical operators, or inexact division, and
/// when a coefficient overflows int64.
std::optional<Poly> evalToPoly(const Expr &E);

/// Linearizes the subscripts of \p Ref into a single polynomial, using
/// the dimension sizes declared in \p P (row-major: the first subscript
/// varies slowest, matching the paper's X[N*i + j] form for X[i, j]).
/// One-dimensional references linearize to their sole subscript.
/// Returns nullopt when a subscript is not polynomial, a needed
/// dimension size is missing/non-polynomial, or a coefficient of the
/// linearized form overflows int64 (then the reference is not affine).
std::optional<Poly> linearizeSubscripts(const ArrayRefExpr &Ref,
                                        const Program &P);

/// A subscripted reference linearized and decomposed as A*iv + B with
/// respect to one induction variable. A and B are polynomials that do not
/// mention iv; enclosing-loop induction variables stay symbolic inside
/// them. The analysis requires A to be nonzero for references that evolve
/// with the loop; loop-invariant references have A == 0.
struct AffineAccess {
  std::string Array;
  Poly A;
  Poly B;

  /// True if the subscript does not move with the induction variable.
  bool isLoopInvariant() const { return A.isZero(); }

  /// Renders "X[a*iv + b]" style text for diagnostics.
  std::string toString(const std::string &IV) const;
};

/// Builds the affine view of \p Ref with respect to induction variable
/// \p IV. Returns nullopt when the (linearized) subscript is not affine
/// in IV.
std::optional<AffineAccess> makeAffineAccess(const ArrayRefExpr &Ref,
                                             const Program &P,
                                             const std::string &IV);

/// The scalars \p Body writes while its loop runs: scalar assignment
/// targets and the induction variables of the DO loops inside it, at any
/// depth, each once in order of first write. The loop's own induction
/// variable is not among them unless the body assigns it.
std::vector<std::string> writtenScalars(const StmtList &Body);

/// The one trackability rule of Section 3.2 beyond affinity: a
/// subscript's symbolic terms must stay constant while the loop runs.
/// Returns the first scalar of \p Written that \p Acc's coefficients
/// mention, or null when there is none. A reference with such a scalar
/// is a whole-array access.
const std::string *variantScalar(const AffineAccess &Acc,
                                 const std::vector<std::string> &Written);

/// Computes the constant reuse distance delta such that
/// From.subscript(i - delta) == To.subscript(i) for all i, i.e. instances
/// of \p To reference the element \p From produced delta iterations
/// earlier: delta = (From.B - To.B) / From.A + contribution of equal A's.
/// Requires both accesses to the same array with symbolically equal A;
/// returns nullopt when no constant distance exists or its arithmetic
/// overflows int64.
std::optional<Rational> constantReuseDistance(const AffineAccess &From,
                                              const AffineAccess &To);

/// Smallest iteration distance delta >= \p Pr at which From(i - delta)
/// may equal To(i) for some i in [1, \p Trip] (\p Trip may be
/// UnknownTripCount). Conservative in the may sense: symbolic
/// uncertainty and int64 overflow report an overlap at distance \p Pr
/// rather than missing one. Returns nullopt when overlap is provably
/// impossible. Requires both accesses to the same array.
std::optional<int64_t> minOverlapDistance(const AffineAccess &From,
                                          const AffineAccess &To, int64_t Pr,
                                          int64_t Trip);

} // namespace ardf

#endif // ARDF_AFFINE_AFFINEACCESS_H

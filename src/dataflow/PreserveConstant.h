//===- dataflow/PreserveConstant.h - The p constant of Section 3.1.2 -*- C++//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Computes the preserve constant p of a preserve flow function
/// f(x) = min(x, p): the maximal iteration distance of instances of a
/// tracked reference d that survive a killing reference d' in the same
/// node (Sections 3.1.2, 3.3, 3.4 of the paper).
///
/// With d = X[a1*i + b1] and d' = X[a2*i + b2], the kill distance
/// function is k(i) = ((a1 - a2)*i + (b1 - b2)) / a1 (sign-flipped for
/// backward problems), evaluated over the iteration range I = [1, UB]:
///
///   must:  p = NoInstance                    if k == pr on I
///          p = AllInstances                  if k < pr on I
///          p = ceil(min{k(i) > pr}) - 1      otherwise
///   may:   p = NoInstance                    if k == pr on I
///          p = c - 1                         if k == c constant, c > pr
///          p = AllInstances                  otherwise (no definite kill)
///
/// Symbolic coefficients are handled where exact: a constant k is
/// recognized whenever (b1 - b2) is a rational multiple of a1 and the
/// coefficients of i agree (this covers the linearized multi-dimensional
/// cases of Section 3.6, e.g. k = N / N = 1). Anything else degrades
/// conservatively: NoInstance for must, AllInstances for may. So does a
/// kill distance whose arithmetic overflows int64.
///
/// Two refinements over the paper's formulas, both exactness-preserving:
///   * a constant non-integer k never kills (delta is integral), so the
///     result is AllInstances rather than ceil(c) - 1;
///   * a computed p below pr leaves no instance in range => NoInstance.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_DATAFLOW_PRESERVECONSTANT_H
#define ARDF_DATAFLOW_PRESERVECONSTANT_H

#include "affine/AffineAccess.h"
#include "dataflow/Problem.h"
#include "lattice/Distance.h"

namespace ardf {

/// Inputs of a preserve-constant query.
struct PreserveQuery {
  /// Affine view of the preserved (tracked) reference d.
  const AffineAccess *Preserved;

  /// Affine view of the killing reference d' (null for whole-array
  /// kills, which yield NoInstance in must mode / AllInstances in may
  /// mode immediately).
  const AffineAccess *Killer;

  /// pr(d, n): 0 when d occurs in a node reaching n intra-iteration,
  /// 1 otherwise (Section 3.1.2).
  int64_t Pr = 1;

  /// Trip count UB, or UnknownTripCount.
  int64_t TripCount = UnknownTripCount;

  ProblemMode Mode = ProblemMode::Must;
  FlowDirection Direction = FlowDirection::Forward;
};

/// Computes the preserve constant for \p Q. The result is an element of
/// the distance chain: NoInstance (nothing preserved), finite(p), or
/// AllInstances (everything preserved).
DistanceValue computePreserveConstant(const PreserveQuery &Q);

} // namespace ardf

#endif // ARDF_DATAFLOW_PRESERVECONSTANT_H

//===- baseline/DependenceTest.h - Classic GCD dependence test -*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The conventional, flow-INsensitive dependence machinery the paper
/// positions itself against (Section 1: "conventional data dependence
/// information is inadequate for fine-grained optimizations"): a GCD
/// divisibility test plus single-loop bounds check for one-dimensional
/// affine reference pairs, and the constant dependence distance for
/// consistent pairs. No control flow, no kill information.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_BASELINE_DEPENDENCETEST_H
#define ARDF_BASELINE_DEPENDENCETEST_H

#include <cstdint>
#include <optional>

namespace ardf {

/// Verdict of the classic test for references X[A1*i + B1] and
/// X[A2*i + B2] over i in [1, UB].
struct ClassicDepVerdict {
  /// May the two references touch a common cell at all?
  bool MayDepend = false;

  /// For consistent pairs (A1 == A2): the constant iteration distance
  /// (positive: the first reference's instance precedes).
  std::optional<int64_t> Distance;
};

/// Runs GCD + bounds on the pair. \p UB < 0 means unknown (bounds step
/// skipped). When the arithmetic overflows int64, the pair may depend at
/// no known distance.
ClassicDepVerdict classicDependenceTest(int64_t A1, int64_t B1, int64_t A2,
                                        int64_t B2, int64_t UB);

} // namespace ardf

#endif // ARDF_BASELINE_DEPENDENCETEST_H

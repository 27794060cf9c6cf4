//===- baseline/DependenceTest.cpp - Classic GCD dependence test ---------===//

#include "baseline/DependenceTest.h"

#include "support/CheckedArith.h"

#include <numeric>
#include <utility>

using namespace ardf;

namespace {

ClassicDepVerdict classicTest(int64_t A1, int64_t B1, int64_t A2, int64_t B2,
                              int64_t UB) {
  ClassicDepVerdict V;
  // Solve A1*x - A2*y == B2 - B1 for iterations x, y in [1, UB].
  int64_t Diff = checkedSub(B2, B1);

  if (A1 == 0 && A2 == 0) {
    V.MayDepend = Diff == 0;
    if (V.MayDepend)
      V.Distance = 0;
    return V;
  }

  // GCD divisibility: a solution over the integers exists iff
  // gcd(A1, A2) divides the constant difference.
  int64_t G = std::gcd(A1 < 0 ? checkedNeg(A1) : A1,
                       A2 < 0 ? checkedNeg(A2) : A2);
  if (G != 0 && Diff % G != 0) {
    V.MayDepend = false;
    return V;
  }

  // Consistent pair: constant distance delta with A1*(i - delta) + B1 ==
  // A2*i + B2 requires A1 == A2 and delta == (B1 - B2) / A1.
  if (A1 == A2 && A1 != 0) {
    int64_t Num = checkedNeg(Diff);
    // A1 == -1 divides everything, and Num / -1 is the one int64
    // quotient that can overflow.
    if (A1 == -1 || Num % A1 == 0) {
      int64_t Delta = A1 == -1 ? checkedNeg(Num) : Num / A1;
      // Bounds: the dependence is realizable only within the iteration
      // space.
      if (UB >= 0 && (Delta >= UB || Delta <= -UB)) {
        V.MayDepend = false;
        return V;
      }
      V.MayDepend = true;
      V.Distance = Delta;
      return V;
    }
  }

  // Inconsistent pair (different strides): a crude Banerjee-style range
  // check over [1, UB] when the bound is known.
  if (UB >= 0) {
    auto Range = [&](int64_t A, int64_t B) {
      int64_t AtFirst = checkedAdd(A, B);
      int64_t AtLast = checkedAdd(checkedMul(A, UB), B);
      return A >= 0 ? std::pair(AtFirst, AtLast) : std::pair(AtLast, AtFirst);
    };
    auto [Lo1, Hi1] = Range(A1, B1);
    auto [Lo2, Hi2] = Range(A2, B2);
    if (Hi1 < Lo2 || Hi2 < Lo1) {
      V.MayDepend = false;
      return V;
    }
  }
  V.MayDepend = true;
  return V;
}

} // namespace

ClassicDepVerdict ardf::classicDependenceTest(int64_t A1, int64_t B1,
                                              int64_t A2, int64_t B2,
                                              int64_t UB) {
  try {
    return classicTest(A1, B1, A2, B2, UB);
  } catch (const std::overflow_error &) {
    // The exact answer leaves int64: assume a dependence at an unknown
    // distance.
    ClassicDepVerdict V;
    V.MayDepend = true;
    return V;
  }
}

//===- support/CheckedArith.h - Checked 64-bit arithmetic -----*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The integer semantics of the analysis' own arithmetic: subscript
/// coefficients (affine/Poly), rationals and the distance formulas of
/// Section 3.1.2. Unlike the execution oracles (support/WrapArith.h),
/// the analysis must never reason from a wrapped value, so every
/// operation whose exact result leaves the int64 range throws
/// std::overflow_error instead. The analysis entry points catch it and
/// answer conservatively (a non-affine subscript, no constant distance).
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_SUPPORT_CHECKEDARITH_H
#define ARDF_SUPPORT_CHECKEDARITH_H

#include <cstdint>
#include <stdexcept>

namespace ardf {

[[noreturn, gnu::cold, gnu::noinline]] inline void throwInt64Overflow() {
  throw std::overflow_error("int64 overflow");
}

inline int64_t checkedAdd(int64_t A, int64_t B) {
  int64_t R;
  if (__builtin_add_overflow(A, B, &R))
    throwInt64Overflow();
  return R;
}

inline int64_t checkedSub(int64_t A, int64_t B) {
  int64_t R;
  if (__builtin_sub_overflow(A, B, &R))
    throwInt64Overflow();
  return R;
}

inline int64_t checkedMul(int64_t A, int64_t B) {
  int64_t R;
  if (__builtin_mul_overflow(A, B, &R))
    throwInt64Overflow();
  return R;
}

/// -A; throws for INT64_MIN, the one value without an int64 negation.
inline int64_t checkedNeg(int64_t A) { return checkedSub(0, A); }

} // namespace ardf

#endif // ARDF_SUPPORT_CHECKEDARITH_H

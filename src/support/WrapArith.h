//===- support/WrapArith.h - Wrapping 64-bit arithmetic --------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The integer semantics of the loop language's +, -, * and / as both
/// execution oracles implement them (the source interpreter and the
/// machine simulator): two's-complement wrap-around on int64_t, computed
/// through uint64_t so overflow is defined rather than undefined
/// behaviour. Division truncates toward zero, x / 0 is 0, and
/// INT64_MIN / -1 wraps to INT64_MIN (the one quotient that overflows,
/// and a hardware trap on x86 if computed directly).
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_SUPPORT_WRAPARITH_H
#define ARDF_SUPPORT_WRAPARITH_H

#include <cstdint>

namespace ardf {

inline int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}

inline int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}

inline int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}

inline int64_t wrapDiv(int64_t A, int64_t B) {
  if (B == 0)
    return 0;
  if (B == -1)
    return wrapSub(0, A);
  return A / B;
}

} // namespace ardf

#endif // ARDF_SUPPORT_WRAPARITH_H

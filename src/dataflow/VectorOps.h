//===- dataflow/VectorOps.h - Packed row operations ------------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The row operations under the packed kernel engine. DistanceValue is
/// one uint64_t whose unsigned order is the chain order
/// (lattice/Distance.h), so every flow operator is exact unsigned 64-bit
/// arithmetic -- min, max, a saturating add -- and whole matrix rows
/// are swept by four plain loops:
///
///   minInto    Dst[i] = min(Dst[i], Src[i])        (must meet)
///   maxInto    Dst[i] = max(Dst[i], Src[i])        (may meet)
///   minRows    Dst[i] = min(A[i], B[i])            (preserve apply)
///   increment  Dst[i] = Src[i]++                   (exit node)
///
/// They are portable element-wise loops of exact integer arithmetic,
/// the shape the compiler auto-vectorizes for whatever ISA the build
/// targets (configure with -DARDF_NATIVE_ARCH=ON to let it use the
/// host's widest vectors). Dst may alias a source exactly: every loop
/// reads lane i before it writes lane i.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_DATAFLOW_VECTOROPS_H
#define ARDF_DATAFLOW_VECTOROPS_H

#include "lattice/Distance.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace ardf {
namespace simd {

/// Instruction-set tiers the compiler can vectorize for, widest last.
enum class Isa : uint8_t { Scalar, NEON, AVX2, AVX512 };

/// The widest tier the library's translation units were compiled for,
/// read from the compiler's predefined macros (__AVX512F__, __AVX2__,
/// __ARM_NEON) -- the vectors the row operations may be auto-vectorized
/// to. Evaluated at library compile time, like libraryBuildType, so a
/// default x86-64 build reports Scalar (baseline SSE2 only).
Isa activeIsa();

/// Display name of \p Tier: "scalar", "neon", "avx2", "avx512".
const char *isaName(Isa Tier);

/// The encoded saturation bound of the exit increment for \p TripCount:
/// increment(Dst, Src, N, incrementBound(T)) stores Src[i].increment(T).
/// The reference saturates finite d when d + 1 >= T - 1; the incremented
/// encoding is d + 2, so the clamp threshold is T itself. Trip counts
/// below 2 make every finite increment saturate (incremented encodings
/// are >= 2). An unknown trip count clamps only the successor of the
/// largest finite distance, INT64_MAX, whose encoding is 2^63.
constexpr uint64_t incrementBound(int64_t TripCount) {
  if (TripCount == UnknownTripCount)
    return (uint64_t(1) << 63) + 1;
  return static_cast<uint64_t>(std::max<int64_t>(TripCount, 2));
}

inline void minInto(DistanceValue *Dst, const DistanceValue *Src, size_t N) {
  for (size_t I = 0; I != N; ++I)
    Dst[I] = DistanceValue::min(Dst[I], Src[I]);
}

inline void maxInto(DistanceValue *Dst, const DistanceValue *Src, size_t N) {
  for (size_t I = 0; I != N; ++I)
    Dst[I] = DistanceValue::max(Dst[I], Src[I]);
}

inline void minRows(DistanceValue *Dst, const DistanceValue *A,
                    const DistanceValue *B, size_t N) {
  for (size_t I = 0; I != N; ++I)
    Dst[I] = DistanceValue::min(A[I], B[I]);
}

/// The exit increment of a whole row, branch-free on the encoding:
/// NoInstance and AllInstances are fixed points, finite values advance
/// by one and clamp to AllInstances at \p Bound (from incrementBound).
inline void increment(DistanceValue *Dst, const DistanceValue *Src, size_t N,
                      uint64_t Bound) {
  for (size_t I = 0; I != N; ++I) {
    uint64_t X = Src[I].bits();
    uint64_t Next = X + uint64_t(X != 0 && X != UINT64_MAX);
    Dst[I] = DistanceValue::fromBits(Next >= Bound ? UINT64_MAX : Next);
  }
}

} // namespace simd
} // namespace ardf

#endif // ARDF_DATAFLOW_VECTOROPS_H

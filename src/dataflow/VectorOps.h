//===- dataflow/VectorOps.h - Packed row operations ------------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The row operations under the packed kernel engine. The packed
/// lattice (lattice/PackedDistance.h) reduced every flow operator to
/// exact unsigned 64-bit arithmetic -- min, max, a saturating add, an
/// XOR diff -- so whole matrix rows are swept by six plain loops:
///
///   minInto    Dst[i] = min(Dst[i], Src[i])        (must meet)
///   maxInto    Dst[i] = max(Dst[i], Src[i])        (may meet)
///   minRows    Dst[i] = min(A[i], B[i])            (preserve apply)
///   increment  Dst[i] = packed::increment(Src[i])  (exit node)
///   xorAccum   OR over i of A[i] ^ B[i]            (change tracking)
///   unpack     Dst[i] = packed::unpack(Src[i])     (result export)
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

#include "lattice/PackedDistance.h"

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

inline void minInto(uint64_t *Dst, const uint64_t *Src, size_t N) {
  for (size_t I = 0; I != N; ++I)
    Dst[I] = std::min(Dst[I], Src[I]);
}

inline void maxInto(uint64_t *Dst, const uint64_t *Src, size_t N) {
  for (size_t I = 0; I != N; ++I)
    Dst[I] = std::max(Dst[I], Src[I]);
}

inline void minRows(uint64_t *Dst, const uint64_t *A, const uint64_t *B,
                    size_t N) {
  for (size_t I = 0; I != N; ++I)
    Dst[I] = std::min(A[I], B[I]);
}

inline void increment(uint64_t *Dst, const uint64_t *Src, size_t N,
                      uint64_t Bound) {
  for (size_t I = 0; I != N; ++I)
    Dst[I] = packed::increment(Src[I], Bound);
}

inline uint64_t xorAccum(const uint64_t *A, const uint64_t *B, size_t N) {
  uint64_t Acc = 0;
  for (size_t I = 0; I != N; ++I)
    Acc |= A[I] ^ B[I];
  return Acc;
}

inline void unpack(DistanceValue *Dst, const uint64_t *Src, size_t N) {
  for (size_t I = 0; I != N; ++I)
    Dst[I] = packed::unpack(Src[I]);
}

} // namespace simd
} // namespace ardf

#endif // ARDF_DATAFLOW_VECTOROPS_H

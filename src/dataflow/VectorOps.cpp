//===- dataflow/VectorOps.cpp - Packed row operations --------------------===//

#include "dataflow/VectorOps.h"

ardf::simd::Isa ardf::simd::activeIsa() {
#if defined(__AVX512F__)
  return Isa::AVX512;
#elif defined(__AVX2__)
  return Isa::AVX2;
#elif defined(__ARM_NEON)
  return Isa::NEON;
#else
  return Isa::Scalar;
#endif
}

const char *ardf::simd::isaName(Isa Tier) {
  switch (Tier) {
  case Isa::Scalar:
    return "scalar";
  case Isa::NEON:
    return "neon";
  case Isa::AVX2:
    return "avx2";
  case Isa::AVX512:
    return "avx512";
  }
  return "unknown";
}

//===- tests/dataflow/VectorOpsTest.cpp - Packed row operations ----------===//
//
// The row operations that encode lattice semantics must agree with the
// per-cell packed operators over boundary-heavy random rows of many
// lengths (vector bodies plus tails, as the auto-vectorized loops see
// them). The whole-solve half of the guarantee (kernel bit-identical to
// the reference solver) lives in KernelSolverTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "dataflow/VectorOps.h"
#include "lattice/Distance.h"
#include "lattice/PackedDistance.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

using namespace ardf;

namespace {

/// Lattice boundary values mixed with uniform noise: saturation points,
/// the sign bit, and near-bound packs.
std::vector<uint64_t> randomRow(std::mt19937_64 &Rng, size_t N) {
  static const uint64_t Boundary[] = {packed::NoInstance,
                                      packed::Zero,
                                      2,
                                      3,
                                      packed::AllInstances,
                                      packed::AllInstances - 1,
                                      (1ULL << 63) - 1,
                                      1ULL << 63,
                                      (1ULL << 63) + 1,
                                      999,
                                      1000,
                                      1001};
  std::vector<uint64_t> Row(N);
  for (uint64_t &V : Row)
    V = (Rng() & 1) ? Boundary[Rng() % std::size(Boundary)] : Rng();
  return Row;
}

/// Packed cells that are the image of some DistanceValue -- NoInstance,
/// finite d in [0, INT64_MAX], AllInstances -- the domain of unpack.
std::vector<uint64_t> packedValueRow(std::mt19937_64 &Rng, size_t N) {
  static const uint64_t Boundary[] = {packed::NoInstance,
                                      packed::Zero,
                                      2,
                                      3,
                                      packed::AllInstances,
                                      packed::finite(INT64_MAX),
                                      packed::finite(INT64_MAX - 1),
                                      999,
                                      1000,
                                      1001};
  std::vector<uint64_t> Row(N);
  for (uint64_t &V : Row)
    V = (Rng() & 1) ? Boundary[Rng() % std::size(Boundary)]
                    : packed::finite(static_cast<int64_t>(Rng() >> 1));
  return Row;
}

const size_t Lengths[] = {0,  1,  2,  3,  4,  5,  7,  8,  9,
                          15, 16, 17, 31, 32, 33, 64, 100};

const uint64_t Bounds[] = {2,    3,    5,    1000, (1ULL << 63) + 5,
                           packed::AllInstances};

} // namespace

TEST(VectorOpsTest, UnpackMatchesLatticeSemanticsEveryTier) {
  // Poisoned destination: a legal lattice value that no source cell
  // unpacks to, so a lane the row operation failed to write shows up
  // as a mismatch instead of passing on stale bytes.
  const DistanceValue Poison = DistanceValue::finite(77);
  std::mt19937_64 Rng(0xdeca1);
  for (size_t N : Lengths) {
    std::vector<uint64_t> Src = packedValueRow(Rng, N);
    for (uint64_t &X : Src)
      if (X == packed::pack(Poison))
        X = packed::Zero;
    std::vector<DistanceValue> Got(N, Poison);
    simd::unpack(Got.data(), Src.data(), N);
    for (size_t I = 0; I != N; ++I)
      ASSERT_EQ(Got[I], packed::unpack(Src[I]))
          << "N=" << N << " I=" << I << " X=" << Src[I];
  }
}

TEST(VectorOpsTest, IncrementMatchesPackedSemanticsEveryTier) {
  std::mt19937_64 Rng(0xbead);
  for (uint64_t Bound : Bounds)
    for (size_t N : Lengths) {
      std::vector<uint64_t> Src = randomRow(Rng, N);
      // Make sure the saturation seam itself shows up in the row.
      for (size_t I = 0; I + 4 < N; I += 5)
        Src[I] = Bound - 1 + (I % 3);
      std::vector<uint64_t> Got(N, 0);
      simd::increment(Got.data(), Src.data(), N, Bound);
      for (size_t I = 0; I != N; ++I)
        ASSERT_EQ(Got[I], packed::increment(Src[I], Bound))
            << "N=" << N << " I=" << I << " X=" << Src[I]
            << " Bound=" << Bound;
    }
}

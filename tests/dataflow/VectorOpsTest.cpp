//===- tests/dataflow/VectorOpsTest.cpp - Packed row operations ----------===//
//
// The row operations must agree with the per-cell DistanceValue
// operators over boundary-heavy random rows of many lengths (vector
// bodies plus tails, as the auto-vectorized loops see them). The
// whole-solve half of the guarantee (kernel bit-identical to the
// reference solver) lives in KernelSolverTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "dataflow/VectorOps.h"
#include "lattice/Distance.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

using namespace ardf;

namespace {

/// Lattice values with the extremes, the trip-count seams, the largest
/// finite distances and uniform random finites mixed in.
std::vector<DistanceValue> randomRow(std::mt19937_64 &Rng, size_t N) {
  static const DistanceValue Boundary[] = {
      DistanceValue::noInstance(),          DistanceValue::allInstances(),
      DistanceValue::finite(0),             DistanceValue::finite(1),
      DistanceValue::finite(2),             DistanceValue::finite(3),
      DistanceValue::finite(15),            DistanceValue::finite(16),
      DistanceValue::finite(998),           DistanceValue::finite(999),
      DistanceValue::finite(int64_t(1) << 62),
      DistanceValue::finite(INT64_MAX - 1), DistanceValue::finite(INT64_MAX)};
  std::vector<DistanceValue> Row(N);
  for (DistanceValue &V : Row)
    V = (Rng() & 1) ? Boundary[Rng() % std::size(Boundary)]
                    : DistanceValue::finite(static_cast<int64_t>(Rng() >> 1));
  return Row;
}

const size_t Lengths[] = {0,  1,  2,  3,  4,  5,  7,  8,  9,
                          15, 16, 17, 31, 32, 33, 64, 100};

const int64_t Trips[] = {UnknownTripCount, 0, 1, 2, 3, 17, 1000, INT64_MAX};

/// A legal lattice value that differs from every expected result of the
/// row under test, so a lane an operation failed to write shows up as a
/// mismatch instead of passing on stale bytes.
DistanceValue poisonFor(const std::vector<DistanceValue> &Expected) {
  int64_t D = 77;
  for (bool Clash = true; Clash; ++D) {
    Clash = false;
    for (DistanceValue V : Expected)
      Clash |= V == DistanceValue::finite(D);
  }
  return DistanceValue::finite(D - 1);
}

} // namespace

TEST(VectorOpsTest, RowMeetsMatchLatticeSemanticsEveryTier) {
  std::mt19937_64 Rng(0xdeca1);
  for (size_t N : Lengths) {
    std::vector<DistanceValue> A = randomRow(Rng, N), B = randomRow(Rng, N);
    std::vector<DistanceValue> Min(N), Max(N);
    for (size_t I = 0; I != N; ++I) {
      Min[I] = DistanceValue::min(A[I], B[I]);
      Max[I] = DistanceValue::max(A[I], B[I]);
    }

    std::vector<DistanceValue> Got(N, poisonFor(Min));
    simd::minRows(Got.data(), A.data(), B.data(), N);
    EXPECT_EQ(Got, Min) << "minRows N=" << N;
    Got = A;
    simd::minInto(Got.data(), B.data(), N);
    EXPECT_EQ(Got, Min) << "minInto N=" << N;
    Got = A;
    simd::maxInto(Got.data(), B.data(), N);
    EXPECT_EQ(Got, Max) << "maxInto N=" << N;
  }
}

TEST(VectorOpsTest, IncrementMatchesPackedSemanticsEveryTier) {
  std::mt19937_64 Rng(0xbead);
  for (int64_t Trip : Trips)
    for (size_t N : Lengths) {
      std::vector<DistanceValue> Src = randomRow(Rng, N);
      // Make sure the saturation seam itself shows up in the row.
      for (size_t I = 0; I + 4 < N; I += 5)
        Src[I] = DistanceValue::finiteOrNone(Trip - 3 + int64_t(I % 3));
      std::vector<DistanceValue> Want(N);
      for (size_t I = 0; I != N; ++I)
        Want[I] = Src[I].increment(Trip);
      std::vector<DistanceValue> Got(N, poisonFor(Want));
      simd::increment(Got.data(), Src.data(), N,
                      simd::incrementBound(Trip));
      for (size_t I = 0; I != N; ++I)
        ASSERT_EQ(Got[I], Want[I])
            << "N=" << N << " I=" << I << " X=" << Src[I]
            << " Trip=" << Trip;
    }
}

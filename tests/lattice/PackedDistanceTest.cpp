//===- tests/lattice/PackedDistanceTest.cpp - Lattice model oracle -------===//
//
// DistanceValue is the packed encoding of Fig. 2's chain (NoInstance 0,
// finite d as d + 1, AllInstances UINT64_MAX). These tests check it
// against an independent three-tag model of the paper's lattice --
// bottom, finite d, top, with min, max, x++, covers, finiteOrNone and
// toString written from the paper's definitions -- over small values,
// the distances 0, 2^62 and INT64_MAX, and the trip counts {unknown, 0,
// 1, 2, 3, 17}. "pack" below is the map from the model into
// DistanceValue. This is the algebraic half of the kernel-vs-reference
// guarantee; the solver half lives in tests/dataflow/KernelSolverTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "lattice/Distance.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

using namespace ardf;

namespace {

/// The chain lattice as the paper draws it: a tag and, for finite
/// elements only, the distance. Nothing here knows DistanceValue's bits.
struct Model {
  enum Tag { Bottom, Finite, Top };
  Tag K = Bottom;
  int64_t D = 0;

  static Model bottom() { return {Bottom, 0}; }
  static Model top() { return {Top, 0}; }
  static Model finite(int64_t D) { return {Finite, D}; }
  static Model finiteOrNone(int64_t D) {
    return D < 0 ? bottom() : finite(D);
  }

  friend bool operator==(Model A, Model B) {
    return A.K == B.K && (A.K != Finite || A.D == B.D);
  }
  /// Bottom below every finite distance, finite ascending, top above.
  friend bool operator<(Model A, Model B) {
    if (A.K != B.K)
      return A.K < B.K;
    return A.K == Finite && A.D < B.D;
  }

  static Model min(Model A, Model B) { return B < A ? B : A; }
  static Model max(Model A, Model B) { return A < B ? B : A; }

  /// x++ (Section 3.1.3): bottom and top are fixed points; d + 1
  /// saturates to top once it reaches UB - 1 for a known trip count UB.
  /// Distances stop at INT64_MAX: no loop runs more iterations, so the
  /// successor of the last one is every instance.
  Model increment(int64_t Trip) const {
    if (K != Finite)
      return *this;
    if (D == INT64_MAX || (Trip != UnknownTripCount && D + 1 >= Trip - 1))
      return top();
    return finite(D + 1);
  }

  /// pr <= Delta <= x: is the instance at distance Delta in range?
  bool covers(int64_t Delta) const {
    return K == Top || (K == Finite && Delta <= D);
  }

  std::string toString() const {
    return K == Bottom ? "_" : K == Top ? "T" : std::to_string(D);
  }
};

DistanceValue pack(Model M) {
  switch (M.K) {
  case Model::Bottom:
    return DistanceValue::noInstance();
  case Model::Finite:
    return DistanceValue::finite(M.D);
  case Model::Top:
    return DistanceValue::allInstances();
  }
  return DistanceValue();
}

Model unpack(DistanceValue V) {
  if (V.isNoInstance())
    return Model::bottom();
  if (V.isAllInstances())
    return Model::top();
  return Model::finite(V.getDistance());
}

const int64_t P62 = int64_t(1) << 62;

/// Both extremes, every small distance around the trip counts below,
/// and the large distances 2^62 and INT64_MAX with their neighbours.
std::vector<Model> corpus() {
  std::vector<Model> Vals = {Model::bottom(), Model::top()};
  for (int64_t D = 0; D <= 20; ++D)
    Vals.push_back(Model::finite(D));
  for (int64_t D : {P62 - 1, P62, P62 + 1, INT64_MAX - 1, INT64_MAX})
    Vals.push_back(Model::finite(D));
  return Vals;
}

const int64_t Trips[] = {UnknownTripCount, 0, 1, 2, 3, 17};

const int64_t Deltas[] = {INT64_MIN, -1, 0,       1,
                          2,         3,  17,      P62,
                          P62 + 1,   INT64_MAX - 1, INT64_MAX};

} // namespace

TEST(PackedDistanceTest, RoundTripIsExact) {
  for (Model M : corpus()) {
    EXPECT_EQ(unpack(pack(M)), M) << M.toString();
    DistanceValue V = pack(M);
    EXPECT_TRUE(DistanceValue::isEncoding(V.bits())) << M.toString();
    EXPECT_EQ(DistanceValue::fromBits(V.bits()), V) << M.toString();
  }
}

TEST(PackedDistanceTest, NamedConstantsMatchReference) {
  // The encoding the packed kernel's row operations rely on.
  EXPECT_EQ(DistanceValue::noInstance().bits(), 0u);
  EXPECT_EQ(DistanceValue().bits(), 0u);
  EXPECT_EQ(DistanceValue::finite(0).bits(), 1u);
  EXPECT_EQ(DistanceValue::finite(P62).bits(), uint64_t(P62) + 1);
  EXPECT_EQ(DistanceValue::finite(INT64_MAX).bits(), uint64_t(1) << 63);
  EXPECT_EQ(DistanceValue::allInstances().bits(), UINT64_MAX);
  // Exactly those images are encodings.
  for (uint64_t Bits : {uint64_t(0), uint64_t(1), uint64_t(2),
                        uint64_t(1) << 63, UINT64_MAX})
    EXPECT_TRUE(DistanceValue::isEncoding(Bits)) << Bits;
  for (uint64_t Bits : {(uint64_t(1) << 63) + 1, uint64_t(3) << 62,
                        UINT64_MAX - 1})
    EXPECT_FALSE(DistanceValue::isEncoding(Bits)) << Bits;
}

TEST(PackedDistanceTest, FromBitsRejectsInvalidEncodingsInDebugBuilds) {
  // Outside debug builds the precondition is not checked and the call
  // simply returns.
  EXPECT_DEBUG_DEATH(DistanceValue::fromBits((uint64_t(1) << 63) + 1),
                     "not a DistanceValue encoding");
  EXPECT_DEBUG_DEATH(DistanceValue::fromBits(UINT64_MAX - 1),
                     "not a DistanceValue encoding");
}

TEST(PackedDistanceTest, PackIsAnOrderIsomorphism) {
  std::vector<Model> Vals = corpus();
  for (Model A : Vals)
    for (Model B : Vals) {
      DistanceValue PA = pack(A), PB = pack(B);
      std::string Pair = A.toString() + " vs " + B.toString();
      EXPECT_EQ(A < B, PA < PB) << Pair;
      EXPECT_EQ(A == B, PA == PB) << Pair;
      EXPECT_EQ(!(A == B), PA != PB) << Pair;
      EXPECT_EQ(!(B < A), PA <= PB) << Pair;
      EXPECT_EQ(B < A, PA > PB) << Pair;
      EXPECT_EQ(!(A < B), PA >= PB) << Pair;
      // Chain order is unsigned order of the encoding.
      EXPECT_EQ(A < B, PA.bits() < PB.bits()) << Pair;
    }
}

TEST(PackedDistanceTest, MeetsCommuteWithPack) {
  std::vector<Model> Vals = corpus();
  for (Model A : Vals)
    for (Model B : Vals) {
      EXPECT_EQ(pack(Model::min(A, B)), DistanceValue::min(pack(A), pack(B)))
          << A.toString() << " vs " << B.toString();
      EXPECT_EQ(pack(Model::max(A, B)), DistanceValue::max(pack(A), pack(B)))
          << A.toString() << " vs " << B.toString();
    }
}

TEST(PackedDistanceTest, IncrementCommutesWithPack) {
  for (int64_t Trip : Trips)
    for (Model M : corpus()) {
      EXPECT_EQ(pack(M.increment(Trip)), pack(M).increment(Trip))
          << M.toString() << " trip " << Trip;
      if (Trip == UnknownTripCount) {
        EXPECT_EQ(pack(M.increment(Trip)), pack(M).increment())
            << M.toString();
      }
    }
}

TEST(PackedDistanceTest, IncrementSaturatesAtTripBound) {
  // The saturation boundary of Section 3.1.3: with trip count T, the
  // increment of finite d reaches AllInstances exactly when d+1 >= T-1.
  for (int64_t Trip : {0, 1, 2, 3, 17}) {
    for (int64_t D = 0; D <= 20; ++D) {
      DistanceValue Inc = DistanceValue::finite(D).increment(Trip);
      if (D + 1 >= Trip - 1)
        EXPECT_EQ(Inc, DistanceValue::allInstances())
            << "d=" << D << " T=" << Trip;
      else
        EXPECT_EQ(Inc, DistanceValue::finite(D + 1))
            << "d=" << D << " T=" << Trip;
    }
  }
  // An unknown trip count saturates only the last distance and fixes
  // both extremes.
  EXPECT_EQ(DistanceValue::finite(P62).increment(),
            DistanceValue::finite(P62 + 1));
  EXPECT_EQ(DistanceValue::finite(INT64_MAX - 1).increment(),
            DistanceValue::finite(INT64_MAX));
  EXPECT_EQ(DistanceValue::finite(INT64_MAX).increment(),
            DistanceValue::allInstances());
  EXPECT_EQ(DistanceValue::noInstance().increment(),
            DistanceValue::noInstance());
  EXPECT_EQ(DistanceValue::allInstances().increment(),
            DistanceValue::allInstances());
}

TEST(PackedDistanceTest, CoversCommutesWithPack) {
  for (Model M : corpus())
    for (int64_t Delta : Deltas)
      EXPECT_EQ(M.covers(Delta), pack(M).covers(Delta))
          << M.toString() << " delta " << Delta;
}

TEST(PackedDistanceTest, FiniteOrNoneAndToStringMatchModel) {
  for (int64_t D : Deltas) {
    EXPECT_EQ(pack(Model::finiteOrNone(D)), DistanceValue::finiteOrNone(D))
        << D;
    EXPECT_EQ(unpack(DistanceValue::finiteOrNone(D)), Model::finiteOrNone(D))
        << D;
  }
  for (Model M : corpus())
    EXPECT_EQ(pack(M).toString(), M.toString());
}

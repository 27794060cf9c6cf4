//===- tests/dataflow/PreserveConstantTest.cpp - Section 3.1.2 cases -----===//

#include "dataflow/PreserveConstant.h"

#include <gtest/gtest.h>

using namespace ardf;

namespace {

AffineAccess access(const char *Array, int64_t A, int64_t B) {
  AffineAccess Acc;
  Acc.Array = Array;
  Acc.A = Poly::constant(A);
  Acc.B = Poly::constant(B);
  return Acc;
}

AffineAccess accessSym(const char *Array, Poly A, Poly B) {
  AffineAccess Acc;
  Acc.Array = Array;
  Acc.A = std::move(A);
  Acc.B = std::move(B);
  return Acc;
}

DistanceValue preserve(const AffineAccess &D, const AffineAccess &K,
                       int64_t Pr, int64_t Trip = 1000,
                       ProblemMode Mode = ProblemMode::Must,
                       FlowDirection Dir = FlowDirection::Forward) {
  PreserveQuery Q;
  Q.Preserved = &D;
  Q.Killer = &K;
  Q.Pr = Pr;
  Q.TripCount = Trip;
  Q.Mode = Mode;
  Q.Direction = Dir;
  return computePreserveConstant(Q);
}

} // namespace

// Paper Section 3.1.2, case analysis with the Fig. 1 references.
TEST(PreserveConstantTest, ConstantKillDistancePaperExample) {
  // d = C[i+2], d' = C[i]: k == 2, pr == 0 -> p == 1.
  EXPECT_EQ(preserve(access("C", 1, 2), access("C", 1, 0), 0),
            DistanceValue::finite(1));
}

TEST(PreserveConstantTest, TextuallyIdenticalKillsEverything) {
  // k == 0 == pr -> bottom.
  EXPECT_TRUE(
      preserve(access("C", 1, 2), access("C", 1, 2), 0).isNoInstance());
  // Same references but pr == 1 (killer not downstream): k == 0 < pr,
  // no in-range kill -> top.
  EXPECT_TRUE(
      preserve(access("C", 1, 2), access("C", 1, 2), 1).isAllInstances());
}

TEST(PreserveConstantTest, KillBelowRangeIsHarmless) {
  // d = X[i], d' = X[i+2]: k == -2 -> top (the paper's case (ii) example).
  EXPECT_TRUE(
      preserve(access("X", 1, 0), access("X", 1, 2), 0).isAllInstances());
}

TEST(PreserveConstantTest, NumericScanPaperExample) {
  // d = B[2i], d' = B[i]: k(i) = i/2, min over k > 0 is 1/2 -> p == 0.
  EXPECT_EQ(preserve(access("B", 2, 0), access("B", 1, 0), 0),
            DistanceValue::finite(0));
  // Reverse roles: d = B[i], d' = B[2i]: k(i) = -i -> top.
  EXPECT_TRUE(
      preserve(access("B", 1, 0), access("B", 2, 0), 0).isAllInstances());
}

TEST(PreserveConstantTest, NumericScanExactIntegerHit) {
  // d = X[2i], d' = X[i+1]: k(i) = (i - 1) / 2; k(3) == 1 > 0, k(1) == 0
  // == pr at i == 1 -> the newest in-range instance dies -> bottom.
  EXPECT_TRUE(
      preserve(access("X", 2, 0), access("X", 1, 1), 0).isNoInstance());
}

TEST(PreserveConstantTest, NumericScanDecreasingSlope) {
  // d = X[-i + 100], d' = X[i]: k(i) = (-2i + 100) / (-1) = 2i - 100.
  // Increasing w.r.t. sign... slope = (-2)/(-1) = 2 > 0; crossing at
  // k(i) = 0 -> i = 50 exact integer in range -> bottom.
  EXPECT_TRUE(
      preserve(access("X", -1, 100), access("X", 1, 0), 0).isNoInstance());
  // With pr = 1: crossing k(i) = 1 at i = 50.5; first above is i = 51,
  // k(51) = 2 -> p = 1.
  EXPECT_EQ(preserve(access("X", -1, 100), access("X", 1, 0), 1),
            DistanceValue::finite(1));
}

TEST(PreserveConstantTest, KillOutsideTripCountIgnored) {
  // d = X[2i], d' = X[i+9]: k(i) = (i - 9) / 2 reaches pr = 0 only at
  // i = 9; with UB = 5 no such iteration exists -> top.
  EXPECT_TRUE(
      preserve(access("X", 2, 0), access("X", 1, 9), 0, 5).isAllInstances());
  // With UB = 1000, k(9) == 0 == pr is an exact in-range hit: the
  // newest instance dies every 9th-iteration crossing -> bottom.
  EXPECT_TRUE(
      preserve(access("X", 2, 0), access("X", 1, 9), 0, 1000).isNoInstance());
  // Fractional minimum: d = X[3i], d' = X[i+1]: k(i) = (2i - 1) / 3,
  // crossing at i = 1/2, min above 0 is k(1) = 1/3 -> p = 0.
  EXPECT_EQ(preserve(access("X", 3, 0), access("X", 1, 1), 0, 1000),
            DistanceValue::finite(0));
}

TEST(PreserveConstantTest, ConstantKillSaturatesToTop) {
  // k == 900 constant with UB = 100: p = 899 >= UB - 1 -> AllInstances.
  EXPECT_TRUE(
      preserve(access("X", 1, 900), access("X", 1, 0), 0, 100)
          .isAllInstances());
}

TEST(PreserveConstantTest, SymbolicConstantDistanceFig4) {
  // X[N*i + N + j] preserved against X[N*i + j]: k = N/N = 1, pr = 0
  // -> p = 0; at pr = 1 -> bottom.
  Poly N = Poly::symbol("N");
  Poly J = Poly::symbol("j");
  AffineAccess D = accessSym("X", N, N + J);
  AffineAccess K = accessSym("X", N, J);
  EXPECT_EQ(preserve(D, K, 0, UnknownTripCount), DistanceValue::finite(0));
  EXPECT_TRUE(preserve(D, K, 1, UnknownTripCount).isNoInstance());
}

TEST(PreserveConstantTest, SymbolicUnknownIsConservative) {
  // Incomparable symbolic constants: must -> nothing preserved,
  // may -> everything preserved.
  Poly One = Poly::constant(1);
  AffineAccess D = accessSym("X", One, Poly::symbol("n"));
  AffineAccess K = accessSym("X", One, Poly::symbol("m"));
  EXPECT_TRUE(preserve(D, K, 0).isNoInstance());
  EXPECT_TRUE(
      preserve(D, K, 0, 1000, ProblemMode::May).isAllInstances());
}

TEST(PreserveConstantTest, MayModeOnlyDefiniteKills) {
  // Non-constant k: may preserves everything.
  EXPECT_TRUE(preserve(access("B", 2, 0), access("B", 1, 0), 0, 1000,
                       ProblemMode::May)
                  .isAllInstances());
  // Definite kill X[f(i)+2]: may preserves up to distance 1.
  EXPECT_EQ(preserve(access("X", 1, 0), access("X", 1, -2), 0, 1000,
                     ProblemMode::May),
            DistanceValue::finite(1));
}

TEST(PreserveConstantTest, BackwardFlipsDistanceSign) {
  // Forward: d = X[i], d' = X[i-1]: the killer rewrites the element d
  // produced one iteration earlier, k == 1 -> p == 0.
  EXPECT_EQ(preserve(access("X", 1, 0), access("X", 1, -1), 0),
            DistanceValue::finite(0));
  // Backward the same pair looks one iteration into the past: k == -1,
  // out of range -> top.
  EXPECT_TRUE(preserve(access("X", 1, 0), access("X", 1, -1), 0, 1000,
                       ProblemMode::Must, FlowDirection::Backward)
                  .isAllInstances());
  // And symmetrically, d' = X[i+1] kills backward instances at
  // distance 1 (it touches the element d will produce one iteration
  // later) but no forward ones.
  EXPECT_EQ(preserve(access("X", 1, 0), access("X", 1, 1), 0, 1000,
                     ProblemMode::Must, FlowDirection::Backward),
            DistanceValue::finite(0));
  EXPECT_TRUE(
      preserve(access("X", 1, 0), access("X", 1, 1), 0).isAllInstances());
}

TEST(PreserveConstantTest, WholeArrayKillConservative) {
  AffineAccess D = access("X", 1, 0);
  PreserveQuery Q;
  Q.Preserved = &D;
  Q.Killer = nullptr;
  Q.Pr = 0;
  Q.Mode = ProblemMode::Must;
  EXPECT_TRUE(computePreserveConstant(Q).isNoInstance());
  Q.Mode = ProblemMode::May;
  EXPECT_TRUE(computePreserveConstant(Q).isAllInstances());
}

TEST(PreserveConstantTest, LoopInvariantCases) {
  // X[5] killed by X[5]: everything dies.
  EXPECT_TRUE(
      preserve(access("X", 0, 5), access("X", 0, 5), 0).isNoInstance());
  // X[5] vs X[7]: disjoint cells -> top.
  EXPECT_TRUE(
      preserve(access("X", 0, 5), access("X", 0, 7), 0).isAllInstances());
  // X[5] vs moving X[i]: hits cell 5 at i == 5 -> must kills all.
  EXPECT_TRUE(
      preserve(access("X", 0, 5), access("X", 1, 0), 0).isNoInstance());
  // X[5] vs X[i] with UB = 3: never reaches cell 5 -> top.
  EXPECT_TRUE(
      preserve(access("X", 0, 5), access("X", 1, 0), 0, 3).isAllInstances());
  // X[5] vs moving killer in may mode: not definite -> all preserved.
  EXPECT_TRUE(preserve(access("X", 0, 5), access("X", 1, 0), 0, 1000,
                       ProblemMode::May)
                  .isAllInstances());
}

TEST(PreserveConstantTest, NonIntegerConstantDistanceNeverKills) {
  // d = X[2i], d' = X[2i+1]: k == -1/2... choose B diff 1: k = 1/2
  // constant -> never an integer distance -> top (refinement note in
  // the header).
  EXPECT_TRUE(
      preserve(access("X", 2, 1), access("X", 2, 0), 0).isAllInstances());
}

// Property sweep: brute-force soundness of the preserve constant
// against its defining condition (Section 3.1.2):
//   p = max{ d < UB | forall i in I, forall d' with pr <= d' <= d:
//            f2(i) != f1(i - d') }.
// The computed constant must never exceed the brute-forced maximum
// (must-problems demand a safe underestimate).
TEST(PreserveConstantTest, BruteForceSoundnessProperty) {
  const int64_t UB = 12;
  auto bruteMax = [&](int64_t A1, int64_t B1, int64_t A2, int64_t B2,
                      int64_t Pr) -> int64_t {
    // Returns the largest safe delta, or Pr - 1 when even delta == Pr
    // is killed (empty range).
    int64_t Best = Pr - 1;
    for (int64_t Delta = Pr; Delta < UB; ++Delta) {
      bool Safe = true;
      for (int64_t I = 1; I <= UB && Safe; ++I)
        for (int64_t DPrime = Pr; DPrime <= Delta && Safe; ++DPrime)
          if (A2 * I + B2 == A1 * (I - DPrime) + B1)
            Safe = false;
      if (!Safe)
        break;
      Best = Delta;
    }
    return Best;
  };

  for (int64_t A1 = -2; A1 <= 2; ++A1) {
    if (A1 == 0)
      continue;
    for (int64_t A2 = -2; A2 <= 2; ++A2) {
      for (int64_t B1 = -3; B1 <= 3; ++B1) {
        for (int64_t B2 = -3; B2 <= 3; ++B2) {
          for (int64_t Pr = 0; Pr <= 1; ++Pr) {
            DistanceValue P =
                preserve(access("X", A1, B1), access("X", A2, B2), Pr, UB);
            int64_t Computed = P.isNoInstance()    ? Pr - 1
                               : P.isAllInstances() ? UB - 1
                                                    : P.getDistance();
            int64_t Brute = bruteMax(A1, B1, A2, B2, Pr);
            EXPECT_LE(Computed, Brute)
                << "A1=" << A1 << " B1=" << B1 << " A2=" << A2
                << " B2=" << B2 << " pr=" << Pr;
          }
        }
      }
    }
  }
}

TEST(PreserveConstantTest, OverflowingKillDistanceIsConservative) {
  // k(i) = (b1 - b2) / a1 with b1 - b2 outside int64: nothing precise is
  // known, so must-problems preserve nothing and may-problems everything.
  const int64_t Big = 9000000000000000000;
  AffineAccess Hi = access("A", 1, Big), Lo = access("A", 1, -Big);
  for (int64_t Pr : {0, 1}) {
    for (FlowDirection Dir :
         {FlowDirection::Forward, FlowDirection::Backward}) {
      EXPECT_EQ(preserve(Hi, Lo, Pr, 100, ProblemMode::Must, Dir),
                DistanceValue::noInstance());
      EXPECT_EQ(preserve(Lo, Hi, Pr, 100, ProblemMode::May, Dir),
                DistanceValue::allInstances());
    }
  }
  // The numeric scan's own crossing Pr * a1 - (b1 - b2) overflows (the
  // exact k(i) = i/5 - 1 stays below pr over 5 iterations).
  const int64_t A1 = 5000000000000000000;
  AffineAccess Steep = access("A", A1, -A1);
  AffineAccess Killer = access("A", A1 - A1 / 5, 0);
  EXPECT_EQ(preserve(Steep, Killer, 1, 5), DistanceValue::noInstance());
  // An invariant cell and a killer whose hit iteration, INT64_MIN / -1,
  // overflows (exactly: never in range).
  AffineAccess Cell = access("A", 0, INT64_MIN);
  AffineAccess Down = access("A", -1, 0);
  EXPECT_EQ(preserve(Cell, Down, 1), DistanceValue::noInstance());
}

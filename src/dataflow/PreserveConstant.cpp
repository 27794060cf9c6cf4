//===- dataflow/PreserveConstant.cpp - The p constant of Section 3.1.2 ---===//

#include "dataflow/PreserveConstant.h"

#include "support/CheckedArith.h"

#include <cassert>
#include <stdexcept>

using namespace ardf;

namespace {

/// The conservative result when nothing precise can be said: must-mode
/// preserves nothing (safe underestimate), may-mode preserves everything
/// (safe overestimate).
DistanceValue conservative(ProblemMode Mode) {
  return Mode == ProblemMode::Must ? DistanceValue::noInstance()
                                   : DistanceValue::allInstances();
}

/// Saturates finite distances that already cover the whole iteration
/// range to AllInstances.
DistanceValue clampToTrip(DistanceValue V, int64_t TripCount) {
  if (V.isFinite() && TripCount != UnknownTripCount &&
      V.getDistance() >= TripCount - 1)
    return DistanceValue::allInstances();
  return V;
}

/// Handles a constant kill distance k == C: instances at exactly
/// distance C are killed every iteration. Identical for must and may
/// (a constant k is the paper's "definite kill").
DistanceValue constantKill(Rational C, int64_t Pr, int64_t TripCount) {
  if (!C.isInteger())
    return DistanceValue::allInstances(); // never hits an integer distance
  int64_t CI = C.asInteger();
  if (CI == Pr)
    return DistanceValue::noInstance();
  if (CI < Pr)
    return DistanceValue::allInstances(); // kill outside the range
  return clampToTrip(DistanceValue::finite(CI - 1), TripCount);
}

/// True if the rational \p X is an integer within the iteration range
/// [1, UB] (UB == UnknownTripCount means unbounded).
bool isIntegerIterationInRange(const Rational &X, int64_t TripCount) {
  if (!X.isInteger())
    return false;
  int64_t I = X.asInteger();
  if (I < 1)
    return false;
  return TripCount == UnknownTripCount || I <= TripCount;
}

/// The numeric min-k scan of Section 3.1.2 case (iii): k(i) =
/// (Da*i + Db) / A1 with Da != 0, over integer i in [1, UB].
DistanceValue numericKillScan(int64_t Da, int64_t Db, int64_t A1, int64_t Pr,
                              int64_t TripCount) {
  assert(Da != 0 && A1 != 0 && "numeric scan needs a non-constant k");
  auto KAt = [&](int64_t I) {
    return Rational(checkedAdd(checkedMul(Da, I), Db), A1);
  };

  // Where k crosses pr: k(x) == Pr  <=>  x == (Pr*A1 - Db) / Da.
  Rational XStar(checkedSub(checkedMul(Pr, A1), Db), Da);

  // An exact integer hit k(i) == Pr kills the newest in-range instance
  // in that iteration; nothing is guaranteed to survive.
  if (isIntegerIterationInRange(XStar, TripCount))
    return DistanceValue::noInstance();

  bool SlopePositive = (Da > 0) == (A1 > 0);
  Rational M; // min{ k(i) | i in I, k(i) > Pr }
  if (SlopePositive) {
    // k increasing: the first i above the crossing gives the minimum.
    int64_t I0 = checkedAdd(XStar.floor(), 1);
    if (I0 < 1)
      I0 = 1;
    if (TripCount != UnknownTripCount && I0 > TripCount)
      return DistanceValue::allInstances(); // k <= Pr throughout I
    M = KAt(I0);
  } else {
    // k decreasing: values above Pr form a prefix; its last element
    // attains the minimum above Pr.
    int64_t ILast = checkedSub(XStar.ceil(), 1);
    if (TripCount != UnknownTripCount && ILast > TripCount)
      ILast = TripCount;
    if (ILast < 1)
      return DistanceValue::allInstances();
    M = KAt(ILast);
  }
  assert(M > Rational(Pr) && "scan selected a kill distance below pr");

  int64_t P = M.isInteger() ? M.asInteger() - 1 : M.floor();
  if (P < Pr)
    return DistanceValue::noInstance();
  return clampToTrip(DistanceValue::finite(P), TripCount);
}

/// Preserve constant when the tracked reference is loop-invariant
/// (A1 == 0): all its instances denote the same memory cell.
DistanceValue invariantPreserved(const AffineAccess &D,
                                 const AffineAccess &K, ProblemMode Mode,
                                 int64_t Pr, int64_t TripCount) {
  Poly Diff = D.B - K.B;
  if (K.A.isZero()) {
    // Both invariant: either always the same cell or (provably) never.
    if (Diff.isZero())
      return constantKill(Rational(0), Pr, TripCount);
    if (Diff.isConstant())
      return DistanceValue::allInstances();
    return conservative(Mode);
  }
  // Moving killer over a fixed cell: it can coincide at most once; a
  // single kill invalidates the all-iterations guarantee of a
  // must-problem but is not a definite per-iteration kill for may.
  if (Mode == ProblemMode::May)
    return DistanceValue::allInstances();
  if (!Diff.isConstant() || !K.A.isConstant())
    return DistanceValue::noInstance();
  Rational Hit(Diff.getConstant(), K.A.getConstant());
  if (isIntegerIterationInRange(Hit, TripCount))
    return DistanceValue::noInstance();
  return DistanceValue::allInstances();
}

/// computePreserveConstant for an affine killer, except that an int64
/// overflow throws std::overflow_error.
DistanceValue preserveOrThrow(const PreserveQuery &Q) {
  const AffineAccess &D = *Q.Preserved;
  const AffineAccess &K = *Q.Killer;

  if (D.A.isZero())
    return invariantPreserved(D, K, Q.Mode, Q.Pr, Q.TripCount);

  // Backward problems interchange past and future (Section 3.4), which
  // negates the kill-distance numerator.
  int64_t Sign = Q.Direction == FlowDirection::Backward ? -1 : 1;
  Poly Da = (D.A - K.A).scaled(Sign);
  Poly Db = (D.B - K.B).scaled(Sign);

  if (Da.isZero()) {
    // k(i) == Db / A1 is a constant whenever Db is a rational multiple
    // of A1 (covers the symbolic cases of Section 3.6, e.g. N / N).
    std::optional<Rational> C =
        Db.isZero() ? std::optional<Rational>(Rational(0)) : Db.ratioTo(D.A);
    if (C)
      return constantKill(*C, Q.Pr, Q.TripCount);
    return conservative(Q.Mode);
  }

  // Non-constant k: only a definite (constant) kill lowers p in a
  // may-problem (Section 3.3).
  if (Q.Mode == ProblemMode::May)
    return DistanceValue::allInstances();

  if (!Da.isConstant() || !Db.isConstant() || !D.A.isConstant())
    return conservative(Q.Mode);
  return numericKillScan(Da.getConstant(), Db.getConstant(),
                         D.A.getConstant(), Q.Pr, Q.TripCount);
}

} // namespace

DistanceValue ardf::computePreserveConstant(const PreserveQuery &Q) {
  assert(Q.Preserved && "preserve query without tracked reference");
  assert((Q.Pr == 0 || Q.Pr == 1) && "pr is a predicate");

  // Whole-array kills (non-affine or summary-node killers).
  if (!Q.Killer)
    return conservative(Q.Mode);
  try {
    return preserveOrThrow(Q);
  } catch (const std::overflow_error &) {
    // The kill distance leaves the int64 range: nothing precise is known.
    return conservative(Q.Mode);
  }
}

//===- lattice/Distance.h - Chain lattice of iteration distances -*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The chain lattice L of maximal iteration distance values (Fig. 2 of the
/// paper):
///
///   NoInstance < 0 < 1 < 2 < ... < AllInstances
///
/// A value x for a subscripted reference r denotes the range of the latest
/// x instances of r. In a *must* problem the lattice is used as-is
/// (top = AllInstances, bottom = NoInstance, meet = min); in a *may*
/// problem the lattice is reversed (top = NoInstance, bottom =
/// AllInstances, meet = max) -- see Section 3.3. DistanceValue provides
/// the order-agnostic carrier; solvers pick min or max as their meet.
///
/// The increment operator ++ models the loop exit node i := i + 1
/// (Section 3.1.3): NoInstance and AllInstances are fixed points,
/// finite x maps to x + 1 (saturating to AllInstances at UB - 1 when the
/// trip count UB is known, since UB - 1 already denotes the complete
/// range of iteration instances).
///
/// Representation: one uint64_t holding the order-isomorphic embedding
/// of the chain into the unsigned integers,
///
///   NoInstance   -> 0
///   finite d     -> d + 1            (d in [0, INT64_MAX])
///   AllInstances -> UINT64_MAX
///
/// so chain order *is* unsigned order and min, max, == and < are single
/// integer operations. Every other bit pattern is invalid. Rows of
/// values are therefore flat 8-byte arrays that the packed kernel solver
/// sweeps with plain integer loops (dataflow/VectorOps.h).
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_LATTICE_DISTANCE_H
#define ARDF_LATTICE_DISTANCE_H

#include <cassert>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <type_traits>

namespace ardf {

/// Trip count value standing for "unknown / unbounded".
constexpr int64_t UnknownTripCount = -1;

/// An element of the iteration-distance chain lattice.
class DistanceValue {
public:
  /// Constructs NoInstance (the must-problem bottom).
  constexpr DistanceValue() = default;

  /// Returns the lattice element denoting no instance.
  static constexpr DistanceValue noInstance() { return DistanceValue(); }

  /// Returns the lattice element denoting all instances.
  static constexpr DistanceValue allInstances() {
    return DistanceValue(AllBits);
  }

  /// Returns the finite distance \p D >= 0.
  static DistanceValue finite(int64_t D) {
    assert(D >= 0 && "negative iteration distance");
    return DistanceValue(static_cast<uint64_t>(D) + 1);
  }

  /// Returns finite(D) for D >= 0, noInstance() for negative D. Convenient
  /// for preserve constants computed as ceil(min k) - 1, which may
  /// underflow below the empty range.
  static DistanceValue finiteOrNone(int64_t D) {
    return D < 0 ? noInstance() : finite(D);
  }

  /// True if \p Bits is the encoding of some lattice element (see the
  /// file comment): 0, 1 .. 2^63, or UINT64_MAX.
  static constexpr bool isEncoding(uint64_t Bits) {
    return Bits <= MaxFiniteBits || Bits == AllBits;
  }

  /// The value whose encoding is \p Bits; asserts isEncoding(Bits).
  static DistanceValue fromBits(uint64_t Bits) {
    assert(isEncoding(Bits) && "not a DistanceValue encoding");
    return DistanceValue(Bits);
  }

  /// The encoding of this value.
  uint64_t bits() const { return Bits; }

  bool isNoInstance() const { return Bits == 0; }
  bool isAllInstances() const { return Bits == AllBits; }
  bool isFinite() const { return !isNoInstance() && !isAllInstances(); }

  /// Returns the finite distance; asserts isFinite().
  int64_t getDistance() const {
    assert(isFinite() && "no finite distance");
    return static_cast<int64_t>(Bits - 1);
  }

  /// Total order of the chain: NoInstance < finite ascending < AllInstances.
  bool operator<(const DistanceValue &RHS) const { return Bits < RHS.Bits; }
  bool operator==(const DistanceValue &RHS) const {
    return Bits == RHS.Bits;
  }
  bool operator!=(const DistanceValue &RHS) const { return !(*this == RHS); }
  bool operator<=(const DistanceValue &RHS) const { return !(RHS < *this); }
  bool operator>(const DistanceValue &RHS) const { return RHS < *this; }
  bool operator>=(const DistanceValue &RHS) const { return !(*this < RHS); }

  /// The meet of the must-lattice (Fig. 2): minimum.
  static DistanceValue min(DistanceValue A, DistanceValue B) {
    return A < B ? A : B;
  }

  /// The dual operator / may-lattice meet: maximum.
  static DistanceValue max(DistanceValue A, DistanceValue B) {
    return A < B ? B : A;
  }

  /// The exit-node increment x++ (Section 3.1.3). When \p TripCount is
  /// known, finite values saturate to AllInstances at TripCount - 1. The
  /// largest finite distance has no successor and saturates too: no loop
  /// runs more than INT64_MAX iterations.
  DistanceValue increment(int64_t TripCount = UnknownTripCount) const {
    if (!isFinite())
      return *this;
    int64_t Dist = getDistance();
    if (Dist == INT64_MAX ||
        (TripCount != UnknownTripCount && Dist + 1 >= TripCount - 1))
      return allInstances();
    return finite(Dist + 1);
  }

  /// True if an instance at iteration distance \p Delta is within the
  /// range denoted by this value (used when clients check pr <= delta <= x).
  bool covers(int64_t Delta) const {
    if (isAllInstances())
      return true;
    if (isNoInstance())
      return false;
    return Delta <= getDistance();
  }

  /// Renders "_" (NoInstance), "T" (AllInstances), or the decimal distance,
  /// matching the paper's Table 1 notation.
  std::string toString() const;

private:
  static constexpr uint64_t AllBits = UINT64_MAX;
  static constexpr uint64_t MaxFiniteBits = uint64_t(INT64_MAX) + 1;

  explicit constexpr DistanceValue(uint64_t Bits) : Bits(Bits) {}

  uint64_t Bits = 0;
};

// Result matrices, preserve tables and the packed kernel's rows are flat
// arrays of these cells.
static_assert(sizeof(DistanceValue) == sizeof(uint64_t),
              "DistanceValue must stay one 8-byte cell");
static_assert(std::is_trivially_copyable_v<DistanceValue>,
              "DistanceValue must stay trivially copyable");

std::ostream &operator<<(std::ostream &OS, const DistanceValue &V);

} // namespace ardf

#endif // ARDF_LATTICE_DISTANCE_H

//===- lattice/PackedDistance.h - Packed chain lattice ---------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A branch-free uint64_t encoding of the iteration-distance chain
/// lattice (Fig. 2). The chain
///
///   NoInstance < 0 < 1 < 2 < ... < AllInstances
///
/// embeds order-isomorphically into the unsigned integers:
///
///   NoInstance   -> 0
///   finite d     -> d + 1
///   AllInstances -> UINT64_MAX
///
/// Because the embedding is monotone and injective, chain order *is*
/// unsigned order, so every flow function of the framework becomes
/// straight-line integer arithmetic over flat arrays:
///
///   meet (must)     min(x, y)
///   meet (may)      max(x, y)
///   generate        max(x, pack(0))            (pack(0) == 1)
///   preserve        min(x, pack(p))
///   exit increment  saturating +1, clamped at the packed trip bound
///
/// exactly the shape compilers auto-vectorize. The exact pack/unpack
/// round trip to DistanceValue is what the kernel-vs-reference oracle
/// tests lean on: identical fixed points on both representations.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_LATTICE_PACKEDDISTANCE_H
#define ARDF_LATTICE_PACKEDDISTANCE_H

#include "lattice/Distance.h"

#include <algorithm>
#include <cstdint>

namespace ardf {
namespace packed {

/// A packed chain-lattice element. Plain integer on purpose: the kernel
/// solver wants flat std::vector<uint64_t> rows it can sweep branch-free.
using PackedDistance = uint64_t;

/// pack(DistanceValue::noInstance()).
constexpr PackedDistance NoInstance = 0;

/// pack(DistanceValue::allInstances()).
constexpr PackedDistance AllInstances = UINT64_MAX;

/// pack(DistanceValue::finite(0)) — the generate constant.
constexpr PackedDistance Zero = 1;

/// Packs the finite distance \p D >= 0.
constexpr PackedDistance finite(int64_t D) {
  return static_cast<PackedDistance>(D) + 1;
}

/// Exact embedding of a DistanceValue.
inline PackedDistance pack(DistanceValue V) {
  if (V.isNoInstance())
    return NoInstance;
  if (V.isAllInstances())
    return AllInstances;
  return finite(V.getDistance());
}

/// Exact inverse of pack.
inline DistanceValue unpack(PackedDistance X) {
  if (X == NoInstance)
    return DistanceValue::noInstance();
  if (X == AllInstances)
    return DistanceValue::allInstances();
  return DistanceValue::finite(static_cast<int64_t>(X - 1));
}

/// The must-lattice meet: minimum in chain == unsigned order.
constexpr PackedDistance meetMust(PackedDistance A, PackedDistance B) {
  return A < B ? A : B;
}

/// The may-lattice meet (dual): maximum.
constexpr PackedDistance meetMay(PackedDistance A, PackedDistance B) {
  return A < B ? B : A;
}

/// The packed saturation bound of the exit increment for \p TripCount:
/// increment(x, incrementBound(T)) == pack(unpack(x).increment(T)) for
/// every packed x. The reference saturates finite d to AllInstances when
/// d + 1 >= T - 1; the incremented packed candidate is d + 2, so the
/// clamp threshold is T itself. Trip counts below 2 make every finite
/// increment saturate (candidates are >= 2), and an unknown trip count
/// never clamps anything but AllInstances.
constexpr uint64_t incrementBound(int64_t TripCount) {
  if (TripCount == UnknownTripCount)
    return AllInstances;
  return static_cast<uint64_t>(std::max<int64_t>(TripCount, 2));
}

/// The exit-node increment x++ (Section 3.1.3), branch-free: NoInstance
/// and AllInstances are fixed points, finite values advance by one and
/// clamp to AllInstances at \p Bound (from incrementBound). Compiles to
/// two compares, an add, and a select.
constexpr PackedDistance increment(PackedDistance X, uint64_t Bound) {
  PackedDistance Next =
      X + (static_cast<uint64_t>(X != NoInstance) &
           static_cast<uint64_t>(X != AllInstances));
  return Next >= Bound ? AllInstances : Next;
}

/// covers on the packed form: Delta within the range denoted by \p X.
constexpr bool covers(PackedDistance X, int64_t Delta) {
  return X == AllInstances ||
         (X != NoInstance && static_cast<uint64_t>(Delta) < X);
}

} // namespace packed
} // namespace ardf

#endif // ARDF_LATTICE_PACKEDDISTANCE_H

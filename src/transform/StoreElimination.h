//===- transform/StoreElimination.h - Redundant stores (4.2.1) -*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Eliminates delta-redundant stores (Section 4.2.1, Fig. 6): a store
/// whose element is rewritten delta iterations later without an
/// intervening use — detected from the delta-busy-stores instance — is
/// removed from the loop, and the final delta_max iterations are
/// unpeeled into an epilogue loop that still performs every store.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_TRANSFORM_STOREELIMINATION_H
#define ARDF_TRANSFORM_STOREELIMINATION_H

#include "ir/Program.h"

#include <string>
#include <vector>

namespace ardf {

/// Result of redundant store elimination.
struct StoreElimResult {
  Program Transformed;

  /// Number of store statements removed from loop bodies.
  unsigned StoresEliminated = 0;

  /// Iterations unpeeled across all transformed loops (max delta).
  int64_t UnpeeledIterations = 0;

  /// Human-readable notes, one per eliminated store:
  /// "A[i + 1] is 1-redundant (overwritten by A[i])".
  std::vector<std::string> Notes;
};

/// Applies redundant store elimination to every outermost loop that
/// \p P's loop-nesting tree analyzes as written (LoopNest.h); others, and
/// loops whose trip count is too small to unpeel, are left unchanged.
StoreElimResult eliminateRedundantStores(const Program &P);

} // namespace ardf

#endif // ARDF_TRANSFORM_STOREELIMINATION_H

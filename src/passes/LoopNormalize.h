//===- passes/LoopNormalize.h - Loop normalization --------------*- C++ -*-==//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loop normalization, a precondition of the analysis (Section 1: "all
/// loops are normalized, i.e., the induction variable ranges from 1 to
/// an upper bound UB with increment one"). A loop
///
///   do i = lo, hi, s { body(i) }          (s > 0)
///
/// becomes
///
///   do i = 1, (hi - lo + s) / s { body(s*(i-1) + lo) }
///
/// and symmetrically for negative steps. Affine subscripts stay affine
/// under the linear substitution.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_PASSES_LOOPNORMALIZE_H
#define ARDF_PASSES_LOOPNORMALIZE_H

#include "ir/Program.h"

namespace ardf {

/// Result of normalization.
struct NormalizeResult {
  Program Transformed;
  unsigned LoopsNormalized = 0;
};

/// Normalizes every loop (at any nesting depth) of \p P.
NormalizeResult normalizeLoops(const Program &P);

/// Per-loop canonicalizer: returns \p Loop in normalized form (lower
/// bound 1, step 1) with the induction variable substituted through the
/// body. Inner statements are kept as-is — callers that want nested
/// loops normalized too (the loop-nest reducer works bottom-up) must
/// normalize them first. An already-normalized loop comes back
/// unchanged, without a copy. Source locations are preserved throughout.
std::unique_ptr<DoLoopStmt> normalizeLoop(std::unique_ptr<DoLoopStmt> Loop);

} // namespace ardf

#endif // ARDF_PASSES_LOOPNORMALIZE_H

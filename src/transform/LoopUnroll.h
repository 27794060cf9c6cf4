//===- transform/LoopUnroll.h - Loop unrolling (Section 4.3) ---*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The loop unrolling transformation consumed by the controlled
/// unrolling strategy of Section 4.3: the body is replicated Factor
/// times with the induction variable shifted (i, i+1, ..., i+Factor-1),
/// the main loop steps by Factor, and leftover iterations run in a
/// remainder loop.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_TRANSFORM_LOOPUNROLL_H
#define ARDF_TRANSFORM_LOOPUNROLL_H

#include "ir/Program.h"

#include <optional>

namespace ardf {

/// Unrolls \p Loop by \p Factor. Requires a normalized loop with a
/// constant trip count and Factor >= 2; returns nullopt otherwise. The
/// result is the main unrolled loop, followed by a remainder loop when
/// the trip count is not divisible by Factor.
std::optional<StmtList> unrollLoop(const DoLoopStmt &Loop, unsigned Factor);

/// Unrolls by \p Factor every outermost `do` loop that \p P's
/// loop-nesting tree supports and unrollLoop accepts; others are kept.
Program unrollProgram(const Program &P, unsigned Factor);

} // namespace ardf

#endif // ARDF_TRANSFORM_LOOPUNROLL_H

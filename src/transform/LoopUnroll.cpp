//===- transform/LoopUnroll.cpp - Loop unrolling (Section 4.3) -----------===//

#include "transform/LoopUnroll.h"

#include "analysis/LoopNest.h"
#include "ir/IRBuilder.h"
#include "lattice/Distance.h"
#include "transform/Rewrite.h"

using namespace ardf;

std::optional<StmtList> ardf::unrollLoop(const DoLoopStmt &Loop,
                                         unsigned Factor) {
  if (Factor < 2 || !Loop.isNormalized())
    return std::nullopt;
  int64_t Trip = Loop.getConstantTripCount();
  if (Trip == UnknownTripCount || Trip < static_cast<int64_t>(Factor))
    return std::nullopt;

  const std::string &IV = Loop.getIndVar();
  int64_t MainTrip = Trip - Trip % Factor;

  StmtList UnrolledBody;
  for (unsigned K = 0; K != Factor; ++K) {
    ExprPtr Shifted = K == 0 ? var(IV) : add(var(IV), lit(K));
    StmtList Copy = substituteScalar(Loop.getBody(), IV, *Shifted);
    for (StmtPtr &S : Copy)
      UnrolledBody.push_back(std::move(S));
  }

  StmtList Result;
  Result.push_back(std::make_unique<DoLoopStmt>(
      IV, lit(1), lit(MainTrip), std::move(UnrolledBody),
      static_cast<int64_t>(Factor)));
  if (MainTrip < Trip)
    Result.push_back(std::make_unique<DoLoopStmt>(
        IV, lit(MainTrip + 1), lit(Trip), cloneStmts(Loop.getBody())));
  return Result;
}

Program ardf::unrollProgram(const Program &P, unsigned Factor) {
  RewritePlan Plan;
  LoopNestTree Nest(P);
  for (const NestLoop *Root : Nest.roots()) {
    const auto *Loop = dyn_cast<DoLoopStmt>(Root->Source);
    if (!Loop || !Root->isSupported())
      continue;
    std::optional<StmtList> Unrolled = unrollLoop(*Loop, Factor);
    if (!Unrolled)
      continue;
    Plan.RemoveStmts.insert(Loop);
    Plan.InsertAfter[Loop] = std::move(*Unrolled);
  }
  return rewriteProgram(P, Plan);
}

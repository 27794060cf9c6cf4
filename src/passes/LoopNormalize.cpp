//===- passes/LoopNormalize.cpp - Loop normalization ---------------------===//

#include "passes/LoopNormalize.h"

#include "ir/IRBuilder.h"
#include "support/CheckedArith.h"
#include "transform/Rewrite.h"

using namespace ardf;

namespace {

StmtList normalizeStmts(const StmtList &Stmts, unsigned &Count);

StmtPtr normalizeStmt(const Stmt &S, unsigned &Count) {
  StmtPtr Copy;
  switch (S.getKind()) {
  case Stmt::Kind::Assign:
  case Stmt::Kind::Break:
    return S.clone();
  case Stmt::Kind::If: {
    const auto *IS = cast<IfStmt>(&S);
    Copy = std::make_unique<IfStmt>(IS->getCond()->clone(),
                                    normalizeStmts(IS->getThen(), Count),
                                    normalizeStmts(IS->getElse(), Count));
    break;
  }
  case Stmt::Kind::While: {
    // While loops are not counted loops; the loop-nest recognizer
    // reduces the counted pattern separately. Normalize inside only.
    const auto *WS = cast<WhileStmt>(&S);
    Copy = std::make_unique<WhileStmt>(WS->getCond()->clone(),
                                       normalizeStmts(WS->getBody(), Count));
    break;
  }
  case Stmt::Kind::DoLoop: {
    const auto *DL = cast<DoLoopStmt>(&S);
    auto Loop = std::make_unique<DoLoopStmt>(
        DL->getIndVar(), DL->getLower()->clone(), DL->getUpper()->clone(),
        normalizeStmts(DL->getBody(), Count), DL->getStep());
    Loop->setLoc(DL->getLoc());
    if (!DL->isNormalized())
      ++Count;
    return normalizeLoop(std::move(Loop));
  }
  }
  if (Copy)
    Copy->setLoc(S.getLoc());
  return Copy;
}

StmtList normalizeStmts(const StmtList &Stmts, unsigned &Count) {
  StmtList Result;
  Result.reserve(Stmts.size());
  for (const StmtPtr &S : Stmts)
    Result.push_back(normalizeStmt(*S, Count));
  return Result;
}

} // namespace

NormalizeResult ardf::normalizeLoops(const Program &P) {
  NormalizeResult Result;
  for (const ArrayDecl &D : P.arrayDecls()) {
    std::vector<ExprPtr> Sizes;
    for (const ExprPtr &S : D.DimSizes)
      Sizes.push_back(S->clone());
    Result.Transformed.declareArray(D.Name, std::move(Sizes));
  }
  StmtList Stmts = normalizeStmts(P.getStmts(), Result.LoopsNormalized);
  for (StmtPtr &S : Stmts)
    Result.Transformed.addStmt(std::move(S));
  return Result;
}

std::unique_ptr<DoLoopStmt>
ardf::normalizeLoop(std::unique_ptr<DoLoopStmt> Loop) {
  if (Loop->isNormalized())
    return Loop;
  int64_t Step = Loop->getStep();
  const Expr *Lower = Loop->getLower();
  const std::string &IV = Loop->getIndVar();
  // Trip count: (hi - lo + s) / s for s > 0, (lo - hi - s) / -s for
  // s < 0, i.e. (to - from + |s|) / |s| from the first bound the loop
  // runs from to the last; folded when both bounds are literals and the
  // count fits in int64.
  int64_t Mag = Step > 0 ? Step : checkedNeg(Step);
  const Expr *From = Step > 0 ? Lower : Loop->getUpper();
  const Expr *To = Step > 0 ? Loop->getUpper() : Lower;
  const auto *FromLit = dyn_cast<IntLit>(From);
  const auto *ToLit = dyn_cast<IntLit>(To);
  ExprPtr Trip;
  int64_t N = 0;
  if (Mag != 0 && FromLit && ToLit &&
      !__builtin_sub_overflow(ToLit->getValue(), FromLit->getValue(), &N) &&
      !__builtin_add_overflow(N, Mag, &N))
    Trip = lit(N / Mag);
  else
    Trip = binop(BinaryOpKind::Div,
                 add(sub(To->clone(), From->clone()), lit(Mag)), lit(Mag));
  // i_old = s * (i - 1) + lo; folded to i + (lo - 1) for unit steps
  // with a literal lower bound to keep subscripts tidy.
  ExprPtr OldIV;
  const auto *LowerLit = dyn_cast<IntLit>(Lower);
  if (Step == 1 && LowerLit && LowerLit->getValue() != INT64_MIN) {
    int64_t Off = LowerLit->getValue() - 1;
    OldIV = Off == 0 ? var(IV) : add(var(IV), lit(Off));
  } else {
    OldIV = add(mul(lit(Step), sub(var(IV), lit(1))), Lower->clone());
  }
  auto Result = std::make_unique<DoLoopStmt>(
      IV, lit(1), std::move(Trip),
      substituteScalar(Loop->getBody(), IV, *OldIV));
  Result->setLoc(Loop->getLoc());
  return Result;
}

//===- ir/Stmt.cpp - Statement nodes of the loop IR ----------------------===//

#include "ir/Stmt.h"

#include <cstdint>
#include <unordered_map>

using namespace ardf;

Stmt::~Stmt() = default;

StmtList ardf::cloneStmts(const StmtList &Stmts) {
  StmtList Result;
  Result.reserve(Stmts.size());
  for (const StmtPtr &S : Stmts)
    Result.push_back(S->clone());
  return Result;
}

StmtPtr Stmt::clone() const {
  StmtPtr Copy;
  switch (TheKind) {
  case Kind::Assign: {
    const auto *AS = cast<AssignStmt>(this);
    Copy = std::make_unique<AssignStmt>(AS->getLHS()->clone(),
                                        AS->getRHS()->clone());
    break;
  }
  case Kind::If: {
    const auto *IS = cast<IfStmt>(this);
    Copy = std::make_unique<IfStmt>(IS->getCond()->clone(),
                                    cloneStmts(IS->getThen()),
                                    cloneStmts(IS->getElse()));
    break;
  }
  case Kind::DoLoop: {
    const auto *DL = cast<DoLoopStmt>(this);
    Copy = std::make_unique<DoLoopStmt>(
        DL->getIndVar(), DL->getLower()->clone(), DL->getUpper()->clone(),
        cloneStmts(DL->getBody()), DL->getStep());
    break;
  }
  case Kind::While: {
    const auto *WS = cast<WhileStmt>(this);
    Copy = std::make_unique<WhileStmt>(WS->getCond()->clone(),
                                       cloneStmts(WS->getBody()));
    break;
  }
  case Kind::Break:
    Copy = std::make_unique<BreakStmt>();
    break;
  }
  if (Copy)
    Copy->setLoc(getLoc());
  return Copy;
}

bool Stmt::equals(const Stmt &RHS) const {
  if (TheKind != RHS.getKind())
    return false;
  switch (TheKind) {
  case Kind::Assign: {
    const auto *A = cast<AssignStmt>(this);
    const auto *B = cast<AssignStmt>(&RHS);
    return A->getLHS()->equals(*B->getLHS()) &&
           A->getRHS()->equals(*B->getRHS());
  }
  case Kind::If: {
    const auto *A = cast<IfStmt>(this);
    const auto *B = cast<IfStmt>(&RHS);
    return A->getCond()->equals(*B->getCond()) &&
           stmtsEqual(A->getThen(), B->getThen()) &&
           stmtsEqual(A->getElse(), B->getElse());
  }
  case Kind::DoLoop: {
    const auto *A = cast<DoLoopStmt>(this);
    const auto *B = cast<DoLoopStmt>(&RHS);
    return A->getIndVar() == B->getIndVar() && A->getStep() == B->getStep() &&
           A->getLower()->equals(*B->getLower()) &&
           A->getUpper()->equals(*B->getUpper()) &&
           stmtsEqual(A->getBody(), B->getBody());
  }
  case Kind::While: {
    const auto *A = cast<WhileStmt>(this);
    const auto *B = cast<WhileStmt>(&RHS);
    return A->getCond()->equals(*B->getCond()) &&
           stmtsEqual(A->getBody(), B->getBody());
  }
  case Kind::Break:
    return true;
  }
  return false;
}

bool ardf::stmtsEqual(const StmtList &A, const StmtList &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (!A[I]->equals(*B[I]))
      return false;
  return true;
}

int64_t DoLoopStmt::getConstantTripCount() const {
  const auto *Lo = dyn_cast<IntLit>(Lower.get());
  const auto *Hi = dyn_cast<IntLit>(Upper.get());
  int64_t Count = 0;
  if (!Lo || !Hi || Step == 0 ||
      __builtin_sub_overflow(Hi->getValue(), Lo->getValue(), &Count) ||
      __builtin_add_overflow(Count, Step, &Count) ||
      (Count == INT64_MIN && Step == -1))
    return -1;
  Count /= Step;
  return Count < 0 ? 0 : Count;
}

bool DoLoopStmt::isNormalized() const {
  const auto *Lo = dyn_cast<IntLit>(Lower.get());
  return Lo && Lo->getValue() == 1 && Step == 1;
}

void ardf::forEachStmt(const Stmt &S,
                       const std::function<void(const Stmt &)> &Fn) {
  Fn(S);
  switch (S.getKind()) {
  case Stmt::Kind::Assign:
    break;
  case Stmt::Kind::If: {
    const auto *IS = cast<IfStmt>(&S);
    forEachStmt(IS->getThen(), Fn);
    forEachStmt(IS->getElse(), Fn);
    break;
  }
  case Stmt::Kind::DoLoop:
    forEachStmt(cast<DoLoopStmt>(&S)->getBody(), Fn);
    break;
  case Stmt::Kind::While:
    forEachStmt(cast<WhileStmt>(&S)->getBody(), Fn);
    break;
  case Stmt::Kind::Break:
    break;
  }
}

void ardf::forEachStmt(const StmtList &Stmts,
                       const std::function<void(const Stmt &)> &Fn) {
  for (const StmtPtr &S : Stmts)
    forEachStmt(*S, Fn);
}

std::vector<unsigned>
ardf::preorderIds(const StmtList &Stmts,
                  const std::vector<const Stmt *> &Targets) {
  std::unordered_map<const Stmt *, unsigned> IdOf;
  for (const Stmt *T : Targets)
    IdOf.emplace(T, 0);
  unsigned NextId = 0;
  forEachStmt(Stmts, [&](const Stmt &S) {
    ++NextId;
    if (auto It = IdOf.find(&S); It != IdOf.end())
      It->second = NextId;
  });
  std::vector<unsigned> Ids;
  Ids.reserve(Targets.size());
  for (const Stmt *T : Targets)
    Ids.push_back(IdOf[T]);
  return Ids;
}

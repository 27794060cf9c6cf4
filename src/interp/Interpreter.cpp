//===- interp/Interpreter.cpp - Source-level loop interpreter ------------===//

#include "interp/Interpreter.h"

#include "support/WrapArith.h"

#include <cassert>

using namespace ardf;

void Interpreter::setScalar(const std::string &Name, int64_t Value) {
  State.Scalars[Name] = Value;
}

void Interpreter::setArrayCell(const std::string &Array, int64_t Index,
                               int64_t Value) {
  State.Arrays[Array][Index] = Value;
}

void Interpreter::seedArray(const std::string &Array, int64_t Count,
                            uint64_t Seed) {
  // SplitMix64: deterministic, platform-independent.
  uint64_t X = Seed;
  for (int64_t I = 0; I != Count; ++I) {
    X += 0x9e3779b97f4a7c15ULL;
    uint64_t Z = X;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    Z ^= Z >> 31;
    State.Arrays[Array][I] = static_cast<int64_t>(Z % 1000) - 500;
  }
}

int64_t Interpreter::arrayCell(const std::string &Array,
                               int64_t Index) const {
  auto ArrIt = State.Arrays.find(Array);
  if (ArrIt == State.Arrays.end())
    return 0;
  auto CellIt = ArrIt->second.find(Index);
  return CellIt == ArrIt->second.end() ? 0 : CellIt->second;
}

int64_t Interpreter::scalar(const std::string &Name) const {
  auto It = State.Scalars.find(Name);
  return It == State.Scalars.end() ? 0 : It->second;
}

int64_t Interpreter::flattenIndex(const ArrayRefExpr &Ref) {
  // Row-major flattening with the declared dimension sizes, consistent
  // with affine/linearizeSubscripts.
  const ArrayDecl *Decl = Prog->getArrayDecl(Ref.getName());
  int64_t Index = 0;
  for (unsigned I = 0, N = Ref.getNumSubscripts(); I != N; ++I) {
    if (I > 0) {
      assert(Decl && Decl->getNumDims() == N &&
             "multi-dimensional reference to undeclared array");
      Index *= evalExpr(*Decl->DimSizes[I]);
    }
    Index += evalExpr(*Ref.getSubscript(I));
  }
  return Index;
}

int64_t Interpreter::evalExpr(const Expr &E) {
  switch (E.getKind()) {
  case Expr::Kind::IntLit:
    return cast<IntLit>(&E)->getValue();
  case Expr::Kind::VarRef:
    return scalar(cast<VarRef>(&E)->getName());
  case Expr::Kind::ArrayRef: {
    const auto *AR = cast<ArrayRefExpr>(&E);
    int64_t Index = flattenIndex(*AR);
    ++Stats.ArrayLoads;
    return arrayCell(AR->getName(), Index);
  }
  case Expr::Kind::Unary: {
    const auto *UE = cast<UnaryExpr>(&E);
    int64_t V = evalExpr(*UE->getOperand());
    return UE->getOp() == UnaryOpKind::Neg ? wrapSub(0, V) : !V;
  }
  case Expr::Kind::Binary: {
    const auto *BE = cast<BinaryExpr>(&E);
    int64_t L = evalExpr(*BE->getLHS());
    // Short-circuit logical operators like a real compiler would.
    if (BE->getOp() == BinaryOpKind::And)
      return L != 0 && evalExpr(*BE->getRHS()) != 0;
    if (BE->getOp() == BinaryOpKind::Or)
      return L != 0 || evalExpr(*BE->getRHS()) != 0;
    int64_t R = evalExpr(*BE->getRHS());
    switch (BE->getOp()) {
    case BinaryOpKind::Add:
      return wrapAdd(L, R);
    case BinaryOpKind::Sub:
      return wrapSub(L, R);
    case BinaryOpKind::Mul:
      return wrapMul(L, R);
    case BinaryOpKind::Div:
      return wrapDiv(L, R);
    case BinaryOpKind::Eq:
      return L == R;
    case BinaryOpKind::Ne:
      return L != R;
    case BinaryOpKind::Lt:
      return L < R;
    case BinaryOpKind::Le:
      return L <= R;
    case BinaryOpKind::Gt:
      return L > R;
    case BinaryOpKind::Ge:
      return L >= R;
    case BinaryOpKind::And:
    case BinaryOpKind::Or:
      break;
    }
    return 0;
  }
  }
  return 0;
}

void Interpreter::execStmt(const Stmt &S) {
  ++Stats.StatementsExecuted;
  switch (S.getKind()) {
  case Stmt::Kind::Assign: {
    const auto *AS = cast<AssignStmt>(&S);
    int64_t Value = evalExpr(*AS->getRHS());
    if (const ArrayRefExpr *Target = AS->getArrayTarget()) {
      int64_t Index = flattenIndex(*Target);
      ++Stats.ArrayStores;
      State.Arrays[Target->getName()][Index] = Value;
    } else {
      ++Stats.ScalarAssignments;
      State.Scalars[cast<VarRef>(AS->getLHS())->getName()] = Value;
    }
    return;
  }
  case Stmt::Kind::If: {
    const auto *IS = cast<IfStmt>(&S);
    if (evalExpr(*IS->getCond()) != 0)
      execStmts(IS->getThen());
    else
      execStmts(IS->getElse());
    return;
  }
  case Stmt::Kind::DoLoop: {
    const auto *DL = cast<DoLoopStmt>(&S);
    int64_t Lower = evalExpr(*DL->getLower());
    int64_t Upper = evalExpr(*DL->getUpper());
    int64_t Step = DL->getStep();
    assert(Step != 0 && "zero loop step");
    for (int64_t I = Lower; Step > 0 ? I <= Upper : I >= Upper; I += Step) {
      State.Scalars[DL->getIndVar()] = I;
      ++Stats.LoopIterations;
      execStmts(DL->getBody());
      if (BreakPending) {
        BreakPending = false;
        break;
      }
    }
    return;
  }
  case Stmt::Kind::While: {
    const auto *WS = cast<WhileStmt>(&S);
    while (evalExpr(*WS->getCond()) != 0) {
      ++Stats.LoopIterations;
      execStmts(WS->getBody());
      if (BreakPending) {
        BreakPending = false;
        break;
      }
    }
    return;
  }
  case Stmt::Kind::Break:
    BreakPending = true;
    return;
  }
}

void Interpreter::execStmts(const StmtList &Stmts) {
  for (const StmtPtr &S : Stmts) {
    execStmt(*S);
    if (BreakPending)
      return;
  }
}

void Interpreter::run() { execStmts(Prog->getStmts()); }

Interpreter ardf::interpret(const Program &P,
                            const std::map<std::string, int64_t> &Scalars) {
  Interpreter I(P);
  for (const auto &[Name, Value] : Scalars)
    I.setScalar(Name, Value);
  I.run();
  return I;
}

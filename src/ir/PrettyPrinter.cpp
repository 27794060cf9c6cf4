//===- ir/PrettyPrinter.cpp - Source form printing of the IR -------------===//

#include "ir/PrettyPrinter.h"

#include "support/StrAppend.h"

#include <ostream>
#include <sstream>

using namespace ardf;

namespace {

/// Binding strength used to parenthesize only where needed.
unsigned precedence(BinaryOpKind Op) {
  switch (Op) {
  case BinaryOpKind::Or:
    return 1;
  case BinaryOpKind::And:
    return 2;
  case BinaryOpKind::Eq:
  case BinaryOpKind::Ne:
  case BinaryOpKind::Lt:
  case BinaryOpKind::Le:
  case BinaryOpKind::Gt:
  case BinaryOpKind::Ge:
    return 3;
  case BinaryOpKind::Add:
  case BinaryOpKind::Sub:
    return 4;
  case BinaryOpKind::Mul:
  case BinaryOpKind::Div:
    return 5;
  }
  return 0;
}

void appendExprPrec(std::string &Out, const Expr &E, unsigned ParentPrec) {
  switch (E.getKind()) {
  case Expr::Kind::IntLit:
    strAppend(Out, cast<IntLit>(&E)->getValue());
    return;
  case Expr::Kind::VarRef:
    Out += cast<VarRef>(&E)->getName();
    return;
  case Expr::Kind::ArrayRef: {
    const auto *AR = cast<ArrayRefExpr>(&E);
    strAppend(Out, AR->getName(), '[');
    for (unsigned I = 0, N = AR->getNumSubscripts(); I != N; ++I) {
      if (I)
        Out += ", ";
      appendExprPrec(Out, *AR->getSubscript(I), 0);
    }
    Out += ']';
    return;
  }
  case Expr::Kind::Binary: {
    const auto *BE = cast<BinaryExpr>(&E);
    unsigned Prec = precedence(BE->getOp());
    bool NeedParens = Prec < ParentPrec;
    if (NeedParens)
      Out += '(';
    appendExprPrec(Out, *BE->getLHS(), Prec);
    strAppend(Out, ' ', spelling(BE->getOp()), ' ');
    // Right operand binds one tighter so that a - b - c prints with
    // explicit left association preserved.
    appendExprPrec(Out, *BE->getRHS(), Prec + 1);
    if (NeedParens)
      Out += ')';
    return;
  }
  case Expr::Kind::Unary: {
    const auto *UE = cast<UnaryExpr>(&E);
    Out += spelling(UE->getOp());
    appendExprPrec(Out, *UE->getOperand(), 6);
    return;
  }
  }
}

void indentBy(std::ostream &OS, unsigned Indent) {
  for (unsigned I = 0; I != Indent; ++I)
    OS << ' ';
}

} // namespace

void ardf::appendExpr(std::string &Out, const Expr &E) {
  appendExprPrec(Out, E, 0);
}

void ardf::printExpr(std::ostream &OS, const Expr &E) {
  OS << exprToString(E);
}

void ardf::printStmt(std::ostream &OS, const Stmt &S, unsigned Indent) {
  indentBy(OS, Indent);
  switch (S.getKind()) {
  case Stmt::Kind::Assign: {
    const auto *AS = cast<AssignStmt>(&S);
    printExpr(OS, *AS->getLHS());
    OS << " = ";
    printExpr(OS, *AS->getRHS());
    OS << ";\n";
    return;
  }
  case Stmt::Kind::If: {
    const auto *IS = cast<IfStmt>(&S);
    OS << "if (";
    printExpr(OS, *IS->getCond());
    OS << ") {\n";
    printStmts(OS, IS->getThen(), Indent + 2);
    indentBy(OS, Indent);
    OS << '}';
    if (IS->hasElse()) {
      OS << " else {\n";
      printStmts(OS, IS->getElse(), Indent + 2);
      indentBy(OS, Indent);
      OS << '}';
    }
    OS << '\n';
    return;
  }
  case Stmt::Kind::DoLoop: {
    const auto *DL = cast<DoLoopStmt>(&S);
    OS << "do " << DL->getIndVar() << " = ";
    printExpr(OS, *DL->getLower());
    OS << ", ";
    printExpr(OS, *DL->getUpper());
    if (DL->getStep() != 1)
      OS << ", " << DL->getStep();
    OS << " {\n";
    printStmts(OS, DL->getBody(), Indent + 2);
    indentBy(OS, Indent);
    OS << "}\n";
    return;
  }
  case Stmt::Kind::While: {
    const auto *WS = cast<WhileStmt>(&S);
    OS << "while (";
    printExpr(OS, *WS->getCond());
    OS << ") {\n";
    printStmts(OS, WS->getBody(), Indent + 2);
    indentBy(OS, Indent);
    OS << "}\n";
    return;
  }
  case Stmt::Kind::Break:
    OS << "break;\n";
    return;
  }
}

void ardf::printStmts(std::ostream &OS, const StmtList &Stmts,
                      unsigned Indent) {
  for (const StmtPtr &S : Stmts)
    printStmt(OS, *S, Indent);
}

void ardf::printProgram(std::ostream &OS, const Program &P) {
  for (const ArrayDecl &D : P.arrayDecls()) {
    OS << "array " << D.Name << '[';
    for (unsigned I = 0, N = D.getNumDims(); I != N; ++I) {
      if (I)
        OS << ", ";
      printExpr(OS, *D.DimSizes[I]);
    }
    OS << "];\n";
  }
  printStmts(OS, P.getStmts());
}

std::string ardf::exprToString(const Expr &E) {
  std::string Out;
  appendExpr(Out, E);
  return Out;
}

std::string ardf::stmtToString(const Stmt &S) {
  std::ostringstream OS;
  printStmt(OS, S);
  return OS.str();
}

std::string ardf::programToString(const Program &P) {
  std::ostringstream OS;
  printProgram(OS, P);
  return OS.str();
}

//===- ir/PrettyPrinter.h - Source form printing of the IR -----*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prints IR trees back in the surface syntax accepted by the parser, so
/// that print(parse(x)) == print(parse(print(parse(x)))) round-trips.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_IR_PRETTYPRINTER_H
#define ARDF_IR_PRETTYPRINTER_H

#include "ir/Program.h"

#include <iosfwd>
#include <string>

namespace ardf {

/// Appends \p E in surface syntax to \p Out (the one expression
/// printer; printExpr and exprToString go through it).
void appendExpr(std::string &Out, const Expr &E);

/// Prints \p E in surface syntax.
void printExpr(std::ostream &OS, const Expr &E);

/// Prints \p S in surface syntax, indented by \p Indent spaces.
void printStmt(std::ostream &OS, const Stmt &S, unsigned Indent = 0);

/// Prints a statement list.
void printStmts(std::ostream &OS, const StmtList &Stmts, unsigned Indent = 0);

/// Prints the whole program (declarations then statements).
void printProgram(std::ostream &OS, const Program &P);

/// Returns printExpr output as a string.
std::string exprToString(const Expr &E);

/// Returns printStmt output as a string.
std::string stmtToString(const Stmt &S);

/// Returns printProgram output as a string.
std::string programToString(const Program &P);

} // namespace ardf

#endif // ARDF_IR_PRETTYPRINTER_H

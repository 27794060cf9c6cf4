//===- ir/Stmt.h - Statement nodes of the loop IR --------------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statement nodes of the Fortran-like loop IR: assignments, structured
/// conditionals, and DO loops. The paper assumes single-entry single-exit
/// loops controlled by a basic induction variable; arbitrary gotos are not
/// representable, which matches the analysis preconditions (Section 1).
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_IR_STMT_H
#define ARDF_IR_STMT_H

#include "ir/Expr.h"
#include "ir/SourceLoc.h"

#include <memory>
#include <string>
#include <vector>

namespace ardf {

class Stmt;
using StmtPtr = std::unique_ptr<Stmt>;
using StmtList = std::vector<StmtPtr>;

/// Base class of all statement nodes.
class Stmt {
public:
  enum class Kind { Assign, If, DoLoop, While, Break };

  explicit Stmt(Kind K) : TheKind(K) {}
  virtual ~Stmt();

  Kind getKind() const { return TheKind; }

  /// Source position of the statement's first token; invalid for IR
  /// built programmatically. Preserved by clone().
  SourceLoc getLoc() const { return Loc; }
  void setLoc(SourceLoc L) { Loc = L; }

  /// Deep-copies this statement tree (including source locations).
  StmtPtr clone() const;

  /// Structural equality of two statement trees. Source locations are
  /// ignored, like Expr::equals, so a parsed tree and its re-parsed
  /// pretty-print compare equal.
  bool equals(const Stmt &RHS) const;

private:
  const Kind TheKind;
  SourceLoc Loc;
};

/// Deep-copies a statement list.
StmtList cloneStmts(const StmtList &Stmts);

/// Element-wise structural equality of two statement lists.
bool stmtsEqual(const StmtList &A, const StmtList &B);

/// An assignment `lhs := rhs` where lhs is a scalar or an array reference.
class AssignStmt : public Stmt {
public:
  AssignStmt(ExprPtr LHS, ExprPtr RHS)
      : Stmt(Kind::Assign), LHS(std::move(LHS)), RHS(std::move(RHS)) {
    assert((isa<VarRef>(this->LHS.get()) ||
            isa<ArrayRefExpr>(this->LHS.get())) &&
           "assignment target must be a scalar or array reference");
  }

  const Expr *getLHS() const { return LHS.get(); }
  const Expr *getRHS() const { return RHS.get(); }

  /// Returns the array reference on the left-hand side, or null if the
  /// target is a scalar.
  const ArrayRefExpr *getArrayTarget() const {
    return dyn_cast<ArrayRefExpr>(LHS.get());
  }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Assign; }

private:
  ExprPtr LHS;
  ExprPtr RHS;
};

/// A structured conditional `if (cond) { then } [else { else }]`.
class IfStmt : public Stmt {
public:
  IfStmt(ExprPtr Cond, StmtList Then, StmtList Else)
      : Stmt(Kind::If), Cond(std::move(Cond)), Then(std::move(Then)),
        Else(std::move(Else)) {}

  const Expr *getCond() const { return Cond.get(); }
  const StmtList &getThen() const { return Then; }
  const StmtList &getElse() const { return Else; }
  bool hasElse() const { return !Else.empty(); }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::If; }

private:
  ExprPtr Cond;
  StmtList Then;
  StmtList Else;
};

/// A DO loop `do iv = lower, upper { body }` with unit increment.
///
/// Loop normalization (passes/LoopNormalize) rewrites general bounds and
/// steps into this canonical form with Lower == 1 where possible; the
/// analysis itself (Section 1 of the paper) assumes normalized loops.
class DoLoopStmt : public Stmt {
public:
  DoLoopStmt(std::string IndVar, ExprPtr Lower, ExprPtr Upper, StmtList Body,
             int64_t Step = 1)
      : Stmt(Kind::DoLoop), IndVar(std::move(IndVar)),
        Lower(std::move(Lower)), Upper(std::move(Upper)), Step(Step),
        Body(std::move(Body)) {}

  const std::string &getIndVar() const { return IndVar; }
  const Expr *getLower() const { return Lower.get(); }
  const Expr *getUpper() const { return Upper.get(); }
  int64_t getStep() const { return Step; }
  const StmtList &getBody() const { return Body; }
  StmtList &getBody() { return Body; }

  /// Returns the constant trip-count upper bound UB when both bounds are
  /// integer literals (normalized: trip count == Upper when Lower == 1),
  /// or -1 when the bound is symbolic or the count overflows int64.
  int64_t getConstantTripCount() const;

  /// True when the loop is in normalized form: lower bound 1, step 1.
  bool isNormalized() const;

  static bool classof(const Stmt *S) { return S->getKind() == Kind::DoLoop; }

private:
  std::string IndVar;
  ExprPtr Lower;
  ExprPtr Upper;
  int64_t Step;
  StmtList Body;
};

/// A pre-tested loop `while (cond) { body }`.
///
/// While loops are outside the paper's analyzable form; the loop-nest
/// pass (analysis/LoopNest) recognizes the counted pattern
/// `i = lo; while (i <= hi) { ...; i = i + c }` and reduces it to a
/// DoLoopStmt. Unrecognized whiles are reported as analysis-unsupported.
class WhileStmt : public Stmt {
public:
  WhileStmt(ExprPtr Cond, StmtList Body)
      : Stmt(Kind::While), Cond(std::move(Cond)), Body(std::move(Body)) {}

  const Expr *getCond() const { return Cond.get(); }
  const StmtList &getBody() const { return Body; }
  StmtList &getBody() { return Body; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::While; }

private:
  ExprPtr Cond;
  StmtList Body;
};

/// A `break` out of the innermost enclosing loop. Early exits void the
/// must-style facts the framework computes, so any loop containing one
/// is rejected by the recognizer (with an explicit diagnostic).
class BreakStmt : public Stmt {
public:
  BreakStmt() : Stmt(Kind::Break) {}

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Break; }
};

/// Calls \p Fn on \p S and every transitively nested statement, pre-order.
void forEachStmt(const Stmt &S, const std::function<void(const Stmt &)> &Fn);

/// Calls \p Fn on every statement in \p Stmts and their nested statements.
void forEachStmt(const StmtList &Stmts,
                 const std::function<void(const Stmt &)> &Fn);

/// The ids diagnostics name statements by: the 1-based pre-order index
/// of each of \p Targets among \p Stmts and their nested statements
/// (0 for a target not among them). Numbers all targets in one walk.
std::vector<unsigned> preorderIds(const StmtList &Stmts,
                                  const std::vector<const Stmt *> &Targets);

} // namespace ardf

#endif // ARDF_IR_STMT_H

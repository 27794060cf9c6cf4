//===- passes/Validate.cpp - Analyzability checks -------------------------===//

#include "passes/Validate.h"

#include "affine/AffineAccess.h"
#include "ir/PrettyPrinter.h"

using namespace ardf;

namespace {

/// Checks every DO loop's subscripts and the program's break placement.
/// Loop shape (normalization, induction variable assignments) is the
/// loop nest's to decide (analysis/LoopNest).
class Validator {
public:
  explicit Validator(const Program &P) : P(P) {}

  std::vector<ValidationIssue> run() {
    forEachStmt(P.getStmts(), [&](const Stmt &S) {
      if (const auto *Loop = dyn_cast<DoLoopStmt>(&S))
        validateLoop(*Loop);
    });
    checkBreakPlacement(P.getStmts(), /*InLoop=*/false);
    // Statement ids are numbered only when there is an issue to name,
    // all in one walk.
    if (!Issues.empty()) {
      std::vector<const Stmt *> Offending;
      Offending.reserve(Issues.size());
      for (const ValidationIssue &I : Issues)
        Offending.push_back(I.Offending);
      std::vector<unsigned> Ids = preorderIds(P.getStmts(), Offending);
      for (size_t I = 0; I != Issues.size(); ++I)
        Issues[I].StmtId = Ids[I];
    }
    return std::move(Issues);
  }

private:
  void report(IssueSeverity Severity, const Stmt &S, SourceLoc Loc,
              std::string Message) {
    Issues.push_back(
        ValidationIssue{Severity, 0, Loc, &S, std::move(Message)});
  }

  void validateLoop(const DoLoopStmt &Loop) {
    const std::vector<std::string> Written = writtenScalars(Loop.getBody());
    checkStmts(Loop, Loop.getBody(), Written);
  }

  /// Checks the subscripts of \p Stmts, part of \p Loop's body, against
  /// \p Loop's induction variable and the scalars \p Written. Inside an
  /// inner loop nothing counts as written: a reference there is a summary
  /// reference at this level, which Section 3.2 handles conservatively
  /// anyway.
  void checkStmts(const DoLoopStmt &Loop, const StmtList &Stmts,
                  const std::vector<std::string> &Written) {
    for (const StmtPtr &S : Stmts) {
      switch (S->getKind()) {
      case Stmt::Kind::Assign: {
        const auto *AS = cast<AssignStmt>(S.get());
        auto CheckRef = [&](const ArrayRefExpr &AR) {
          checkRef(Loop, *S, AR, Written);
        };
        forEachSubExpr(*AS->getRHS(), [&](const Expr &E) {
          if (const auto *AR = dyn_cast<ArrayRefExpr>(&E))
            CheckRef(*AR);
        });
        if (const ArrayRefExpr *Target = AS->getArrayTarget())
          CheckRef(*Target);
        break;
      }
      case Stmt::Kind::If: {
        const auto *IS = cast<IfStmt>(S.get());
        checkStmts(Loop, IS->getThen(), Written);
        checkStmts(Loop, IS->getElse(), Written);
        break;
      }
      case Stmt::Kind::DoLoop:
        checkStmts(Loop, cast<DoLoopStmt>(S.get())->getBody(), NoneWritten);
        break;
      case Stmt::Kind::While:
        checkStmts(Loop, cast<WhileStmt>(S.get())->getBody(), NoneWritten);
        break;
      case Stmt::Kind::Break:
        break;
      }
    }
  }

  void checkRef(const DoLoopStmt &Loop, const Stmt &S, const ArrayRefExpr &AR,
                const std::vector<std::string> &Written) {
    const std::string &IV = Loop.getIndVar();
    if (AR.getNumSubscripts() > 1 && !P.getArrayDecl(AR.getName())) {
      report(IssueSeverity::Warning, S, AR.getLoc(),
             "multi-dimensional reference " + exprToString(AR) +
                 " to undeclared array cannot be linearized");
      return;
    }
    std::optional<AffineAccess> Access = makeAffineAccess(AR, P, IV);
    if (!Access)
      report(IssueSeverity::Warning, S, AR.getLoc(),
             "subscript of " + exprToString(AR) + " is not affine in '" + IV +
                 "'; the reference is treated as a whole-array access");
    else if (const std::string *Scalar = variantScalar(*Access, Written))
      report(IssueSeverity::Warning, S, AR.getLoc(),
             "subscript of " + exprToString(AR) + " mentions '" + *Scalar +
                 "', which the loop assigns; the reference is treated as a "
                 "whole-array access");
  }

  /// A break binds to the innermost enclosing loop; outside any loop it
  /// has nothing to leave and the program is malformed.
  void checkBreakPlacement(const StmtList &Stmts, bool InLoop) {
    for (const StmtPtr &S : Stmts) {
      switch (S->getKind()) {
      case Stmt::Kind::Break:
        if (!InLoop)
          report(IssueSeverity::Error, *S, S->getLoc(),
                 "'break' outside of any loop");
        break;
      case Stmt::Kind::If: {
        const auto *IS = cast<IfStmt>(S.get());
        checkBreakPlacement(IS->getThen(), InLoop);
        checkBreakPlacement(IS->getElse(), InLoop);
        break;
      }
      case Stmt::Kind::DoLoop:
        checkBreakPlacement(cast<DoLoopStmt>(S.get())->getBody(),
                            /*InLoop=*/true);
        break;
      case Stmt::Kind::While:
        checkBreakPlacement(cast<WhileStmt>(S.get())->getBody(),
                            /*InLoop=*/true);
        break;
      case Stmt::Kind::Assign:
        break;
      }
    }
  }

  const Program &P;
  const std::vector<std::string> NoneWritten;
  std::vector<ValidationIssue> Issues;
};

} // namespace

std::vector<ValidationIssue> ardf::validateForAnalysis(const Program &P) {
  return Validator(P).run();
}

bool ardf::isAnalyzable(const std::vector<ValidationIssue> &Issues) {
  for (const ValidationIssue &I : Issues)
    if (I.Severity == IssueSeverity::Error)
      return false;
  return true;
}

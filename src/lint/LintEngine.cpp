//===- lint/LintEngine.cpp - Whole-program diagnostics engine -------------===//

#include "lint/LintEngine.h"

#include "analysis/LoopAnalysisSession.h"
#include "analysis/LoopNest.h"
#include "frontend/Parser.h"
#include "lint/Checks.h"
#include "lint/Remarks.h"
#include "passes/Validate.h"
#include "support/Deadline.h"
#include "support/FailPoint.h"
#include "telemetry/Telemetry.h"

#include <memory>

using namespace ardf;

namespace {

DiagSeverity severityOf(IssueSeverity S) {
  return S == IssueSeverity::Error ? DiagSeverity::Error
                                   : DiagSeverity::Warning;
}

/// A precondition error at each induction variable assignment the nest
/// recorded.
void reportIVAssignments(const LoopNestTree &Nest, const std::string &File,
                         std::vector<Diagnostic> &Out) {
  std::vector<const NestLoop *> Loops;
  std::vector<const Stmt *> Assignments;
  for (const std::unique_ptr<NestLoop> &N : Nest.all())
    if (N->IVAssignment) {
      Loops.push_back(N.get());
      Assignments.push_back(N->IVAssignment);
    }
  if (Loops.empty())
    return;
  std::vector<unsigned> Ids =
      preorderIds(Nest.program().getStmts(), Assignments);
  for (size_t I = 0; I != Loops.size(); ++I) {
    Diagnostic D;
    D.CheckId = checkid::Precondition;
    D.Severity = DiagSeverity::Error;
    D.File = File;
    D.Loc = Assignments[I]->getLoc();
    D.Message = "assignment to induction variable '" +
                cast<DoLoopStmt>(Loops[I]->Source)->getIndVar() +
                "' inside its loop";
    D.StmtId = Ids[I];
    Out.push_back(std::move(D));
  }
}

} // namespace

LintResult ardf::lintProgram(const Program &P, const std::string &File,
                             const LintOptions &Opts) {
  LintResult Result;

  // Phase 1: precondition diagnostics from the Validate pass (subscripts
  // and break placement).
  {
    telem::Span Validate("validate", "lint");
    for (const ValidationIssue &I : validateForAnalysis(P)) {
      Diagnostic D;
      D.CheckId = checkid::Precondition;
      D.Severity = severityOf(I.Severity);
      D.File = File;
      D.Loc = I.Loc;
      D.Message = I.Message;
      D.StmtId = I.StmtId;
      Result.Diags.push_back(std::move(D));
    }
  }

  // Phase 2: framework-backed checks over the loop-nesting tree, one
  // shared session per supported loop (its reduced form, so while loops
  // and non-normalized bounds are analyzed too). A DO loop that assigns
  // its induction variable violates a hard precondition: it gets an
  // error at the assignment, for every nest loop, nested or not. Other
  // rejected loops get an explicit analysis-unsupported diagnostic
  // instead of silence.
  LoopNestTree Nest(P);
  reportIVAssignments(Nest, File, Result.Diags);
  LintCheckContext Ctx;
  Ctx.File = File;
  Ctx.Solver.Eng = Opts.Engine;
  Ctx.Solver.Budget = Opts.Budget;
  for (const std::unique_ptr<NestLoop> &NodePtr : Nest.all()) {
    if (deadline::passed())
      break;
    const NestLoop &N = *NodePtr;
    if (N.Depth > 0 && !Opts.IncludeNested)
      continue;
    // Its precondition error already says why the loop is not analyzed.
    if (N.IVAssignment)
      continue;
    if (!N.isSupported()) {
      Diagnostic D;
      D.CheckId = checkid::AnalysisUnsupported;
      D.Severity = DiagSeverity::Warning;
      D.File = File;
      D.Loc = N.loc();
      D.NestPath = N.Depth > 0 ? N.path() : "";
      D.Message = std::string("analysis unsupported: the ") +
                  (N.isWhile() ? "while" : "do") + " loop at nest path '" +
                  N.path() + "' was not analyzed: " + N.UnsupportedReason;
      D.FixHint = "rewrite the loop as a counted form the framework "
                  "supports (see the analyzability preconditions)";
      Result.Diags.push_back(std::move(D));
      continue;
    }
    const DoLoopStmt *Loop = N.Analyzed;
    telem::Span LoopSpan("lint-loop", "lint");
    LoopAnalysisSession Session(P, *Loop);

    // One extra session per enclosing level, analyzing the same reduced
    // loop with respect to that level's induction variable (the
    // hierarchical seam of Section 3.6); the checks read one iteration
    // distance per level from these.
    std::vector<std::unique_ptr<LoopAnalysisSession>> LevelSessions;
    Ctx.NestPath = N.Depth > 0 ? N.path() : "";
    Ctx.Ancestors.clear();
    for (const NestLoop *A : N.ancestors()) {
      NestLevel Level;
      if (A->isSupported()) {
        Level.Iv = A->iv();
        LevelSessions.push_back(std::make_unique<LoopAnalysisSession>(
            P, *Loop, A->iv(), A->tripCount()));
        Level.Session = LevelSessions.back().get();
      } else {
        Level.Iv = "?";
      }
      Ctx.Ancestors.push_back(std::move(Level));
    }
    // Per-check fault boundary: an exception out of one check (e.g. an
    // armed lint.check failpoint, or a throwing solve) becomes an
    // analysis-degraded diagnostic for that check only; the loop's
    // remaining checks still run.
    auto RunCheck = [&](const char *Name, auto &&Fn) {
      if (deadline::passed())
        return;
      telem::Span S("check", "lint", Name);
      telem::LatencyTimer LT(telem::Histo::CheckNs);
      telem::count(telem::Counter::LintChecks);
      try {
        failpoint::evaluate("lint.check");
        Fn();
      } catch (const std::exception &E) {
        Diagnostic D;
        D.CheckId = checkid::AnalysisDegraded;
        D.Severity = DiagSeverity::Warning;
        D.File = File;
        D.Loc = Loop->getLoc();
        D.Message = std::string("analysis degraded: check '") + Name +
                    "' aborted for the loop over '" + Loop->getIndVar() +
                    "': " + E.what();
        Result.Diags.push_back(std::move(D));
      }
    };
    size_t FirstDiag = Result.Diags.size();
    RunCheck("redundant-load",
             [&] { checkRedundantLoad(Session, Ctx, Result.Diags); });
    RunCheck("dead-store", [&] { checkDeadStore(Session, Ctx, Result.Diags); });
    RunCheck("loop-carried-reuse",
             [&] { checkLoopCarriedReuse(Session, Ctx, Result.Diags); });
    RunCheck("cross-iteration-conflict",
             [&] { checkCrossIterationConflict(Session, Ctx, Result.Diags); });
    if (Opts.CrossCheck)
      RunCheck("engine-cross-check", [&] {
        Result.EngineDivergences +=
            checkEngineDivergence(Session, Ctx, Result.Diags);
        telem::count(telem::Counter::LintCrossChecks);
      });
    // Explain runs inside the same fault boundary as the checks: a
    // throwing provenance re-solve degrades this loop's remarks, never
    // the lint run.
    if (Opts.Explain)
      RunCheck("explain", [&] {
        RemarkOptions RO;
        RO.CheckFilter = Opts.ExplainCheck;
        attachRemarks(Session, Ctx, Result.Diags, FirstDiag, RO);
      });
    ++Result.LoopsAnalyzed;
    telem::count(telem::Counter::LintLoops);
  }

  for (const Diagnostic &D : Result.Diags)
    if (D.CheckId == checkid::AnalysisDegraded)
      ++Result.ChecksDegraded;
  telem::count(telem::Counter::LintDiagnostics, Result.Diags.size());
  sortDiagnostics(Result.Diags);
  return Result;
}

LintResult ardf::lintSource(const std::string &Source,
                            const std::string &File,
                            const LintOptions &Opts) {
  ParseResult Parsed = parseProgram(Source);
  if (!Parsed.succeeded()) {
    LintResult Result;
    for (const ParseDiagnostic &PD : Parsed.Diags) {
      Diagnostic D;
      D.CheckId = checkid::ParseError;
      D.Severity = DiagSeverity::Error;
      D.File = File;
      D.Loc = SourceLoc(PD.Line, PD.Col);
      D.Message = PD.Message;
      Result.Diags.push_back(std::move(D));
    }
    sortDiagnostics(Result.Diags);
    return Result;
  }
  return lintProgram(Parsed.Prog, File, Opts);
}

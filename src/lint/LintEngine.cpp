//===- lint/LintEngine.cpp - Whole-program diagnostics engine -------------===//

#include "lint/LintEngine.h"

#include "analysis/LoopAnalysisSession.h"
#include "analysis/LoopNest.h"
#include "driver/WorkerPool.h"
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

/// Lints nest loop \p N: an analysis-unsupported warning for a rejected
/// loop, otherwise the checks over one shared session plus one level
/// session per enclosing loop. Reads only \p P, the nest and \p Opts,
/// so loops lint on any worker.
LintResult lintLoop(const Program &P, const NestLoop &N,
                    const std::string &File, const LintOptions &Opts) {
  LintResult Out;
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
    Out.Diags.push_back(std::move(D));
    return Out;
  }
  const DoLoopStmt *Loop = N.Analyzed;
  telem::Span LoopSpan("lint-loop", "lint");
  LoopAnalysisSession Session(P, *Loop);
  LintCheckContext Ctx;
  Ctx.File = File;
  Ctx.Solver.Eng = Opts.Engine;
  Ctx.Solver.Budget = Opts.Budget;
  Ctx.NestPath = N.Depth > 0 ? N.path() : "";

  // One extra session per enclosing level, analyzing the same reduced
  // loop with respect to that level's induction variable (the
  // hierarchical seam of Section 3.6); the checks read one iteration
  // distance per level from these.
  std::vector<std::unique_ptr<LoopAnalysisSession>> LevelSessions;
  for (const NestLoop *A : N.ancestors()) {
    NestLevel Level;
    if (A->isSupported()) {
      Level.Iv = A->iv();
      LevelSessions.push_back(std::make_unique<LoopAnalysisSession>(P, N, *A));
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
      Out.Diags.push_back(std::move(D));
    }
  };
  RunCheck("redundant-load",
           [&] { checkRedundantLoad(Session, Ctx, Out.Diags); });
  RunCheck("dead-store", [&] { checkDeadStore(Session, Ctx, Out.Diags); });
  RunCheck("loop-carried-reuse",
           [&] { checkLoopCarriedReuse(Session, Ctx, Out.Diags); });
  RunCheck("cross-iteration-conflict",
           [&] { checkCrossIterationConflict(Session, Ctx, Out.Diags); });
  if (Opts.CrossCheck)
    RunCheck("engine-cross-check", [&] {
      Out.EngineDivergences += checkEngineDivergence(Session, Ctx, Out.Diags);
      telem::count(telem::Counter::LintCrossChecks);
    });
  // Explain runs inside the same fault boundary as the checks: a
  // throwing provenance re-solve degrades this loop's remarks, never
  // the lint run.
  if (Opts.Explain)
    RunCheck("explain", [&] {
      RemarkOptions RO;
      RO.CheckFilter = Opts.ExplainCheck;
      attachRemarks(Session, Ctx, Out.Diags, /*FirstIdx=*/0, RO);
    });
  ++Out.LoopsAnalyzed;
  telem::count(telem::Counter::LintLoops);
  return Out;
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
  // work item per loop (its reduced form, so while loops and
  // non-normalized bounds are analyzed too). A DO loop that assigns its
  // induction variable violates a hard precondition: it gets an error at
  // the assignment, for every nest loop, nested or not, and no item.
  // Other rejected loops get an explicit analysis-unsupported diagnostic
  // instead of silence.
  LoopNestTree Nest(P);
  reportIVAssignments(Nest, File, Result.Diags);
  std::vector<const NestLoop *> Loops;
  for (const std::unique_ptr<NestLoop> &N : Nest.all())
    if ((N->Depth == 0 || Opts.IncludeNested) && !N->IVAssignment)
      Loops.push_back(N.get());

  // Each loop lints into its own slot, and the calling thread moves the
  // slot into Result as soon as it and every earlier loop are done, so
  // only the slots of loops in flight stay alive beside Result (inline,
  // one at a time).
  std::vector<LintResult> Slots(Loops.size());
  auto Lint = [&](size_t I) {
    // A passed deadline skips every remaining loop.
    if (!deadline::passed())
      Slots[I] = lintLoop(P, *Loops[I], File, Opts);
  };
  auto Merge = [&](size_t I) {
    LintResult Done = std::move(Slots[I]);
    // Appended one at a time: the capacity then doubles through powers
    // of two, where range inserts would double it from exact sizes and
    // can end twice as large (DESIGN.md §7).
    for (Diagnostic &D : Done.Diags)
      Result.Diags.push_back(std::move(D));
    Result.LoopsAnalyzed += Done.LoopsAnalyzed;
    Result.EngineDivergences += Done.EngineDivergences;
  };
  runWorkItems(Loops.size(), Opts.Threads, Lint, Merge);

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

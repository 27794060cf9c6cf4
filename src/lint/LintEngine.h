//===- lint/LintEngine.h - Whole-program diagnostics engine ----*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ardf-lint engine: validates a program (precondition diagnostics),
/// then runs every framework-backed check of lint/Checks.h over each
/// normalized, analyzable loop. One LoopAnalysisSession per loop is
/// shared by all checks, so the loop's flow graph, reference universe,
/// and any problem instance two checks have in common are built and
/// solved exactly once. With CrossCheck enabled every problem is
/// additionally solved by BOTH solver engines and any divergence is
/// reported as an internal-consistency error -- a permanent static
/// oracle for the packed kernel solver.
///
/// Each loop is one work item of the worker pool (driver/WorkerPool.h)
/// with its own sessions and diagnostics; the calling thread moves them
/// into the result in nest order as loops finish, then sorts, so the
/// output is the same for every thread count.
///
/// \code
///   LintResult R = lintSource(Text, "fig1.arf");
///   renderText(std::cout, R.Diags, Sources);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_LINT_LINTENGINE_H
#define ARDF_LINT_LINTENGINE_H

#include "dataflow/Framework.h"
#include "lint/Diagnostic.h"

#include <string>
#include <vector>

namespace ardf {

class Program;

/// Lint engine configuration.
struct LintOptions {
  /// Primary solver engine every check solves with.
  SolverOptions::Engine Engine = SolverOptions::Engine::Reference;

  /// Solve each problem with both engines and report divergence as an
  /// engine-divergence error diagnostic.
  bool CrossCheck = true;

  /// Also lint nested loops (each with respect to its own induction
  /// variable).
  bool IncludeNested = true;

  /// Resource ceilings forwarded to every backing solve. A check whose
  /// solve degrades is skipped with an explicit analysis-degraded
  /// diagnostic instead of reporting findings derived from the
  /// conservative fill; the loop's other checks still run.
  SolverBudget Budget;

  /// Attach derivation evidence to every explainable diagnostic
  /// (ardf-lint --explain): each finding's backing problem is re-solved
  /// through the reference engine with provenance recording and the
  /// solution cell's derivation trail plus DAG are attached (see
  /// lint/Remarks.h). The configured engine's solves are unaffected.
  bool Explain = false;

  /// Restrict Explain to one check id (--explain=CHECK-ID); empty
  /// explains all checks.
  std::string ExplainCheck;

  /// Worker threads the file's loops are linted on (driver/WorkerPool.h):
  /// 0 means one per hardware thread, but at most one per 8 loops (a
  /// file of fewer than 16 loops lints inline); 1 lints inline on the
  /// calling thread. The output does not depend on it.
  unsigned Threads = 0;
};

/// Result of one lint run.
struct LintResult {
  std::vector<Diagnostic> Diags;

  /// Loops the framework checks actually ran on (normalized, analyzable
  /// ones; the rest only get precondition diagnostics).
  unsigned LoopsAnalyzed = 0;

  /// Engine cross-check comparisons that diverged (0 is the invariant).
  unsigned EngineDivergences = 0;

  /// Checks skipped (or aborted by a captured exception) because their
  /// backing analysis degraded; each carries an analysis-degraded
  /// diagnostic.
  unsigned ChecksDegraded = 0;

  bool hasErrors() const {
    for (const Diagnostic &D : Diags)
      if (D.isError())
        return true;
    return false;
  }

  unsigned count(DiagSeverity S) const {
    unsigned N = 0;
    for (const Diagnostic &D : Diags)
      N += D.Severity == S ? 1 : 0;
    return N;
  }
};

/// Lints an already-parsed program. \p File is the artifact name stamped
/// into every diagnostic. Past the request deadline (support/Deadline.h)
/// it skips the remaining loops and checks and returns a partial result.
LintResult lintProgram(const Program &P, const std::string &File,
                       const LintOptions &Opts = LintOptions());

/// Parses \p Source and lints it. Parse failures become parse-error
/// diagnostics (and no framework checks run on a partial program).
LintResult lintSource(const std::string &Source, const std::string &File,
                      const LintOptions &Opts = LintOptions());

} // namespace ardf

#endif // ARDF_LINT_LINTENGINE_H

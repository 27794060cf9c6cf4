//===- lint/Remarks.h - Derivation evidence for diagnostics ----*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The remarks pass behind ardf-lint --explain: turns the provenance
/// recording of dataflow/Provenance.h into structured analysis remarks
/// attached to each Diagnostic. Every finding carries an explain key for
/// free: its check names the backing problem and its record holds the
/// occurrence pair. When explain is requested, attachRemarks re-solves
/// each referenced problem through the reference engine with provenance
/// recording -- the packed engine stays untouched -- cross-checks the
/// re-solve bit-identical against the cached configured-engine result,
/// and attaches the solution cell's chronological derivation trail plus
/// the full derivation DAG (as compact JSON) to the diagnostic. The
/// renderers then print a caret-annotated because-trail (text), embed
/// the DAG (JSON lines), or emit codeFlows/threadFlows (SARIF).
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_LINT_REMARKS_H
#define ARDF_LINT_REMARKS_H

#include "lint/Checks.h"
#include "lint/Diagnostic.h"

#include <cstddef>
#include <string>
#include <vector>

namespace ardf {

/// Remarks pass configuration.
struct RemarkOptions {
  /// Restrict explanation to diagnostics of one check id; empty explains
  /// every explainable diagnostic.
  std::string CheckFilter;
};

/// Attaches derivation evidence to the diagnostics in
/// [\p FirstIdx, Diags.size()) that are findings. Each backing
/// problem is re-solved once through \p Session with the reference
/// engine recording provenance (a distinct solution-cache entry, so the
/// configured engine's cached result is undisturbed) and the re-solve is
/// verified bit-identical against that cached result before any
/// derivation is read from it. Diagnostics whose backing solve degraded
/// are skipped silently -- explain degrades, never crashes. Returns the
/// number of diagnostics that gained evidence.
unsigned attachRemarks(LoopAnalysisSession &Session,
                       const LintCheckContext &Ctx,
                       std::vector<Diagnostic> &Diags, size_t FirstIdx,
                       const RemarkOptions &Opts = RemarkOptions());

} // namespace ardf

#endif // ARDF_LINT_REMARKS_H

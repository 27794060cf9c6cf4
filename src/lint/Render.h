//===- lint/Render.h - Diagnostic renderers --------------------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three output formats of ardf-lint over one shared Diagnostic
/// list:
///
///   * renderText: human-readable "file:line:col: severity: message"
///     lines with source snippets and caret markers,
///   * renderJsonLines: one self-contained JSON object per diagnostic
///     (grep/jq-friendly),
///   * renderSarif: a SARIF 2.1.0 log for CI annotation, one run with
///     a rule table covering every check id that fired.
///
/// Renderers are pure: they read diagnostics (and, for snippets, the
/// SourceMap) and write a stream; they never reorder or filter. Each
/// appends its output into one buffer -- text through the diagnostic
/// formatter, integers through std::to_chars, JSON escapes in place --
/// and writes the buffer to the stream in chunks, so no diagnostic
/// builds temporaries and memory does not grow with the output.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_LINT_RENDER_H
#define ARDF_LINT_RENDER_H

#include "lint/Diagnostic.h"

#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ardf {

/// Maps artifact names (Diagnostic::File) to their source text, so the
/// text renderer can print the offending line under each diagnostic.
class SourceMap {
public:
  /// Registers \p Text under \p File and indexes its line starts once,
  /// so every snippet lookup is a constant-time slice.
  void add(std::string File, std::string Text);

  /// The text of \p File, or null when unknown (snippets are skipped).
  const std::string *textOf(const std::string &File) const {
    auto It = Texts.find(File);
    return It == Texts.end() ? nullptr : &It->second.Text;
  }

  /// Line \p Line (1-based) of \p File, without the newline; empty when
  /// the file or line is unknown. The view points into the map's copy
  /// of the text and stays valid until \p File is added again.
  std::string_view line(const std::string &File, unsigned Line) const;

private:
  struct Source {
    std::string Text;
    /// Offset of the first character of each line; a trailing newline
    /// starts one more (empty) line.
    std::vector<size_t> LineStarts;
  };
  std::map<std::string, Source> Texts;
};

/// Human text with source snippets and caret markers.
void renderText(std::ostream &OS, const std::vector<Diagnostic> &Diags,
                const SourceMap &Sources);

/// One JSON object per line, one line per diagnostic.
void renderJsonLines(std::ostream &OS, const std::vector<Diagnostic> &Diags);

/// A complete SARIF 2.1.0 log (static analysis results interchange
/// format) with one run.
void renderSarif(std::ostream &OS, const std::vector<Diagnostic> &Diags);

/// Static metadata of one lint check (rule), shared by the SARIF rule
/// table and `ardf-lint --list-checks`.
struct CheckInfo {
  const char *Id;

  /// Typical severity of the check's findings ("error", "warning",
  /// "note"); precondition findings can be either error or warning.
  const char *Severity;

  const char *Description;

  /// Findings carry the evidence --explain derives.
  bool Explainable = false;
};

/// Every check id ardf-lint can emit, in presentation order.
const std::vector<CheckInfo> &allChecks();

/// True when \p Id names an explainable check: the one authority for
/// --explain=CHECK-ID and serve's "explain_check" (any other id is an
/// error, not a run that explains nothing).
bool isExplainableCheck(std::string_view Id);

/// The ids isExplainableCheck accepts, comma-separated.
const std::string &explainableCheckList();

} // namespace ardf

#endif // ARDF_LINT_RENDER_H

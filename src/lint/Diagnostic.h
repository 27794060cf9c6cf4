//===- lint/Diagnostic.h - Structured lint diagnostics ---------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured diagnostic record every ardf-lint check emits: a check
/// id, severity, source anchor, iteration-distance evidence and the
/// text a reader sees. One record carries everything the three
/// renderers (human text, JSON lines, SARIF 2.1.0) need, so a check
/// never formats output itself.
///
/// A diagnostic is one of two kinds, told apart by its check id:
///
///   * A finding of the four framework checks (redundant-load,
///     dead-store, loop-carried-reuse, cross-iteration-conflict) is a
///     compact record: the sink and source expression text, the
///     distance, the dependence kind, the source's position and the
///     occurrence ids. Its message, fix hint and related note are
///     formatted from those fields only when read.
///   * Every other diagnostic (precondition, parse-error,
///     analysis-unsupported, analysis-degraded, engine-divergence) is
///     free-form and stores its Message and FixHint strings.
///
/// Every reader takes text through the one formatter
/// (appendMessage/appendFixHint/appendRelatedNote, or the
/// string-returning message()/fixHint()/related()), never from the
/// Message and FixHint fields directly.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_LINT_DIAGNOSTIC_H
#define ARDF_LINT_DIAGNOSTIC_H

#include "ir/SourceLoc.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace ardf {

enum class DepKind;

/// Severity of a lint diagnostic; maps 1:1 onto SARIF levels.
enum class DiagSeverity {
  Error,   ///< Precondition violations and internal-consistency failures.
  Warning, ///< Actionable inefficiencies (redundant loads, dead stores).
  Note     ///< Opportunities and informational facts (reuse, conflicts).
};

/// SARIF-compatible lowercase name ("error", "warning", "note").
const char *severityName(DiagSeverity S);

/// A check id: a view of a string with static storage duration (a
/// checkid:: constant or a string literal) compared by content, so
/// `D.CheckId == checkid::DeadStore` and `D.CheckId == "dead-store"`
/// both compare text. There is deliberately no conversion from
/// std::string, whose buffer would not outlive the diagnostic.
class CheckName {
public:
  constexpr CheckName() = default;
  constexpr CheckName(const char *Id) : Id(Id) {}

  constexpr std::string_view view() const { return Id; }

  friend bool operator==(CheckName A, std::string_view B) {
    return A.Id == B;
  }

private:
  std::string_view Id;
};

std::ostream &operator<<(std::ostream &OS, CheckName Id);

/// The four framework checks whose diagnostics are compact finding
/// records, in check order (the order of lintProblems()).
enum class FindingCheck {
  None = -1, ///< a free-form diagnostic
  RedundantLoad,
  DeadStore,
  LoopCarriedReuse,
  CrossIterationConflict
};

/// Which framework check \p Id names, or FindingCheck::None.
FindingCheck findingCheck(CheckName Id);

/// A secondary source position attached to a diagnostic (e.g. the site
/// that generated the reused value).
struct RelatedLoc {
  SourceLoc Loc;
  std::string Message;
};

/// One lint finding.
struct Diagnostic {
  /// Sentinel for "no iteration-distance evidence".
  static constexpr int64_t NoDistance = -1;

  /// Stable rule identifier: "redundant-load", "dead-store",
  /// "loop-carried-reuse", "cross-iteration-conflict", "precondition",
  /// "parse-error", "analysis-unsupported", "analysis-degraded" or
  /// "engine-divergence".
  CheckName CheckId;

  DiagSeverity Severity = DiagSeverity::Warning;

  /// Artifact the diagnostic anchors in (as given to the engine; used
  /// verbatim as the SARIF artifact URI).
  std::string File;

  /// Primary source position (invalid when the program was built
  /// programmatically and carries no locations). A finding's sink.
  SourceLoc Loc;

  /// Free-form diagnostics only: the statement of the finding (no
  /// location prefix) and the suggested remediation (empty when there
  /// is none). Findings leave both empty; read text through message()
  /// and fixHint().
  std::string Message;
  std::string FixHint;

  /// Iteration-distance evidence (the delta of the underlying framework
  /// fact); NoDistance when not applicable.
  int64_t Distance = NoDistance;

  /// Slash-joined induction variables from the outermost loop of the
  /// nest down to the diagnosed loop ("i/j"). Empty for top-level loops
  /// and non-loop diagnostics, so single-loop output is unchanged.
  std::string NestPath;

  /// Per-nest-level iteration distances of the same underlying fact,
  /// outermost level first, innermost (== Distance) last; aligned with
  /// the segments of NestPath. A level where the fact does not hold (or
  /// whose with-respect-to solve degraded) carries NoDistance. Empty
  /// when the loop has no analyzed ancestors.
  std::vector<int64_t> Levels;

  /// Pre-order statement id for precondition findings (0 = none).
  unsigned StmtId = 0;

  /// Finding record. The sink is the reference at Loc; the source is
  /// the other end of the pair (the generating, overwriting or
  /// conflicting reference), at SourcePos, which is the finding's one
  /// related location.
  std::string SinkText;
  std::string SourceText;
  SourceLoc SourcePos;

  /// cross-iteration-conflict: the kind of the carried dependence from
  /// the source to the sink.
  DepKind Kind{};

  /// Explain key (lint/Remarks.h) of a finding: the source and sink
  /// occurrence ids of the pair, read from the solution cell of the
  /// check's backing problem. The remarks pass only runs under
  /// --explain.
  unsigned EvidenceSourceId = 0;
  unsigned EvidenceSinkId = 0;

  /// Chronological derivation evidence attached by the remarks pass
  /// (--explain): the because-trail of the text renderer, the
  /// codeFlow of the SARIF renderer. Empty without --explain.
  std::vector<RelatedLoc> Evidence;

  /// The full derivation DAG as one compact JSON object (embedded
  /// verbatim by the JSON and SARIF renderers). Empty without
  /// --explain.
  std::string DerivationJson;

  bool hasDistance() const { return Distance != NoDistance; }
  bool hasNest() const { return !NestPath.empty(); }
  bool isError() const { return Severity == DiagSeverity::Error; }
  bool hasEvidence() const { return !Evidence.empty(); }

  /// True for a compact finding record of the four framework checks.
  bool isFinding() const {
    return findingCheck(CheckId) != FindingCheck::None;
  }

  /// The formatter: appends the message, the fix hint (nothing when
  /// hasFixHint() is false) or the related note (findings only) to
  /// \p Out.
  void appendMessage(std::string &Out) const;
  void appendFixHint(std::string &Out) const;
  void appendRelatedNote(std::string &Out) const;

  bool hasFixHint() const { return isFinding() || !FixHint.empty(); }

  /// The formatter's text as strings (for callers without a buffer).
  std::string message() const;
  std::string fixHint() const;

  /// The related locations with their notes: a finding's source, none
  /// for a free-form diagnostic.
  std::vector<RelatedLoc> related() const;
};

/// Stable presentation order: by file, then source position, then check
/// id, then message (ties broken textually so golden files are
/// deterministic), then insertion order.
void sortDiagnostics(std::vector<Diagnostic> &Diags);

} // namespace ardf

#endif // ARDF_LINT_DIAGNOSTIC_H

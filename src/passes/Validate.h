//===- passes/Validate.h - Analyzability checks ----------------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reports what the framework will treat conservatively and what the
/// loop nest does not decide: array subscripts that are not affine in
/// the controlling induction variable or mention a scalar the loop
/// assigns (Section 3.2), multi-dimensional references without a
/// declaration to linearize by, and a `break` outside any loop. Loop
/// shape -- the Section 1 preconditions of normalized loops and no
/// assignment to the induction variable -- is the loop nest's to decide
/// (analysis/LoopNest): it normalizes every loop it supports, and
/// records a DO loop's induction variable assignment, which lint reports
/// as an error.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_PASSES_VALIDATE_H
#define ARDF_PASSES_VALIDATE_H

#include "ir/Program.h"

#include <string>
#include <vector>

namespace ardf {

/// Severity of a validation finding.
enum class IssueSeverity {
  /// The program is malformed (a `break` outside any loop).
  Error,
  /// The construct is handled conservatively (information loss only).
  Warning
};

/// One validation finding. The offending statement is identified
/// structurally (pre-order statement id plus source location) instead of
/// being embedded in the message text, so clients -- the lint engine in
/// particular -- can anchor diagnostics without re-parsing messages.
struct ValidationIssue {
  IssueSeverity Severity;

  /// 1-based pre-order index of the offending statement within the
  /// program (preorderIds).
  unsigned StmtId = 0;

  /// Source position of the offending statement, or of the offending
  /// expression when the finding is expression-level (subscripts).
  /// Invalid for IR built programmatically.
  SourceLoc Loc;

  /// The offending statement itself (never null for issues produced by
  /// validateForAnalysis).
  const Stmt *Offending = nullptr;

  std::string Message;
};

/// Validates \p P. An empty result means the program meets every
/// precondition exactly.
std::vector<ValidationIssue> validateForAnalysis(const Program &P);

/// True when no Error-severity issue was found.
bool isAnalyzable(const std::vector<ValidationIssue> &Issues);

} // namespace ardf

#endif // ARDF_PASSES_VALIDATE_H

//===- tests/lint/LintTest.cpp - Per-check lint engine tests -------------===//

#include "lint/Checks.h"
#include "lint/LintEngine.h"
#include "lint/Render.h"
#include "support/JsonEscape.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace ardf;

namespace {

LintResult lint(const std::string &Src,
                SolverOptions::Engine Eng = SolverOptions::Engine::Reference) {
  LintOptions Opts;
  Opts.Engine = Eng;
  return lintSource(Src, "test.arf", Opts);
}

std::vector<Diagnostic> ofCheck(const LintResult &R, const std::string &Id) {
  std::vector<Diagnostic> Out;
  for (const Diagnostic &D : R.Diags)
    if (D.CheckId == Id)
      Out.push_back(D);
  return Out;
}

std::string renderedJson(const LintResult &R) {
  std::ostringstream OS;
  renderJsonLines(OS, R.Diags);
  return OS.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// redundant-load
//===----------------------------------------------------------------------===//

TEST(LintRedundantLoadTest, SameIterationReRead) {
  LintResult R = lint("do i = 1, 10 {\n"
                      "  B[i] = A[i];\n"
                      "  C[i] = A[i];\n"
                      "}\n");
  std::vector<Diagnostic> Diags = ofCheck(R, checkid::RedundantLoad);
  ASSERT_EQ(Diags.size(), 1u);
  const Diagnostic &D = Diags[0];
  EXPECT_EQ(D.Severity, DiagSeverity::Warning);
  EXPECT_EQ(D.Loc, SourceLoc(3, 10)); // the second A[i]
  EXPECT_EQ(D.Distance, 0);
  EXPECT_NE(D.message().find("same iteration"), std::string::npos);
  ASSERT_EQ(D.related().size(), 1u);
  EXPECT_EQ(D.related()[0].Loc, SourceLoc(2, 10)); // the first A[i]
}

TEST(LintRedundantLoadTest, CrossIterationReRead) {
  LintResult R = lint("do i = 1, 10 {\n"
                      "  B[i] = A[i] + A[i+1];\n"
                      "}\n");
  std::vector<Diagnostic> Diags = ofCheck(R, checkid::RedundantLoad);
  ASSERT_EQ(Diags.size(), 1u);
  const Diagnostic &D = Diags[0];
  EXPECT_EQ(D.Loc, SourceLoc(2, 10)); // A[i] re-reads last round's A[i+1]
  EXPECT_EQ(D.Distance, 1);
  EXPECT_NE(D.fixHint().find("register pipeline of depth 1"),
            std::string::npos);
}

TEST(LintRedundantLoadTest, NoReuseAtOrBeyondTheTripCount) {
  // B[i - 3] reads what B[i + 1] read 4 iterations earlier, but the loop
  // runs 4 iterations: that use only ever reads the value from before
  // the loop, which the guarded store to B[i - 2] may overwrite first.
  // A 5-value pipeline for it would read a stale value.
  LintResult R = lint("do i = 1, 4 {\n"
                      "  A[i] = B[i - 3];\n"
                      "  C[i] = B[i + 1];\n"
                      "  if (C[i + 1] > 0) { B[i - 2] = 7; }\n"
                      "}\n");
  EXPECT_TRUE(ofCheck(R, checkid::RedundantLoad).empty()) << renderedJson(R);
  // Without the store, the distance must still be below the trip count.
  const char *Reuse4 = "do i = 1, 4 {\n"
                       "  A[i] = B[i - 3];\n"
                       "  C[i] = B[i + 1];\n"
                       "}\n";
  EXPECT_TRUE(ofCheck(lint(Reuse4), checkid::RedundantLoad).empty());
  std::string Reuse5 = Reuse4;
  Reuse5.replace(Reuse5.find("1, 4"), 4, "1, 5");
  std::vector<Diagnostic> Diags =
      ofCheck(lint(Reuse5), checkid::RedundantLoad);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Loc, SourceLoc(2, 10));
  EXPECT_EQ(Diags[0].Distance, 4);
}

TEST(LintRedundantLoadTest, NoFalsePositiveOnDistinctElements) {
  LintResult R = lint("do i = 1, 10 {\n"
                      "  B[i] = A[2*i] + A[2*i+1];\n"
                      "}\n");
  EXPECT_TRUE(ofCheck(R, checkid::RedundantLoad).empty());
}

//===----------------------------------------------------------------------===//
// dead-store
//===----------------------------------------------------------------------===//

TEST(LintDeadStoreTest, SameIterationOverwrite) {
  LintResult R = lint("do i = 1, 10 {\n"
                      "  A[i+1] = B[i];\n"
                      "  A[i+1] = C[i];\n"
                      "}\n");
  std::vector<Diagnostic> Diags = ofCheck(R, checkid::DeadStore);
  ASSERT_EQ(Diags.size(), 1u);
  const Diagnostic &D = Diags[0];
  EXPECT_EQ(D.Severity, DiagSeverity::Warning);
  EXPECT_EQ(D.Loc, SourceLoc(2, 3)); // the dead (earlier) store
  EXPECT_EQ(D.Distance, 0);
  ASSERT_EQ(D.related().size(), 1u);
  EXPECT_EQ(D.related()[0].Loc, SourceLoc(3, 3)); // the overwriting store
}

TEST(LintDeadStoreTest, CrossIterationOverwrite) {
  LintResult R = lint("do i = 1, 10 {\n"
                      "  A[i+1] = B[i];\n"
                      "  A[i] = C[i];\n"
                      "}\n");
  std::vector<Diagnostic> Diags = ofCheck(R, checkid::DeadStore);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Distance, 1);
  EXPECT_NE(Diags[0].message().find("1 iteration later"), std::string::npos);
  EXPECT_NE(Diags[0].fixHint().find("epilogue"), std::string::npos);
}

TEST(LintDeadStoreTest, InterveningReadSuppresses) {
  LintResult R = lint("do i = 1, 10 {\n"
                      "  A[i+1] = B[i];\n"
                      "  C[i] = A[i+1];\n"
                      "  A[i+1] = C[i];\n"
                      "}\n");
  EXPECT_TRUE(ofCheck(R, checkid::DeadStore).empty());
}

//===----------------------------------------------------------------------===//
// loop-carried-reuse
//===----------------------------------------------------------------------===//

TEST(LintLoopCarriedReuseTest, UnconditionalDefFeedsLaterUse) {
  LintResult R = lint("do i = 1, 10 {\n"
                      "  A[i+1] = B[i];\n"
                      "  C[i] = A[i];\n"
                      "}\n");
  std::vector<Diagnostic> Diags = ofCheck(R, checkid::LoopCarriedReuse);
  ASSERT_EQ(Diags.size(), 1u);
  const Diagnostic &D = Diags[0];
  EXPECT_EQ(D.Severity, DiagSeverity::Note);
  EXPECT_EQ(D.Loc, SourceLoc(3, 10)); // the A[i] use
  EXPECT_EQ(D.Distance, 1);
  EXPECT_NE(D.message().find("register pipelining candidate (distance 1, "
                           "2 register(s)"),
            std::string::npos);
  ASSERT_EQ(D.related().size(), 1u);
  EXPECT_EQ(D.related()[0].Loc, SourceLoc(2, 3)); // the A[i+1] store
}

TEST(LintLoopCarriedReuseTest, ConditionalDefIsNotMustReuse) {
  LintResult R = lint("do i = 1, 10 {\n"
                      "  if (X > 0) { A[i+1] = B[i]; }\n"
                      "  C[i] = A[i];\n"
                      "}\n");
  // The def may not execute, so must-reaching analysis rejects the pair;
  // the may-level conflict is still reported.
  EXPECT_TRUE(ofCheck(R, checkid::LoopCarriedReuse).empty());
  EXPECT_FALSE(ofCheck(R, checkid::CrossIterationConflict).empty());
}

//===----------------------------------------------------------------------===//
// cross-iteration-conflict
//===----------------------------------------------------------------------===//

TEST(LintConflictTest, FlowDependenceAcrossIterations) {
  LintResult R = lint("do i = 1, 10 {\n"
                      "  A[i+1] = A[i] + 1;\n"
                      "}\n");
  std::vector<Diagnostic> Diags = ofCheck(R, checkid::CrossIterationConflict);
  ASSERT_EQ(Diags.size(), 1u);
  const Diagnostic &D = Diags[0];
  EXPECT_EQ(D.Severity, DiagSeverity::Note);
  EXPECT_EQ(D.Distance, 1);
  EXPECT_NE(D.message().find("write/read"), std::string::npos);
  EXPECT_NE(D.message().find("flow dependence"), std::string::npos);
}

TEST(LintConflictTest, OuterLevelDistanceSpansEnclosingIterations) {
  // The j level analyzes the inner body over j's iterations [1, 10]:
  // A[j] meets A[5] at j = 5 although the inner loop runs only 3 times,
  // so the inner trip count must not bound the overlap search.
  LintResult R = lint("do j = 1, 10 {\n"
                      "  do i = 1, 3 {\n"
                      "    A[5] = A[j] + 1;\n"
                      "  }\n"
                      "}\n");
  std::vector<Diagnostic> Diags = ofCheck(R, checkid::CrossIterationConflict);
  ASSERT_EQ(Diags.size(), 2u);
  for (const Diagnostic &D : Diags) {
    EXPECT_EQ(D.NestPath, "j/i");
    EXPECT_EQ(D.Levels, (std::vector<int64_t>{1, 1}));
  }
}

TEST(LintConflictTest, LevelDistanceBeyondTheTripCountIsUnknown) {
  // A[j + 2, i] -> A[j, i] is 256 iterations apart at level i, which runs
  // only 100: unknown there, like an unsupported level.
  LintResult R = lint("array A[128, 128];\n"
                      "do i = 1, 100 {\n"
                      "  do j = 1, 100 {\n"
                      "    A[j + 2, i] = A[j, i] * 2;\n"
                      "  }\n"
                      "}\n");
  std::vector<Diagnostic> Diags = ofCheck(R, checkid::CrossIterationConflict);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].NestPath, "i/j");
  EXPECT_EQ(Diags[0].Levels,
            (std::vector<int64_t>{Diagnostic::NoDistance, 2}));
  std::vector<Diagnostic> Reuse = ofCheck(R, checkid::RedundantLoad);
  ASSERT_EQ(Reuse.size(), 1u);
  EXPECT_EQ(Reuse[0].Levels,
            (std::vector<int64_t>{Diagnostic::NoDistance, 2}));
}

TEST(LintConflictTest, IndependentIterationsAreClean) {
  LintResult R = lint("do i = 1, 10 {\n"
                      "  A[i] = B[i] * 2;\n"
                      "}\n");
  EXPECT_TRUE(ofCheck(R, checkid::CrossIterationConflict).empty());
  EXPECT_EQ(R.LoopsAnalyzed, 1u);
}

//===----------------------------------------------------------------------===//
// preconditions, poisoning, parse errors
//===----------------------------------------------------------------------===//

TEST(LintEngineTest, PreconditionErrorPoisonsLoop) {
  LintResult R = lint("do i = 1, 10 {\n"
                      "  i = i + 2;\n"
                      "  A[i+1] = A[i];\n"
                      "}\n");
  EXPECT_TRUE(R.hasErrors());
  EXPECT_EQ(R.LoopsAnalyzed, 0u); // framework checks must not run
  ASSERT_FALSE(R.Diags.empty());
  for (const Diagnostic &D : R.Diags)
    EXPECT_EQ(D.CheckId, checkid::Precondition);
  EXPECT_EQ(R.Diags[0].StmtId, 2u);
}

TEST(LintEngineTest, NonNormalizedLoopIsNormalizedAndAnalyzed) {
  // The nest reducer normalizes a non-normalized lower bound per
  // analysis, so loop shape is no precondition issue: the framework
  // checks run and catch the distance-1 reuse.
  LintResult R = lint("do i = 2, 10 {\n"
                      "  A[i+1] = A[i];\n"
                      "}\n");
  EXPECT_FALSE(R.hasErrors());
  EXPECT_EQ(R.LoopsAnalyzed, 1u);
  EXPECT_TRUE(ofCheck(R, checkid::Precondition).empty());
  std::vector<Diagnostic> Conf = ofCheck(R, checkid::CrossIterationConflict);
  ASSERT_EQ(Conf.size(), 1u);
  EXPECT_EQ(Conf[0].Distance, 1);
}

TEST(LintEngineTest, InductionVariableAssignmentIsAnErrorAtTheAssignment) {
  LintResult R = lint("do i = 1, 10 {\n"
                      "  B[i] = 1;\n"
                      "  i = i + 2;\n"
                      "}\n");
  EXPECT_TRUE(R.hasErrors());
  ASSERT_EQ(R.Diags.size(), 1u);
  const Diagnostic &D = R.Diags[0];
  EXPECT_EQ(D.CheckId, checkid::Precondition);
  EXPECT_EQ(D.Severity, DiagSeverity::Error);
  EXPECT_EQ(D.message(),
            "assignment to induction variable 'i' inside its loop");
  EXPECT_EQ(D.Loc, SourceLoc(3, 3));
  EXPECT_EQ(D.StmtId, 3u);
}

TEST(LintEngineTest, NestedInductionVariableAssignmentIsAlwaysReported) {
  // The error is reported for every nest loop, also when nested loops
  // are not analyzed.
  LintOptions Opts;
  Opts.IncludeNested = false;
  LintResult R = lintSource("do i = 1, 10 {\n"
                            "  do j = 1, 10 {\n"
                            "    j = 1;\n"
                            "  }\n"
                            "}\n",
                            "t.arf", Opts);
  EXPECT_TRUE(R.hasErrors());
  std::vector<Diagnostic> Pre = ofCheck(R, checkid::Precondition);
  ASSERT_EQ(Pre.size(), 1u);
  EXPECT_EQ(Pre[0].message(),
            "assignment to induction variable 'j' inside its loop");
  EXPECT_EQ(Pre[0].Loc, SourceLoc(3, 5));
  EXPECT_EQ(Pre[0].StmtId, 3u);
}

TEST(LintEngineTest, SubscriptOverAssignedScalarYieldsNoFinding) {
  // k changes while the loop runs: no reuse, dead store or conflict on A
  // may be claimed from A[k + j]'s form.
  for (const char *Source :
       {"do j = 1, 10 { A[k + j] = A[k + j - 1] + 1; k = k + 5; }",
        "do j = 1, 10 { A[k + j] = j; k = k + 1; B[j] = A[k + j - 1]; "
        "A[k + j] = 2; }"}) {
    LintResult R = lint(Source);
    EXPECT_EQ(R.LoopsAnalyzed, 1u);
    EXPECT_FALSE(R.hasErrors());
    for (const Diagnostic &D : R.Diags) {
      bool Finding = D.CheckId == checkid::RedundantLoad ||
                     D.CheckId == checkid::DeadStore ||
                     D.CheckId == checkid::LoopCarriedReuse ||
                     D.CheckId == checkid::CrossIterationConflict;
      EXPECT_FALSE(Finding && D.message().find("A[") != std::string::npos)
          << Source << ": " << D.message();
    }
    std::vector<Diagnostic> Pre = ofCheck(R, checkid::Precondition);
    ASSERT_FALSE(Pre.empty());
    EXPECT_NE(Pre[0].message().find("mentions 'k', which the loop assigns"),
              std::string::npos);
  }
}

TEST(LintEngineTest, OverflowingTripCountIsUnknown) {
  // (hi - lo + 1) leaves int64, so the trip count is unknown rather than
  // wrapped; the distance-1 anti dependence is still reported.
  LintResult R = lint("do i = 0, 9223372036854775807 { A[i] = A[i + 1]; }\n"
                      "do i = 0, 9223372036854775807, 2 { A[i] = 0; }\n");
  EXPECT_FALSE(R.hasErrors());
  EXPECT_EQ(R.LoopsAnalyzed, 2u);
  std::vector<Diagnostic> Conf = ofCheck(R, checkid::CrossIterationConflict);
  ASSERT_EQ(Conf.size(), 1u);
  EXPECT_EQ(Conf[0].Distance, 1);
}

TEST(LintEngineTest, ParseErrorsBecomeDiagnostics) {
  LintResult R = lint("do i = 1, {\n");
  EXPECT_TRUE(R.hasErrors());
  ASSERT_FALSE(R.Diags.empty());
  for (const Diagnostic &D : R.Diags) {
    EXPECT_EQ(D.CheckId, checkid::ParseError);
    EXPECT_EQ(D.Severity, DiagSeverity::Error);
    EXPECT_TRUE(D.Loc.isValid());
  }
}

TEST(LintEngineTest, NestedLoopsCanBeExcluded) {
  const char *Src = "array X[100, 100];\n"
                    "do i = 1, 10 {\n"
                    "  do j = 1, 10 {\n"
                    "    X[i, j] = X[i, j] + 1;\n"
                    "  }\n"
                    "}\n";
  LintOptions Opts;
  EXPECT_EQ(lintSource(Src, "t.arf", Opts).LoopsAnalyzed, 2u);
  Opts.IncludeNested = false;
  EXPECT_EQ(lintSource(Src, "t.arf", Opts).LoopsAnalyzed, 1u);
}

TEST(LintEngineTest, DiagnosticsAreSortedByLocation) {
  LintResult R = lint("do i = 1, 10 {\n"
                      "  A[i+1] = B[i];\n"
                      "  A[i] = A[i] + C[i];\n"
                      "}\n");
  for (size_t I = 1; I < R.Diags.size(); ++I) {
    const Diagnostic &A = R.Diags[I - 1];
    const Diagnostic &B = R.Diags[I];
    EXPECT_LE(std::tie(A.Loc.Line, A.Loc.Col), std::tie(B.Loc.Line, B.Loc.Col));
  }
}

TEST(LintEngineTest, OverflowingDistancesAreConservative) {
  // Both subscripts fit int64 but their difference does not. The pair
  // gets no reuse distance (so no dead store at a wrapped distance) and
  // an overlap assumed at the nearest distance; nothing degrades.
  const char *Src = "do i = 1, 100 {\n"
                    "  A[i + 9000000000000000000] = 1;\n"
                    "  A[i - 9000000000000000000] = 2;\n"
                    "}\n";
  for (SolverOptions::Engine Eng : {SolverOptions::Engine::Reference,
                                    SolverOptions::Engine::PackedKernel}) {
    LintResult R = lint(Src, Eng);
    EXPECT_FALSE(R.hasErrors());
    EXPECT_EQ(R.LoopsAnalyzed, 1u);
    EXPECT_EQ(R.EngineDivergences, 0u);
    EXPECT_EQ(R.ChecksDegraded, 0u);
    EXPECT_TRUE(ofCheck(R, checkid::EngineDivergence).empty());
    EXPECT_TRUE(ofCheck(R, checkid::AnalysisDegraded).empty());
    EXPECT_TRUE(ofCheck(R, checkid::DeadStore).empty());
    std::vector<Diagnostic> Conf = ofCheck(R, checkid::CrossIterationConflict);
    ASSERT_EQ(Conf.size(), 1u);
    EXPECT_EQ(Conf[0].Distance, 1);
  }
}

//===----------------------------------------------------------------------===//
// engine parity and cross-check
//===----------------------------------------------------------------------===//

TEST(LintEngineTest, PackedEngineProducesIdenticalDiagnostics) {
  const char *Programs[] = {
      "do i = 1, 10 {\n  C[i+2] = C[i] * 2;\n  B[2*i] = C[i] + X;\n"
      "  if (C[i] == 0) { C[i] = B[i-1]; }\n  B[i] = C[i+1];\n}\n",
      "do i = 1, 20 {\n  B[i] = (A[i-1] + A[i] + A[i+1]) / 3;\n"
      "  A[i] = B[i];\n}\n",
      "do i = 1, 10 {\n  A[i+1] = B[i];\n  A[i] = C[i];\n}\n",
  };
  for (const char *Src : Programs) {
    LintResult Ref = lint(Src, SolverOptions::Engine::Reference);
    LintResult Packed = lint(Src, SolverOptions::Engine::PackedKernel);
    EXPECT_EQ(renderedJson(Ref), renderedJson(Packed)) << Src;
    EXPECT_EQ(Ref.EngineDivergences, 0u);
    EXPECT_EQ(Packed.EngineDivergences, 0u);
    EXPECT_TRUE(ofCheck(Ref, checkid::EngineDivergence).empty());
  }
}

//===----------------------------------------------------------------------===//
// renderers
//===----------------------------------------------------------------------===//

TEST(LintRenderTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(LintRenderTest, TextRendererShowsSnippetAndCaret) {
  std::string Src = "do i = 1, 10 {\n"
                    "  B[i] = A[i] + A[i+1];\n"
                    "}\n";
  LintResult R = lint(Src);
  SourceMap Sources;
  Sources.add("test.arf", Src);
  std::ostringstream OS;
  renderText(OS, R.Diags, Sources);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("test.arf:2:10: warning: [redundant-load]"),
            std::string::npos);
  EXPECT_NE(Out.find("B[i] = A[i] + A[i+1];"), std::string::npos);
  EXPECT_NE(Out.find("^"), std::string::npos);
  EXPECT_NE(Out.find("distance: 1 iteration"), std::string::npos);
  EXPECT_NE(Out.find("fix:"), std::string::npos);
}

TEST(LintRenderTest, SourceMapLineLookup) {
  SourceMap Sources;
  Sources.add("open.arf", "first\n\nlast");
  Sources.add("closed.arf", "one\ntwo\n");
  EXPECT_EQ(Sources.line("open.arf", 0), "");
  EXPECT_EQ(Sources.line("open.arf", 1), "first");
  EXPECT_EQ(Sources.line("open.arf", 2), "");
  // Last line without a trailing newline.
  EXPECT_EQ(Sources.line("open.arf", 3), "last");
  EXPECT_EQ(Sources.line("open.arf", 4), "");
  // Last line with a trailing newline, then the empty line after it.
  EXPECT_EQ(Sources.line("closed.arf", 2), "two");
  EXPECT_EQ(Sources.line("closed.arf", 3), "");
  EXPECT_EQ(Sources.line("closed.arf", 4), "");
  EXPECT_EQ(Sources.line("unknown.arf", 1), "");
  EXPECT_EQ(Sources.textOf("unknown.arf"), nullptr);
  // Re-adding a file replaces its text and its line index.
  Sources.add("open.arf", "x\ny");
  EXPECT_EQ(*Sources.textOf("open.arf"), "x\ny");
  EXPECT_EQ(Sources.line("open.arf", 2), "y");
  EXPECT_EQ(Sources.line("open.arf", 3), "");
}

TEST(LintRenderTest, JsonLinesOneObjectPerDiagnostic) {
  LintResult R = lint("do i = 1, 10 {\n  A[i+1] = A[i];\n}\n");
  std::string Out = renderedJson(R);
  size_t Lines = 0;
  std::istringstream In(Out);
  std::string Line;
  while (std::getline(In, Line)) {
    ++Lines;
    EXPECT_EQ(Line.front(), '{');
    EXPECT_EQ(Line.back(), '}');
    EXPECT_NE(Line.find("\"check\":"), std::string::npos);
    EXPECT_NE(Line.find("\"severity\":"), std::string::npos);
    EXPECT_NE(Line.find("\"line\":"), std::string::npos);
  }
  EXPECT_EQ(Lines, R.Diags.size());
}

TEST(LintRenderTest, SarifHasSchemaRulesAndResults) {
  LintResult R = lint("do i = 1, 10 {\n  A[i+1] = A[i];\n}\n");
  ASSERT_FALSE(R.Diags.empty());
  std::ostringstream OS;
  renderSarif(OS, R.Diags);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(Out.find("\"name\": \"ardf-lint\""), std::string::npos);
  EXPECT_NE(Out.find("\"ruleId\": \"cross-iteration-conflict\""),
            std::string::npos);
  EXPECT_NE(Out.find("\"startLine\": 2"), std::string::npos);
  EXPECT_NE(Out.find("\"iterationDistance\": 1"), std::string::npos);
}

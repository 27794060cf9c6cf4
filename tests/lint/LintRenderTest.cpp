//===- tests/lint/LintRenderTest.cpp - Finding text and presentation order ===//
//
// The one formatter of the four framework checks' compact finding
// records, pinned to the exact message, fix-hint and note strings of
// ardf-lint's output; and sortDiagnostics' order, pinned to its textual
// definition (file, line, column, check id, message, then insertion
// order).
//
//===----------------------------------------------------------------------===//

#include "analysis/Dependence.h"
#include "lint/Checks.h"
#include "lint/LintEngine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <tuple>

using namespace ardf;

namespace {

/// One finding ardf-lint reports on a one-line program, with the text
/// it printed for it.
struct FindingText {
  const char *Program;
  const char *Check;
  unsigned Col;
  const char *Message;
  const char *Fix;
  unsigned NoteCol;
  const char *Note;
};

const FindingText Findings[] = {
    // redundant-load at distances 0, 1 and 2.
    {"do i = 1, 10 { B[i] = A[i]; C[i] = A[i]; }", checkid::RedundantLoad, 36,
     "redundant load: A[i] re-reads the value of A[i] from earlier in the "
     "same iteration",
     "reuse the scalar that already holds A[i] instead of reloading from "
     "memory",
     23, "value of A[i] is generated here"},
    {"do i = 1, 10 { B[i] = A[i] + A[i + 1]; }", checkid::RedundantLoad, 23,
     "redundant load: A[i] re-reads the value A[i + 1] produced 1 iteration "
     "earlier",
     "keep the last 2 value(s) of A[i + 1] in scalar temporaries (register "
     "pipeline of depth 1)",
     30, "value of A[i + 1] is generated here"},
    {"do i = 1, 10 { B[i] = A[i] + A[i + 2]; }", checkid::RedundantLoad, 23,
     "redundant load: A[i] re-reads the value A[i + 2] produced 2 "
     "iterations earlier",
     "keep the last 3 value(s) of A[i + 2] in scalar temporaries (register "
     "pipeline of depth 2)",
     30, "value of A[i + 2] is generated here"},
    // dead-store at distances 0, 1 and 2.
    {"do i = 1, 10 { A[i + 1] = B[i]; A[i + 1] = C[i]; }", checkid::DeadStore,
     16,
     "dead store: A[i + 1] is overwritten by A[i + 1] later in the same "
     "iteration without an intervening read",
     "remove the store; its value is never observed", 33,
     "A[i + 1] overwrites the element here"},
    {"do i = 1, 10 { A[i + 1] = B[i]; A[i] = C[i]; }", checkid::DeadStore, 16,
     "dead store: A[i + 1] is overwritten by A[i] 1 iteration later without "
     "an intervening read",
     "remove the store from the loop and unpeel the final 1 iteration into "
     "an epilogue",
     33, "A[i] overwrites the element here"},
    {"do i = 1, 10 { A[i + 2] = B[i]; A[i] = C[i]; }", checkid::DeadStore, 16,
     "dead store: A[i + 2] is overwritten by A[i] 2 iterations later "
     "without an intervening read",
     "remove the store from the loop and unpeel the final 2 iterations into "
     "an epilogue",
     33, "A[i] overwrites the element here"},
    // loop-carried-reuse at distances 1 and 3 (the check reports no
    // same-iteration pairs; distance 0 is pinned on a record below).
    {"do i = 1, 10 { A[i + 1] = B[i]; C[i] = A[i]; }",
     checkid::LoopCarriedReuse, 40,
     "loop-carried reuse: A[i] always reads the value stored by A[i + 1] 1 "
     "iteration earlier; register pipelining candidate (distance 1, 2 "
     "register(s), saves one load per iteration)",
     "carry the value in 2 rotating scalar register(s) to eliminate the "
     "load of A[i]",
     16, "pipelined value is stored here by A[i + 1]"},
    {"do i = 1, 10 { A[i + 3] = A[i] + 1; }", checkid::LoopCarriedReuse, 27,
     "loop-carried reuse: A[i] always reads the value stored by A[i + 3] 3 "
     "iterations earlier; register pipelining candidate (distance 3, 4 "
     "register(s), saves one load per iteration)",
     "carry the value in 4 rotating scalar register(s) to eliminate the "
     "load of A[i]",
     16, "pipelined value is stored here by A[i + 3]"},
    // cross-iteration-conflict: each shape at distance 1 and at 2 or 3
    // (only carried dependences are reported; distance 0 is pinned on a
    // record below).
    {"do i = 1, 10 { A[i + 1] = B[i]; A[i] = C[i]; }",
     checkid::CrossIterationConflict, 33,
     "cross-iteration write/write conflict: output dependence A[i + 1] -> "
     "A[i] at distance 1 blocks unordered parallel execution of iterations",
     "iterations closer than 1 iteration apart are dependence-free; unroll "
     "or block by at most 1 for safe overlap",
     16, "A[i + 1] conflicts from here"},
    {"do i = 1, 10 { A[i + 2] = B[i]; A[i] = C[i]; }",
     checkid::CrossIterationConflict, 33,
     "cross-iteration write/write conflict: output dependence A[i + 2] -> "
     "A[i] at distance 2 blocks unordered parallel execution of iterations",
     "iterations closer than 2 iterations apart are dependence-free; unroll "
     "or block by at most 2 for safe overlap",
     16, "A[i + 2] conflicts from here"},
    {"do i = 1, 10 { A[i + 1] = B[i]; C[i] = A[i]; }",
     checkid::CrossIterationConflict, 40,
     "cross-iteration write/read conflict: flow dependence A[i + 1] -> A[i] "
     "at distance 1 blocks unordered parallel execution of iterations",
     "iterations closer than 1 iteration apart are dependence-free; unroll "
     "or block by at most 1 for safe overlap",
     16, "A[i + 1] conflicts from here"},
    {"do i = 1, 10 { A[i + 3] = A[i] + 1; }", checkid::CrossIterationConflict,
     27,
     "cross-iteration write/read conflict: flow dependence A[i + 3] -> A[i] "
     "at distance 3 blocks unordered parallel execution of iterations",
     "iterations closer than 3 iterations apart are dependence-free; unroll "
     "or block by at most 3 for safe overlap",
     16, "A[i + 3] conflicts from here"},
    {"do i = 1, 10 { B[i] = A[i + 1]; A[i] = C[i]; }",
     checkid::CrossIterationConflict, 33,
     "cross-iteration read/write conflict: anti dependence A[i + 1] -> A[i] "
     "at distance 1 blocks unordered parallel execution of iterations",
     "iterations closer than 1 iteration apart are dependence-free; unroll "
     "or block by at most 1 for safe overlap",
     23, "A[i + 1] conflicts from here"},
    {"do i = 1, 10 { B[i] = A[i + 2]; A[i] = C[i]; }",
     checkid::CrossIterationConflict, 33,
     "cross-iteration read/write conflict: anti dependence A[i + 2] -> A[i] "
     "at distance 2 blocks unordered parallel execution of iterations",
     "iterations closer than 2 iterations apart are dependence-free; unroll "
     "or block by at most 2 for safe overlap",
     23, "A[i + 2] conflicts from here"},
};

/// A compact finding record as the checks build it.
Diagnostic record(const char *Check, const char *Sink, const char *Source,
                  int64_t Distance, SourceLoc Loc = SourceLoc(1, 1),
                  const char *File = "t.arf") {
  Diagnostic D;
  D.CheckId = Check;
  D.Severity = DiagSeverity::Note;
  D.File = File;
  D.Loc = Loc;
  D.Distance = Distance;
  D.SinkText = Sink;
  D.SourceText = Source;
  D.SourcePos = SourceLoc(1, 2);
  return D;
}

Diagnostic freeForm(const char *Check, const char *Message, SourceLoc Loc,
                    const char *File = "t.arf") {
  Diagnostic D;
  D.CheckId = Check;
  D.File = File;
  D.Loc = Loc;
  D.Message = Message;
  return D;
}

/// Messages of \p Diags in order.
std::vector<std::string> messages(const std::vector<Diagnostic> &Diags) {
  std::vector<std::string> Out;
  for (const Diagnostic &D : Diags)
    Out.push_back(D.message());
  return Out;
}

} // namespace

TEST(LintRenderTest, FindingTextMatchesTheCheckTemplates) {
  for (const FindingText &F : Findings) {
    SCOPED_TRACE(std::string(F.Check) + " on " + F.Program);
    LintResult R = lintSource(F.Program, "t.arf");
    const Diagnostic *Found = nullptr;
    for (const Diagnostic &D : R.Diags)
      if (D.CheckId == F.Check && D.Loc == SourceLoc(1, F.Col))
        Found = &D;
    ASSERT_NE(Found, nullptr);
    const Diagnostic &D = *Found;
    EXPECT_TRUE(D.isFinding());
    EXPECT_TRUE(D.Message.empty());
    EXPECT_TRUE(D.FixHint.empty());
    EXPECT_EQ(D.message(), F.Message);
    EXPECT_EQ(D.fixHint(), F.Fix);
    ASSERT_EQ(D.related().size(), 1u);
    EXPECT_EQ(D.related()[0].Loc, SourceLoc(1, F.NoteCol));
    EXPECT_EQ(D.related()[0].Message, F.Note);
  }
}

TEST(LintRenderTest, DistanceZeroTemplatesOfCarriedChecks) {
  // The checks never report these (both read carried pairs only), but the
  // formatter spells every distance the same way.
  Diagnostic Reuse = record(checkid::LoopCarriedReuse, "A[i]", "A[i]", 0);
  EXPECT_EQ(Reuse.message(),
            "loop-carried reuse: A[i] always reads the value stored by A[i] "
            "0 iterations earlier; register pipelining candidate (distance "
            "0, 1 register(s), saves one load per iteration)");
  EXPECT_EQ(Reuse.fixHint(), "carry the value in 1 rotating scalar "
                             "register(s) to eliminate the load of A[i]");
  Diagnostic Conflict =
      record(checkid::CrossIterationConflict, "A[i]", "B[i]", 0);
  Conflict.Kind = DepKind::Anti;
  EXPECT_EQ(Conflict.message(),
            "cross-iteration read/write conflict: anti dependence B[i] -> "
            "A[i] at distance 0 blocks unordered parallel execution of "
            "iterations");
  EXPECT_EQ(Conflict.fixHint(),
            "iterations closer than 0 iterations apart are dependence-free; "
            "unroll or block by at most 0 for safe overlap");
}

TEST(LintRenderTest, FreeFormDiagnosticsKeepTheirText) {
  Diagnostic D = freeForm(checkid::Precondition, "loop is not normalized",
                          SourceLoc(2, 1));
  EXPECT_FALSE(D.isFinding());
  EXPECT_EQ(D.message(), "loop is not normalized");
  EXPECT_FALSE(D.hasFixHint());
  EXPECT_EQ(D.fixHint(), "");
  EXPECT_TRUE(D.related().empty());
  D.FixHint = "normalize it";
  EXPECT_TRUE(D.hasFixHint());
  EXPECT_EQ(D.fixHint(), "normalize it");
}

TEST(LintRenderTest, CheckIdComparesByText) {
  Diagnostic D;
  D.CheckId = checkid::DeadStore;
  std::string Copy = "dead-store";
  EXPECT_TRUE(D.CheckId == "dead-store");
  EXPECT_TRUE(D.CheckId == checkid::DeadStore);
  EXPECT_TRUE(D.CheckId == Copy);
  EXPECT_TRUE(D.CheckId == Copy.c_str()); // a different pointer, same text
  EXPECT_FALSE(D.CheckId != "dead-store");
  EXPECT_TRUE(D.CheckId != checkid::RedundantLoad);
  EXPECT_EQ(findingCheck(D.CheckId), FindingCheck::DeadStore);
  EXPECT_EQ(findingCheck("precondition"), FindingCheck::None);
}

TEST(LintSortTest, TiesOrderByMessageTextAgainstInsertion) {
  // One sink, one check, two conflicts: "distance 10" sorts before
  // "distance 9" because messages compare as text.
  Diagnostic Nine = record(checkid::CrossIterationConflict, "A[i]", "A[j]", 9);
  Diagnostic Ten = record(checkid::CrossIterationConflict, "A[i]", "A[j]", 10);
  std::vector<Diagnostic> Diags = {Nine, Ten};
  sortDiagnostics(Diags);
  ASSERT_EQ(Diags.size(), 2u);
  EXPECT_EQ(Diags[0].Distance, 10);
  EXPECT_EQ(Diags[1].Distance, 9);

  // Different source texts order the same way, whatever the insertion.
  std::vector<Diagnostic> BySource = {
      record(checkid::DeadStore, "A[i + 2]", "A[i]", 2),
      record(checkid::DeadStore, "A[i + 2]", "A[i + 1]", 1)};
  std::vector<std::string> Expected = {BySource[0].message(),
                                       BySource[1].message()};
  std::sort(Expected.begin(), Expected.end());
  sortDiagnostics(BySource);
  EXPECT_EQ(messages(BySource), Expected);
}

TEST(LintSortTest, EqualMessagesKeepInsertionOrder) {
  std::vector<Diagnostic> Diags;
  for (unsigned Id = 1; Id <= 3; ++Id) {
    Diags.push_back(record(checkid::RedundantLoad, "A[i]", "A[i + 1]", 1));
    Diags.back().EvidenceSourceId = Id;
  }
  Diags.push_back(freeForm(checkid::Precondition, "same", SourceLoc(1, 1)));
  Diags.back().StmtId = 1;
  Diags.push_back(freeForm(checkid::Precondition, "same", SourceLoc(1, 1)));
  Diags.back().StmtId = 2;
  sortDiagnostics(Diags);
  ASSERT_EQ(Diags.size(), 5u);
  EXPECT_EQ(Diags[0].StmtId, 1u); // "precondition" < "redundant-load"
  EXPECT_EQ(Diags[1].StmtId, 2u);
  for (unsigned I = 0; I != 3; ++I)
    EXPECT_EQ(Diags[2 + I].EvidenceSourceId, I + 1);
}

TEST(LintSortTest, FreeFormAndFindingAtOnePositionOrderByCheckId) {
  SourceLoc At(3, 7);
  std::vector<Diagnostic> Diags = {
      record(checkid::RedundantLoad, "A[i]", "A[i]", 0, At),
      record(checkid::CrossIterationConflict, "A[i]", "A[i + 1]", 1, At),
      freeForm(checkid::Precondition, "z message", At),
      freeForm(checkid::AnalysisDegraded, "z message", At),
      // An id outside the catalog sorts between its textual neighbours.
      freeForm("custom-check", "a message", At),
      record(checkid::DeadStore, "A[i]", "A[i + 1]", 1, At),
  };
  sortDiagnostics(Diags);
  std::vector<std::string> Ids;
  for (const Diagnostic &D : Diags)
    Ids.emplace_back(D.CheckId.view());
  EXPECT_EQ(Ids, (std::vector<std::string>{
                     "analysis-degraded", "cross-iteration-conflict",
                     "custom-check", "dead-store", "precondition",
                     "redundant-load"}));
}

TEST(LintSortTest, FilesOrderFirstThenPositions) {
  std::vector<Diagnostic> Diags = {
      record(checkid::RedundantLoad, "A[i]", "A[i]", 0, SourceLoc(1, 5),
             "b.arf"),
      record(checkid::RedundantLoad, "A[i]", "A[i]", 0, SourceLoc(9, 1),
             "a.arf"),
      record(checkid::RedundantLoad, "A[i]", "A[i]", 0, SourceLoc(1, 2),
             "b.arf"),
      freeForm(checkid::ParseError, "bad", SourceLoc(2, 1), "a.arf"),
  };
  sortDiagnostics(Diags);
  std::vector<std::tuple<std::string, unsigned, unsigned>> Order;
  for (const Diagnostic &D : Diags)
    Order.emplace_back(D.File, D.Loc.Line, D.Loc.Col);
  EXPECT_EQ(Order,
            (std::vector<std::tuple<std::string, unsigned, unsigned>>{
                {"a.arf", 2, 1}, {"a.arf", 9, 1}, {"b.arf", 1, 2},
                {"b.arf", 1, 5}}));
}

TEST(LintSortTest, MatchesTheTextualOrderOnALintRun) {
  // A shuffled lint result sorts exactly like a stable sort on
  // (file, line, column, check id, formatted message).
  const char *Src = "do i = 1, 20 {\n"
                    "  A[i + 10] = B[i] + A[i + 1];\n"
                    "  A[i + 9] = C[i] + A[i];\n"
                    "  if (A[i + 2] > 0) { A[i] = D[i] + A[i + 3]; }\n"
                    "  B[i + 1] = A[i + 2] + B[i];\n"
                    "}\n";
  std::vector<Diagnostic> Diags = lintSource(Src, "b.arf").Diags;
  std::vector<Diagnostic> Other = lintSource(Src, "a.arf").Diags;
  Diags.insert(Diags.end(), Other.begin(), Other.end());
  ASSERT_GT(Diags.size(), 10u);
  std::shuffle(Diags.begin(), Diags.end(), std::mt19937(7));
  std::vector<Diagnostic> Expected = Diags;
  std::stable_sort(Expected.begin(), Expected.end(),
                   [](const Diagnostic &A, const Diagnostic &B) {
                     auto Key = [](const Diagnostic &D) {
                       return std::make_tuple(D.File, D.Loc.Line, D.Loc.Col,
                                              std::string(D.CheckId.view()),
                                              D.message());
                     };
                     return Key(A) < Key(B);
                   });
  sortDiagnostics(Diags);
  ASSERT_EQ(Diags.size(), Expected.size());
  for (size_t I = 0; I != Diags.size(); ++I) {
    EXPECT_EQ(Diags[I].File, Expected[I].File) << I;
    EXPECT_EQ(Diags[I].Loc, Expected[I].Loc) << I;
    EXPECT_EQ(Diags[I].message(), Expected[I].message()) << I;
    EXPECT_EQ(Diags[I].EvidenceSourceId, Expected[I].EvidenceSourceId) << I;
  }
}

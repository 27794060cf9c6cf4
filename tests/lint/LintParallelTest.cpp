//===- tests/lint/LintParallelTest.cpp - Lint output per thread count -----===//
//
// Linting a file's loops on the worker pool must not change a byte of
// the output: for 1, 2, 4 and 8 threads the text, JSON-lines and SARIF
// renders, with and without --explain, and the result counts are equal
// over the bundled examples, the fuzz corpus and a generated program of
// 96 loops that mixes nests, while loops, rejected loops and loops that
// assign their induction variable.
//
//===----------------------------------------------------------------------===//

#include "lint/Checks.h"
#include "lint/LintEngine.h"
#include "lint/Render.h"
#include "support/Deadline.h"
#include "support/FailPoint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace ardf;

namespace {

struct Output {
  std::string Text, Json, Sarif;
  unsigned Loops = 0, Divergences = 0, Degraded = 0;
};

Output lintWith(const std::string &Src, const std::string &File,
                unsigned Threads, bool Explain) {
  LintOptions Opts;
  Opts.Threads = Threads;
  Opts.Explain = Explain;
  LintResult R = lintSource(Src, File, Opts);
  SourceMap Sources;
  Sources.add(File, Src);
  std::ostringstream Text, Json, Sarif;
  renderText(Text, R.Diags, Sources);
  renderJsonLines(Json, R.Diags);
  renderSarif(Sarif, R.Diags);
  return {Text.str(),        Json.str(),          Sarif.str(),
          R.LoopsAnalyzed, R.EngineDivergences, R.ChecksDegraded};
}

void expectSameForEveryThreadCount(const std::string &Src,
                                   const std::string &File) {
  for (bool Explain : {false, true}) {
    Output Serial = lintWith(Src, File, 1, Explain);
    for (unsigned Threads : {2u, 4u, 8u}) {
      Output Pooled = lintWith(Src, File, Threads, Explain);
      std::string Where = File + " threads=" + std::to_string(Threads) +
                          (Explain ? " --explain" : "");
      EXPECT_EQ(Pooled.Text, Serial.Text) << Where;
      EXPECT_EQ(Pooled.Json, Serial.Json) << Where;
      EXPECT_EQ(Pooled.Sarif, Serial.Sarif) << Where;
      EXPECT_EQ(Pooled.Loops, Serial.Loops) << Where;
      EXPECT_EQ(Pooled.Divergences, Serial.Divergences) << Where;
      EXPECT_EQ(Pooled.Degraded, Serial.Degraded) << Where;
    }
  }
}

unsigned lintEveryFileIn(const std::string &Dir) {
  namespace fs = std::filesystem;
  unsigned Count = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir)) {
    if (!E.is_regular_file())
      continue;
    std::ifstream In(E.path(), std::ios::binary);
    EXPECT_TRUE(In.good()) << E.path();
    std::ostringstream SS;
    SS << In.rdbuf();
    expectSameForEveryThreadCount(SS.str(), E.path().filename().string());
    ++Count;
  }
  return Count;
}

/// 16 groups of six loops: a DO loop with reuse, a two-level nest whose
/// outer body writes a scalar the inner subscripts use, a counted while,
/// a loop with an early exit (rejected), and a DO loop that assigns its
/// induction variable (a precondition error). 64 loops are analyzed.
std::string manyLoopsProgram() {
  std::ostringstream OS;
  OS << "array C[32, 32];\n";
  for (unsigned G = 0; G != 16; ++G) {
    unsigned O = G % 4 + 1;
    OS << "do i = 1, " << 30 + G << " {\n  A[i + " << O
       << "] = A[i] + B[i - 1];\n  B[i] = A[i + 1];\n}\n";
    OS << "k = 0;\ndo i = 1, 10 {\n  k = k + " << O
       << ";\n  do j = 1, 8 {\n    C[j + 1, i] = C[j, i] + 1;\n"
          "    A[k + j] = A[k + j - 1];\n  }\n}\n";
    OS << "w = 1;\nwhile (w <= 20) {\n  B[w + " << O
       << "] = B[w];\n  w = w + 1;\n}\n";
    OS << "do e = 1, 20 {\n  T[e] = A[e];\n  if (T[e] == 0) {\n"
          "    break;\n  }\n}\n";
    OS << "do v = 1, 10 {\n  A[v] = A[v - 1];\n  v = v + 1;\n}\n";
  }
  return OS.str();
}

} // namespace

TEST(LintParallelTest, ExamplesAreTheSameForEveryThreadCount) {
  EXPECT_GE(lintEveryFileIn(ARDF_EXAMPLES_DIR), 5u);
}

TEST(LintParallelTest, FuzzCorpusIsTheSameForEveryThreadCount) {
  EXPECT_GE(lintEveryFileIn(ARDF_FUZZ_CORPUS_DIR), 8u);
}

TEST(LintParallelTest, ManyMixedLoopsAreTheSameForEveryThreadCount) {
  std::string Src = manyLoopsProgram();
  Output Serial = lintWith(Src, "many.arf", 1, false);
  EXPECT_EQ(Serial.Loops, 64u);
  for (const char *Id : {"analysis-unsupported", "precondition",
                         "redundant-load", "cross-iteration-conflict"})
    EXPECT_NE(Serial.Json.find(std::string("\"check\":\"") + Id + "\""),
              std::string::npos)
        << Id;
  EXPECT_NE(Serial.Text.find("level distances: i=?, j=1"), std::string::npos);
  expectSameForEveryThreadCount(Src, "many.arf");
}

TEST(LintParallelTest, DegradedChecksAreCountedForEveryThreadCount) {
  // Every check throws: each loop's checks degrade wherever it ran.
  failpoint::ScopedFailPoint FP("lint.check", failpoint::Action::Throw);
  std::string Src = manyLoopsProgram();
  Output Serial = lintWith(Src, "many.arf", 1, false);
  EXPECT_EQ(Serial.Degraded, 64u * 5);
  for (unsigned Threads : {2u, 4u, 8u}) {
    Output Pooled = lintWith(Src, "many.arf", Threads, false);
    EXPECT_EQ(Pooled.Degraded, Serial.Degraded) << Threads;
    EXPECT_EQ(Pooled.Text, Serial.Text) << Threads;
  }
}

TEST(LintParallelTest, PassedDeadlineYieldsNoFinding) {
  deadline::Scope Passed(1);
  ASSERT_TRUE(deadline::passed());
  LintOptions Opts;
  Opts.Threads = 4;
  LintResult R = lintSource(manyLoopsProgram(), "many.arf", Opts);
  EXPECT_EQ(R.LoopsAnalyzed, 0u);
  // Only the precondition errors found before the loops remain.
  for (const Diagnostic &D : R.Diags)
    EXPECT_EQ(D.CheckId, checkid::Precondition) << D.message();
}

//===- tests/driver/DriverIncrementalTest.cpp - Warm rerun diffing -------===//
//
// ProgramAnalysisDriver::rerun: the structural diff must carry every
// unchanged loop's record -- session, memoized compiled programs,
// solutions -- across an edit untouched (zero solver work, zero
// re-lowering), re-analyze exactly the edited/new loops, and end
// bit-identical to a cold analysis of the new program, serial and
// threaded.
//
//===----------------------------------------------------------------------===//

#include "driver/ProgramAnalysisDriver.h"
#include "frontend/Parser.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

using namespace ardf;

namespace {

/// \p Loops top-level loops over shared arrays; loop \p Edited (if in
/// range) gets a different recurrence offset, everything else is
/// byte-identical across calls.
std::string multiLoopSource(unsigned Loops, int Edited = -1,
                            const char *Decls =
                                "array A[200]; array B[200]; array C[200];\n") {
  std::ostringstream OS;
  OS << Decls;
  for (unsigned L = 0; L != Loops; ++L) {
    bool IsEdited = static_cast<int>(L) == Edited;
    OS << "do i = 1, " << (100 + L) << " {\n";
    OS << "  A[i+" << (IsEdited ? 3 : L % 2 + 1) << "] = A[i] + B[i];\n";
    if (L % 3 == 0)
      OS << "  if (B[i] > 0) { B[i+1] = A[i-1]; }\n";
    OS << "  C[i] = C[i-2] + " << L << ";\n";
    OS << "}\n";
  }
  return OS.str();
}

/// Driver options running the packed kernel inline (counters land in
/// the caller's telemetry scope).
DriverOptions packedOptions(unsigned Threads = 1) {
  DriverOptions Opts;
  Opts.Threads = Threads;
  Opts.Solver.Eng = SolverOptions::Engine::PackedKernel;
  return Opts;
}

/// Every loop's every-problem solution must agree bit for bit between
/// the two drivers (same loop order: collect is deterministic).
void expectSameSolutions(ProgramAnalysisDriver &A,
                         ProgramAnalysisDriver &B) {
  ASSERT_EQ(A.loops().size(), B.loops().size());
  for (size_t I = 0; I != A.loops().size(); ++I) {
    LoopAnalysisSession *SA = A.loops()[I].Session.get();
    LoopAnalysisSession *SB = B.loops()[I].Session.get();
    ASSERT_NE(SA, nullptr);
    ASSERT_NE(SB, nullptr);
    for (const ProblemSpec &Spec : paperProblems()) {
      const SolveResult &RA = SA->solve(Spec, A.options().Solver);
      const SolveResult &RB = SB->solve(Spec, B.options().Solver);
      EXPECT_EQ(RA.In, RB.In) << "loop " << I << " " << Spec.Name;
      EXPECT_EQ(RA.Out, RB.Out) << "loop " << I << " " << Spec.Name;
    }
  }
}

} // namespace

TEST(DriverIncrementalTest, UnchangedProgramReusesEveryLoop) {
  Program A = parseOrDie(multiLoopSource(5));
  Program B = parseOrDie(multiLoopSource(5));
  ProgramAnalysisDriver Driver(A, packedOptions());
  Driver.run();
  std::vector<const LoopAnalysisSession *> Sessions;
  std::vector<const DoLoopStmt *> OldLoops;
  for (const AnalyzedLoop &R : Driver.loops()) {
    Sessions.push_back(R.Session.get());
    OldLoops.push_back(R.Loop);
  }

  telem::Telemetry Telem;
  telem::TelemetryScope Scope(Telem);
  DriverRerun Diff = Driver.rerun(B);
  EXPECT_EQ(Diff.Reused, 5u);
  EXPECT_EQ(Diff.Reanalyzed, 0u);
  // No solver work at all: no lowerings, no solves, no driver loops.
  EXPECT_EQ(Telem.get(telem::Counter::FlowCompiles), 0u);
  EXPECT_EQ(Telem.get(telem::Counter::SolverRunsPacked), 0u);
  EXPECT_EQ(Telem.get(telem::Counter::DriverLoops), 0u);
  // The records now anchor to the new program's loops but keep their
  // old sessions (order is deterministic, so pairwise).
  ASSERT_EQ(Driver.loops().size(), 5u);
  EXPECT_EQ(&Driver.program(), &B);
  for (size_t I = 0; I != Sessions.size(); ++I) {
    EXPECT_EQ(Driver.loops()[I].Session.get(), Sessions[I]);
    EXPECT_NE(Driver.loops()[I].Loop, OldLoops[I]) << "loop " << I
        << " must be re-anchored into the new program";
  }
}

TEST(DriverIncrementalTest, OneEditReanalyzesExactlyThatLoop) {
  Program A = parseOrDie(multiLoopSource(5));
  Program B = parseOrDie(multiLoopSource(5, /*Edited=*/2));
  ProgramAnalysisDriver Driver(A, packedOptions());
  Driver.run();

  telem::Telemetry Telem;
  telem::TelemetryScope Scope(Telem);
  DriverRerun Diff = Driver.rerun(B);
  EXPECT_EQ(Diff.Reused, 4u);
  EXPECT_EQ(Diff.Reanalyzed, 1u);
  // Exactly the edited loop's programs were lowered: one per paper
  // problem, nothing for the carried loops.
  EXPECT_EQ(Telem.get(telem::Counter::FlowCompiles),
            paperProblems().size());
  EXPECT_EQ(Telem.get(telem::Counter::DriverLoops), 1u);

  // The warm rerun must end exactly where a cold analysis of the new
  // program ends.
  ProgramAnalysisDriver Cold(B, packedOptions());
  Cold.run();
  expectSameSolutions(Driver, Cold);
  EXPECT_EQ(Driver.report().Ok, Cold.report().Ok);
}

TEST(DriverIncrementalTest, AddedAndRemovedLoopsDiffCleanly) {
  Program A = parseOrDie(multiLoopSource(4));
  Program Grown = parseOrDie(multiLoopSource(5));
  Program Shrunk = parseOrDie(multiLoopSource(3));
  ProgramAnalysisDriver Driver(A, packedOptions());
  Driver.run();

  // Appending a loop keeps all four old records and analyzes the new
  // one (bodies vary per index, so exactly loop 4 is new).
  DriverRerun Grow = Driver.rerun(Grown);
  EXPECT_EQ(Grow.Reused, 4u);
  EXPECT_EQ(Grow.Reanalyzed, 1u);
  EXPECT_EQ(Driver.loops().size(), 5u);
  EXPECT_EQ(Driver.report().total(), 5u);

  // Dropping loops just drops their records.
  DriverRerun Shrink = Driver.rerun(Shrunk);
  EXPECT_EQ(Shrink.Reused, 3u);
  EXPECT_EQ(Shrink.Reanalyzed, 0u);
  EXPECT_EQ(Driver.loops().size(), 3u);
}

TEST(DriverIncrementalTest, ArrayDeclEditInvalidatesEveryLoop) {
  // Declarations parameterize linearization, so a decl edit must force
  // a full re-analysis even though every loop body is unchanged.
  Program A = parseOrDie(multiLoopSource(4));
  Program B = parseOrDie(multiLoopSource(
      4, -1, "array A[999]; array B[200]; array C[200];\n"));
  ProgramAnalysisDriver Driver(A, packedOptions());
  Driver.run();
  DriverRerun Diff = Driver.rerun(B);
  EXPECT_EQ(Diff.Reused, 0u);
  EXPECT_EQ(Diff.Reanalyzed, 4u);
  ProgramAnalysisDriver Cold(B, packedOptions());
  Cold.run();
  expectSameSolutions(Driver, Cold);
}

TEST(DriverIncrementalTest, RerunBeforeRunRunsTheInitialBatch) {
  Program A = parseOrDie(multiLoopSource(3));
  Program B = parseOrDie(multiLoopSource(3, /*Edited=*/1));
  ProgramAnalysisDriver Driver(A, packedOptions());
  // rerun without an explicit run(): the initial batch runs first, so
  // the diff sees fully analyzed records.
  DriverRerun Diff = Driver.rerun(B);
  EXPECT_EQ(Diff.Reused, 2u);
  EXPECT_EQ(Diff.Reanalyzed, 1u);
  EXPECT_EQ(Driver.report().total(), 3u);
}

TEST(DriverIncrementalTest, WhileLoopsDiffStructurally) {
  // rerun() diffs on the SOURCE statements (While::equals / structural
  // equality), not the reduced forms: an unchanged while program must
  // reuse everything, and editing one while must re-analyze only it.
  auto WhileSource = [](int EditedOffset) {
    std::ostringstream OS;
    OS << "array A[200];\n";
    OS << "i = 1;\n"
       << "while (i <= 50) {\n"
       << "  A[i+" << EditedOffset << "] = A[i] + 1;\n"
       << "  i = i + 1;\n"
       << "}\n";
    OS << "do k = 1, 40 { A[k+2] = A[k]; }\n";
    return OS.str();
  };
  Program A = parseOrDie(WhileSource(1));
  Program Same = parseOrDie(WhileSource(1));
  Program Edited = parseOrDie(WhileSource(3));

  ProgramAnalysisDriver Driver(A, packedOptions());
  Driver.run();
  ASSERT_EQ(Driver.loops().size(), 2u);
  const LoopAnalysisSession *WhileSession = Driver.loops()[0].Session.get();
  ASSERT_TRUE(isa<WhileStmt>(Driver.loops()[0].Source));

  // Byte-identical program: both records carry over, sessions intact.
  DriverRerun Unchanged = Driver.rerun(Same);
  EXPECT_EQ(Unchanged.Reused, 2u);
  EXPECT_EQ(Unchanged.Reanalyzed, 0u);
  EXPECT_EQ(Driver.loops()[0].Session.get(), WhileSession);
  // Records re-anchor into the new program's source statements.
  EXPECT_TRUE(isa<WhileStmt>(Driver.loops()[0].Source));
  EXPECT_EQ(Driver.loops()[0].Source, Same.getStmts()[1].get());

  // Editing the while body re-analyzes the while, reuses the DO.
  DriverRerun Diff = Driver.rerun(Edited);
  EXPECT_EQ(Diff.Reused, 1u);
  EXPECT_EQ(Diff.Reanalyzed, 1u);
  EXPECT_NE(Driver.loops()[0].Session.get(), WhileSession);

  ProgramAnalysisDriver Cold(Edited, packedOptions());
  Cold.run();
  expectSameSolutions(Driver, Cold);
}

TEST(DriverIncrementalTest, UnsupportedLoopsSurviveRerun) {
  // A loop the recognizer rejects has no session; rerun must carry the
  // unsupported record without touching it or crashing on a null Loop.
  const char *Source = "array A[100];\n"
                       "do i = 1, 50 { if (A[i] > 0) { break; } A[i] = 1; }\n"
                       "do j = 1, 50 { A[j+1] = A[j]; }\n";
  Program A = parseOrDie(Source);
  Program B = parseOrDie(Source);
  ProgramAnalysisDriver Driver(A, packedOptions());
  Driver.run();
  ASSERT_EQ(Driver.loops().size(), 2u);
  EXPECT_EQ(Driver.report().Unsupported, 1u);
  EXPECT_EQ(Driver.report().Ok, 1u);
  EXPECT_EQ(Driver.report().total(), 2u);

  // Unsupported records never analyze, so they neither reuse nor
  // reanalyze: only the supported DO loop shows up in the diff tally.
  DriverRerun Diff = Driver.rerun(B);
  EXPECT_EQ(Diff.Reused, 1u);
  EXPECT_EQ(Diff.Reanalyzed, 0u);
  EXPECT_EQ(Driver.report().Unsupported, 1u);
  bool SawReason = false;
  for (const AnalyzedLoop &R : Driver.loops())
    if (!R.Loop)
      SawReason = !R.UnsupportedReason.empty();
  EXPECT_TRUE(SawReason);
}

TEST(DriverIncrementalTest, ThreadedRerunMatchesColdAnalysis) {
  Program A = parseOrDie(multiLoopSource(8));
  Program B = parseOrDie(multiLoopSource(8, /*Edited=*/5));
  ProgramAnalysisDriver Driver(A, packedOptions(/*Threads=*/4));
  Driver.run();
  DriverRerun Diff = Driver.rerun(B);
  EXPECT_EQ(Diff.Reused, 7u);
  EXPECT_EQ(Diff.Reanalyzed, 1u);
  ProgramAnalysisDriver Cold(B, packedOptions(/*Threads=*/4));
  Cold.run();
  expectSameSolutions(Driver, Cold);
}

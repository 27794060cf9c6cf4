//===- tests/driver/DriverTest.cpp - Whole-program batched driver --------===//

#include "driver/ProgramAnalysisDriver.h"
#include "frontend/Parser.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

using namespace ardf;

namespace {

/// A deterministic multi-loop program: \p Loops top-level loops with
/// varied recurrent bodies, every third one with a conditional store.
std::string multiLoopSource(unsigned Loops) {
  std::ostringstream OS;
  for (unsigned L = 0; L != Loops; ++L) {
    OS << "do i = 1, " << (100 + L) << " {\n";
    OS << "  A[i+" << (L % 3 + 1) << "] = A[i] + B[i-" << (L % 2) << "];\n";
    if (L % 3 == 0)
      OS << "  if (B[i] > 0) { B[i+1] = A[i-1]; }\n";
    OS << "  C[i] = C[i-2] + " << L << ";\n";
    OS << "}\n";
  }
  return OS.str();
}

const char *NestedSource = R"(
  do i = 1, 100 {
    A[i] = A[i-1] + 1;
    do j = 1, 10 {
      B[j+1] = B[j] + A[i];
    }
  }
  if (X > 0) {
    do k = 1, 50 { C[k+2] = C[k]; }
  }
)";

} // namespace

TEST(DriverTest, EnumeratesLoopsInnermostFirst) {
  Program P = parseOrDie(NestedSource);
  ProgramAnalysisDriver Driver(P);
  ASSERT_EQ(Driver.loops().size(), 3u);
  // Innermost (depth 1) before the top-level loops, which stay in
  // program order.
  EXPECT_EQ(Driver.loops()[0].Depth, 1u);
  EXPECT_EQ(Driver.loops()[0].Loop->getIndVar(), "j");
  EXPECT_EQ(Driver.loops()[1].Loop->getIndVar(), "i");
  EXPECT_EQ(Driver.loops()[2].Loop->getIndVar(), "k");
}

TEST(DriverTest, IncludeNestedOffAnalyzesTopLevelOnly) {
  Program P = parseOrDie(NestedSource);
  DriverOptions Opts;
  Opts.IncludeNested = false;
  ProgramAnalysisDriver Driver(P, Opts);
  ASSERT_EQ(Driver.loops().size(), 2u);
  EXPECT_EQ(Driver.loops()[0].Loop->getIndVar(), "i");
  EXPECT_EQ(Driver.loops()[1].Loop->getIndVar(), "k");
}

TEST(DriverTest, RunSolvesEveryProblemOnEveryLoop) {
  Program P = parseOrDie(multiLoopSource(6));
  ProgramAnalysisDriver Driver(P);
  Driver.run();
  unsigned Sum = 0;
  for (const AnalyzedLoop &R : Driver.loops()) {
    ASSERT_NE(R.Session, nullptr);
    EXPECT_EQ(R.Session->solvesPerformed(), paperProblems().size());
    EXPECT_GT(R.NodeVisits, 0u);
    Sum += R.NodeVisits;
  }
  EXPECT_EQ(Driver.totalNodeVisits(), Sum);

  // run() is idempotent: a second call must not re-analyze.
  Driver.run();
  EXPECT_EQ(Driver.totalNodeVisits(), Sum);
}

namespace {

/// Serial and 4-thread parallel runs of the same program must agree
/// bit-for-bit, whichever solver engine the driver forwards.
void expectParallelMatchesSerial(SolverOptions::Engine Eng) {
  Program P = parseOrDie(multiLoopSource(12));

  DriverOptions Ser;
  Ser.Solver.Eng = Eng;
  ProgramAnalysisDriver Serial(P, Ser);
  Serial.run();

  DriverOptions Par;
  Par.Threads = 4;
  Par.Solver.Eng = Eng;
  ProgramAnalysisDriver Parallel(P, Par);
  Parallel.run();

  ASSERT_EQ(Serial.loops().size(), Parallel.loops().size());
  EXPECT_EQ(Serial.totalNodeVisits(), Parallel.totalNodeVisits());
  for (size_t I = 0; I != Serial.loops().size(); ++I) {
    const AnalyzedLoop &S = Serial.loops()[I];
    const AnalyzedLoop &Q = Parallel.loops()[I];
    // Each driver owns its reduced forms, so pointers differ across
    // instances; the source statements and reduced structure must agree.
    ASSERT_EQ(S.Source, Q.Source);
    ASSERT_NE(S.Loop, nullptr);
    ASSERT_NE(Q.Loop, nullptr);
    ASSERT_TRUE(S.Loop->equals(*Q.Loop));
    EXPECT_EQ(S.NodeVisits, Q.NodeVisits);
    for (const ProblemSpec &Spec : paperProblems()) {
      // solve() only reads the memoized result here; run() already
      // solved every problem.
      const SolveResult &A = S.Session->solve(Spec, Ser.Solver);
      const SolveResult &B = Q.Session->solve(Spec, Par.Solver);
      EXPECT_EQ(A.In, B.In) << "loop " << I << " / " << Spec.Name;
      EXPECT_EQ(A.Out, B.Out) << "loop " << I << " / " << Spec.Name;
      EXPECT_EQ(A.NodeVisits, B.NodeVisits);
    }
    EXPECT_EQ(S.Session->solvesPerformed(), Q.Session->solvesPerformed());
  }
}

} // namespace

TEST(DriverTest, ParallelRunMatchesSerialRun) {
  expectParallelMatchesSerial(SolverOptions::Engine::Reference);
}

TEST(DriverTest, ParallelRunMatchesSerialRunPackedKernel) {
  expectParallelMatchesSerial(SolverOptions::Engine::PackedKernel);
}

TEST(DriverTest, ParallelRunMergesWorkerTelemetry) {
  Program P = parseOrDie(multiLoopSource(8));

  // Serial run under telemetry: the reference counter values.
  telem::Telemetry Serial;
  {
    telem::TelemetryScope Scope(Serial);
    ProgramAnalysisDriver Driver(P);
    Driver.run();
  }
  EXPECT_EQ(Serial.get(telem::Counter::DriverLoops), 8u);

  // Parallel run: counters merge to identical totals, and the spans the
  // workers recorded land in the root sink with their worker thread ids
  // (> 0) intact.
  telem::Telemetry Root;
  telem::MemoryTraceSink Sink;
  Root.setSink(&Sink);
  {
    telem::TelemetryScope Scope(Root);
    DriverOptions Opts;
    Opts.Threads = 4;
    ProgramAnalysisDriver Driver(P, Opts);
    Driver.run();
  }
  for (telem::Counter C :
       {telem::Counter::DriverLoops, telem::Counter::SolverNodeVisits,
        telem::Counter::SolverMeetOps, telem::Counter::SolverApplyOps,
        telem::Counter::SessionsBuilt,
        telem::Counter::SessionSolutionMisses})
    EXPECT_EQ(Root.get(C), Serial.get(C)) << telem::counterName(C);

  // Nest discovery runs on the root thread (tid 0) before the workers
  // start, so only the per-loop spans carry worker thread ids.
  unsigned LoopSpans = 0;
  std::set<uint32_t> Tids;
  for (const telem::TraceEvent &E : Sink.events()) {
    if (E.Name != "loop")
      continue;
    ++LoopSpans;
    Tids.insert(E.Tid);
  }
  EXPECT_EQ(LoopSpans, 8u);
  EXPECT_TRUE(std::all_of(Tids.begin(), Tids.end(),
                          [](uint32_t T) { return T >= 1; }));
}

TEST(DriverTest, ParallelRunWithoutTelemetryRecordsNothing) {
  ASSERT_EQ(telem::Telemetry::current(), nullptr);
  Program P = parseOrDie(multiLoopSource(4));
  DriverOptions Opts;
  Opts.Threads = 2;
  ProgramAnalysisDriver Driver(P, Opts);
  Driver.run(); // must not crash reaching for a null root context
  EXPECT_GT(Driver.totalNodeVisits(), 0u);
}

TEST(DriverTest, EnginesAgreeAcrossWholeProgram) {
  Program P = parseOrDie(multiLoopSource(8));

  DriverOptions Ref;
  ProgramAnalysisDriver RefDriver(P, Ref);
  RefDriver.run();

  DriverOptions Packed;
  Packed.Solver.Eng = SolverOptions::Engine::PackedKernel;
  ProgramAnalysisDriver PackedDriver(P, Packed);
  PackedDriver.run();

  ASSERT_EQ(RefDriver.loops().size(), PackedDriver.loops().size());
  EXPECT_EQ(RefDriver.totalNodeVisits(), PackedDriver.totalNodeVisits());
  for (size_t I = 0; I != RefDriver.loops().size(); ++I) {
    for (const ProblemSpec &Spec : paperProblems()) {
      const SolveResult &A =
          RefDriver.loops()[I].Session->solve(Spec, Ref.Solver);
      const SolveResult &B =
          PackedDriver.loops()[I].Session->solve(Spec, Packed.Solver);
      EXPECT_EQ(A.In, B.In) << "loop " << I << " / " << Spec.Name;
      EXPECT_EQ(A.Out, B.Out) << "loop " << I << " / " << Spec.Name;
    }
  }
}

TEST(DriverTest, MoreThreadsThanLoops) {
  Program P = parseOrDie(multiLoopSource(2));
  DriverOptions Opts;
  Opts.Threads = 8;
  ProgramAnalysisDriver Driver(P, Opts);
  Driver.run();
  EXPECT_EQ(Driver.loops().size(), 2u);
  EXPECT_GT(Driver.totalNodeVisits(), 0u);
}

TEST(DriverTest, CustomProblemListAndOptions) {
  Program P = parseOrDie(multiLoopSource(3));
  DriverOptions Opts;
  Opts.Problems = {ProblemSpec::availableValues()};
  Opts.Solver.Strat = SolverOptions::Strategy::IterateToFixpoint;
  ProgramAnalysisDriver Driver(P, Opts);
  Driver.run();
  for (const AnalyzedLoop &R : Driver.loops()) {
    EXPECT_EQ(R.Session->solvesPerformed(), 1u);
    EXPECT_TRUE(R.Session->solve(ProblemSpec::availableValues(),
                                 Opts.Solver)
                    .Converged);
  }
}

TEST(DriverTest, EmptyProgram) {
  Program P = parseOrDie("x = 1;");
  ProgramAnalysisDriver Driver(P);
  Driver.run();
  EXPECT_TRUE(Driver.loops().empty());
  EXPECT_EQ(Driver.totalNodeVisits(), 0u);
}

// One problem over the whole program: the hierarchical analysis process
// of Section 3.2 (innermost loops first, each loop solved once).

TEST(DriverTest, SingleProblemOrdersInnermostFirst) {
  Program P = parseOrDie(R"(
    do k = 1, 10 {
      do j = 1, 10 {
        do i = 1, 10 { A[i] = A[i-1]; }
      }
      do m = 1, 10 { B[m] = 0; }
    }
    do z = 1, 10 { C[z] = C[z-1]; }
  )");
  DriverOptions Opts;
  Opts.Problems = {ProblemSpec::mustReachingDefs()};
  ProgramAnalysisDriver Driver(P, Opts);
  Driver.run();
  ASSERT_EQ(Driver.loops().size(), 5u);
  // Depths descend monotonically in analysis order.
  unsigned Last = 1000;
  for (const AnalyzedLoop &R : Driver.loops()) {
    EXPECT_LE(R.Depth, Last);
    Last = R.Depth;
  }
  EXPECT_EQ(Driver.loops().front().Loop->getIndVar(), "i");
  EXPECT_EQ(Driver.loops().front().Depth, 2u);
}

TEST(DriverTest, SingleProblemResultPerLoop) {
  Program P = parseOrDie(R"(
    do j = 1, 10 {
      do i = 1, 10 { A[i+1] = A[i]; }
      B[j+2] = B[j];
    }
  )");
  const ProblemSpec Spec = ProblemSpec::mustReachingDefs();
  DriverOptions Opts;
  Opts.Problems = {Spec};
  ProgramAnalysisDriver Driver(P, Opts);
  Driver.run();
  const DoLoopStmt *Outer = P.getFirstLoop();
  const auto *Inner = cast<DoLoopStmt>(Outer->getBody()[0].get());
  auto SessionOf = [&](const Stmt *Source) -> LoopAnalysisSession * {
    for (const AnalyzedLoop &R : Driver.loops())
      if (R.Source == Source)
        return R.Session.get();
    return nullptr;
  };

  LoopAnalysisSession *InnerS = SessionOf(Inner);
  LoopAnalysisSession *OuterS = SessionOf(Outer);
  ASSERT_NE(InnerS, nullptr);
  ASSERT_NE(OuterS, nullptr);
  // The inner result tracks A, the outer tracks B (and sees the inner
  // loop only as a summary node).
  EXPECT_EQ(InnerS->instance(Spec).getTracked(0).arrayName(), "A");
  const FrameworkInstance &OuterFW = OuterS->instance(Spec);
  bool OuterTracksB = false;
  for (unsigned I = 0; I != OuterFW.getNumTracked(); ++I)
    OuterTracksB |= OuterFW.getTracked(I).arrayName() == "B";
  EXPECT_TRUE(OuterTracksB);
}

TEST(DriverTest, SingleProblemReusePairsTagged) {
  Program P = parseOrDie(R"(
    do j = 1, 10 {
      do i = 1, 10 { A[i+1] = A[i]; }
      B[j+2] = B[j];
    }
  )");
  const ProblemSpec Spec = ProblemSpec::mustReachingDefs();
  DriverOptions Opts;
  Opts.Problems = {Spec};
  ProgramAnalysisDriver Driver(P, Opts);
  Driver.run();
  // A-reuse in the inner loop, B-reuse in the outer loop.
  bool InnerReuse = false, OuterReuse = false;
  for (const AnalyzedLoop &R : Driver.loops()) {
    if (R.Session->reusePairs(Spec, RefSelector::Uses).empty())
      continue;
    if (R.Loop->getIndVar() == "i")
      InnerReuse = true;
    if (R.Loop->getIndVar() == "j")
      OuterReuse = true;
  }
  EXPECT_TRUE(InnerReuse);
  EXPECT_TRUE(OuterReuse);
}

TEST(DriverTest, SingleProblemTotalCostIsSumOfLoops) {
  Program P = parseOrDie(R"(
    do a = 1, 10 { A[a] = 0; }
    do b = 1, 10 { B[b] = 0; C[b] = 1; }
  )");
  const ProblemSpec Spec = ProblemSpec::mustReachingDefs();
  DriverOptions Opts;
  Opts.Problems = {Spec};
  ProgramAnalysisDriver Driver(P, Opts);
  Driver.run();
  unsigned Sum = 0;
  for (const AnalyzedLoop &R : Driver.loops())
    Sum += R.Session->solve(Spec).NodeVisits;
  EXPECT_EQ(Driver.totalNodeVisits(), Sum);
  // 3N per loop.
  LoopAnalysisSession &First = *Driver.loops()[0].Session;
  EXPECT_EQ(First.solve(Spec).NodeVisits, 3 * First.graph().getNumNodes());
}

TEST(DriverTest, SingleProblemLoopsInsideConditionals) {
  Program P = parseOrDie(R"(
    x = 1;
    if (x > 0) {
      do i = 1, 10 { A[i] = A[i-1]; }
    } else {
      do k = 1, 10 { B[k] = 0; }
    }
  )");
  DriverOptions Opts;
  Opts.Problems = {ProblemSpec::mustReachingDefs()};
  ProgramAnalysisDriver Driver(P, Opts);
  Driver.run();
  EXPECT_EQ(Driver.loops().size(), 2u);
}

TEST(DriverTest, SingleProblemEmptyProgram) {
  Program P = parseOrDie("x = 1; y = 2;");
  DriverOptions Opts;
  Opts.Problems = {ProblemSpec::mustReachingDefs()};
  ProgramAnalysisDriver Driver(P, Opts);
  Driver.run();
  EXPECT_TRUE(Driver.loops().empty());
  EXPECT_EQ(Driver.totalNodeVisits(), 0u);
}

//===- tests/driver/DriverFaultTest.cpp - Per-loop fault isolation -------===//
//
// The driver's fault boundary: an exception in one loop's analysis --
// injected via the driver.loop / session.lower failpoints -- is captured
// as a structured LoopFailure, the batch always completes, unaffected
// loops are bit-identical to an unarmed run, and the report tallies
// ok/degraded/failed. Parallel workers never propagate a throw, and
// they inherit the caller's request deadline.
//
//===----------------------------------------------------------------------===//

#include "driver/ProgramAnalysisDriver.h"
#include "frontend/Parser.h"
#include "support/Deadline.h"
#include "support/FailPoint.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace ardf;

namespace {

std::string multiLoopSource(unsigned Loops) {
  std::ostringstream OS;
  for (unsigned L = 0; L != Loops; ++L) {
    OS << "do i = 1, " << (50 + L) << " {\n";
    OS << "  A[i+" << (L % 3 + 1) << "] = A[i] + B[i-" << (L % 2) << "];\n";
    OS << "  C[i] = C[i-2] + " << L << ";\n";
    OS << "}\n";
  }
  return OS.str();
}

class DriverFaultTest : public ::testing::Test {
protected:
  void SetUp() override { failpoint::disarmAll(); }
  void TearDown() override { failpoint::disarmAll(); }
};

} // namespace

TEST_F(DriverFaultTest, ThrownLoopIsCapturedAndBatchCompletes) {
  Program P = parseOrDie(multiLoopSource(5));

  // Reference run, nothing armed.
  ProgramAnalysisDriver Clean(P);
  Clean.run();
  ASSERT_EQ(Clean.loops().size(), 5u);
  EXPECT_EQ(Clean.report().Ok, 5u);

  // Armed run: the third loop's analysis throws at entry.
  failpoint::ScopedFailPoint FP("driver.loop", failpoint::Action::Throw,
                                /*FireAt=*/3);
  ProgramAnalysisDriver Driver(P);
  Driver.run(); // must not propagate
  ASSERT_EQ(Driver.loops().size(), 5u);

  DriverReport R = Driver.report();
  EXPECT_EQ(R.Ok, 4u);
  EXPECT_EQ(R.Degraded, 0u);
  EXPECT_EQ(R.Failed, 1u);
  EXPECT_EQ(R.total(), 5u);

  const AnalyzedLoop &Failed = Driver.loops()[2];
  EXPECT_EQ(Failed.Status, SolveOutcome::Failed);
  ASSERT_EQ(Failed.Failures.size(), 1u);
  EXPECT_EQ(Failed.Failures[0].Phase, "session");
  EXPECT_NE(Failed.Failures[0].Message.find("driver.loop"),
            std::string::npos);

  // Unaffected loops are bit-identical to the clean run.
  SolverOptions Opts;
  for (size_t I = 0; I != 5; ++I) {
    if (I == 2)
      continue;
    const AnalyzedLoop &A = Clean.loops()[I];
    const AnalyzedLoop &B = Driver.loops()[I];
    EXPECT_EQ(B.Status, SolveOutcome::Ok);
    for (const ProblemSpec &Spec : paperProblems()) {
      const SolveResult &X = A.Session->solve(Spec, Opts);
      const SolveResult &Y = B.Session->solve(Spec, Opts);
      EXPECT_EQ(X.In, Y.In) << "loop " << I << " / " << Spec.Name;
      EXPECT_EQ(X.Out, Y.Out) << "loop " << I << " / " << Spec.Name;
    }
  }
}

TEST_F(DriverFaultTest, SessionLowerFaultFailsSolvesNotTheBatch) {
  Program P = parseOrDie(multiLoopSource(3));
  DriverOptions Opts;
  Opts.Solver.Eng = SolverOptions::Engine::PackedKernel;

  // Every compiled-flow lowering throws: each packed solve of every
  // loop fails, each with its own structured record.
  failpoint::ScopedFailPoint FP("session.lower", failpoint::Action::Throw);
  ProgramAnalysisDriver Driver(P, Opts);
  Driver.run();

  DriverReport R = Driver.report();
  EXPECT_EQ(R.Failed, 3u);
  for (const AnalyzedLoop &L : Driver.loops()) {
    EXPECT_EQ(L.Status, SolveOutcome::Failed);
    ASSERT_EQ(L.Failures.size(), paperProblems().size());
    for (size_t I = 0; I != L.Failures.size(); ++I) {
      EXPECT_EQ(L.Failures[I].Phase,
                std::string("solve:") + paperProblems()[I].Name);
      EXPECT_NE(L.Failures[I].Message.find("session.lower"),
                std::string::npos);
    }
  }
}

TEST_F(DriverFaultTest, BudgetBreachReportsDegradedLoops) {
  Program P = parseOrDie(multiLoopSource(4));
  DriverOptions Opts;
  Opts.Solver.Budget.MaxNodeVisits = 1;
  ProgramAnalysisDriver Driver(P, Opts);
  Driver.run();

  DriverReport R = Driver.report();
  EXPECT_EQ(R.Ok, 0u);
  EXPECT_EQ(R.Degraded, 4u);
  EXPECT_EQ(R.Failed, 0u);
  for (const AnalyzedLoop &L : Driver.loops()) {
    EXPECT_EQ(L.Status, SolveOutcome::Degraded);
    EXPECT_EQ(L.Breach, BreachReason::NodeVisits);
    EXPECT_TRUE(L.Failures.empty()); // degraded, not failed
  }
}

TEST_F(DriverFaultTest, ParallelWorkersNeverPropagate) {
  Program P = parseOrDie(multiLoopSource(8));
  DriverOptions Opts;
  Opts.Threads = 4;
  failpoint::ScopedFailPoint FP("driver.loop", failpoint::Action::Throw,
                                /*FireAt=*/2);
  ProgramAnalysisDriver Driver(P, Opts);
  Driver.run(); // a throw crossing a worker would terminate the process

  DriverReport R = Driver.report();
  EXPECT_EQ(R.total(), 8u);
  EXPECT_EQ(R.Failed, 1u);
  EXPECT_EQ(R.Ok, 7u);
}

TEST_F(DriverFaultTest, EnginesDegradeIdenticallyUnderSameFault) {
  // The same armed failpoint must hit the same solve at the same pass
  // boundary in both engines, leaving identical per-loop statuses and
  // bit-identical (degraded and exact) results.
  Program P = parseOrDie(multiLoopSource(4));

  DriverOptions Ref;
  DriverOptions Packed;
  Packed.Solver.Eng = SolverOptions::Engine::PackedKernel;

  auto RunArmed = [&](const DriverOptions &Opts) {
    failpoint::ScopedFailPoint FP("solver.pass", failpoint::Action::Breach,
                                  /*FireAt=*/5);
    auto Driver = std::make_unique<ProgramAnalysisDriver>(P, Opts);
    Driver->run();
    return Driver;
  };
  auto RefDriver = RunArmed(Ref);
  auto PackedDriver = RunArmed(Packed);

  ASSERT_EQ(RefDriver->loops().size(), PackedDriver->loops().size());
  unsigned DegradedLoops = 0;
  for (size_t I = 0; I != RefDriver->loops().size(); ++I) {
    const AnalyzedLoop &A = RefDriver->loops()[I];
    const AnalyzedLoop &B = PackedDriver->loops()[I];
    EXPECT_EQ(A.Status, B.Status) << "loop " << I;
    EXPECT_EQ(A.Breach, B.Breach) << "loop " << I;
    DegradedLoops += A.Status == SolveOutcome::Degraded;
    for (const ProblemSpec &Spec : paperProblems()) {
      const SolveResult &X = A.Session->solve(Spec, Ref.Solver);
      const SolveResult &Y = B.Session->solve(Spec, Packed.Solver);
      EXPECT_EQ(X.Outcome, Y.Outcome) << "loop " << I << " / " << Spec.Name;
      EXPECT_EQ(X.In, Y.In) << "loop " << I << " / " << Spec.Name;
      EXPECT_EQ(X.Out, Y.Out) << "loop " << I << " / " << Spec.Name;
    }
  }
  EXPECT_EQ(DegradedLoops, 1u);
}

TEST_F(DriverFaultTest, LoopsPastTheRequestDeadlineFailUntilRerun) {
  // Loops reached after the request deadline fail with phase "deadline"
  // and no session, on the calling thread and on pool workers alike; a
  // rerun without the deadline reanalyzes every one of them.
  Program P = parseOrDie(multiLoopSource(6));
  for (unsigned Threads : {1u, 3u}) {
    DriverOptions Opts;
    Opts.Threads = Threads;
    ProgramAnalysisDriver Driver(P, Opts);
    {
      deadline::Scope Past(1); // 1 ns after the steady clock's epoch
      Driver.run();
    }
    EXPECT_EQ(Driver.report().Failed, 6u) << Threads;
    for (const AnalyzedLoop &L : Driver.loops()) {
      ASSERT_EQ(L.Failures.size(), 1u) << Threads;
      EXPECT_EQ(L.Failures[0].Phase, "deadline");
      EXPECT_EQ(L.Session, nullptr);
    }
    DriverRerun RR = Driver.rerun(P);
    EXPECT_EQ(RR.Reused, 0u) << Threads;
    EXPECT_EQ(RR.Reanalyzed, 6u) << Threads;
    EXPECT_EQ(Driver.report().Ok, 6u) << Threads;
  }
}

TEST_F(DriverFaultTest, LoopFailuresAreCounted) {
  Program P = parseOrDie(multiLoopSource(3));
  telem::Telemetry T;
  {
    telem::TelemetryScope Scope(T);
    failpoint::ScopedFailPoint FP("driver.loop", failpoint::Action::Throw,
                                  /*FireAt=*/1);
    ProgramAnalysisDriver Driver(P);
    Driver.run();
  }
  EXPECT_EQ(T.get(telem::Counter::LoopFailures), 1u);
  EXPECT_GE(T.get(telem::Counter::FailpointHits), 1u);
}

//===- bench/bench_batch.cpp - Batched analysis engine -------------------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
// The batching experiment: Section 4 runs several (G, K) problems over
// the same loop (register allocation wants delta-available values,
// load/store elimination adds the per-occurrence variants and
// delta-busy stores). A LoopAnalysisSession builds the
// problem-independent tables once, so solving the paper's four problems
// through one session is compared against four standalone LoopDataFlow
// constructions. A second experiment measures whole-program throughput
// of ProgramAnalysisDriver at 1/2/4/8 worker threads (loops/sec), and a
// third times repeated one-shot solves of one prebuilt instance.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "analysis/LoopDataFlow.h"
#include "driver/ProgramAnalysisDriver.h"
#include "frontend/Parser.h"
#include "telemetry/Telemetry.h"

#include "support/BuildInfo.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

using namespace ardf;

namespace {

std::string loopSourceFor(unsigned Stmts) {
  return ardfbench::makeSyntheticLoop(Stmts, 4, 20, Stmts * 5 + 11, 1000);
}

constexpr unsigned DriverLoops = 64;
constexpr unsigned DriverStmts = 24;

std::string programSource() {
  return ardfbench::makeSyntheticProgram(DriverLoops, DriverStmts, 4, 20,
                                         20260807, 1000);
}

unsigned solveAllStandalone(const Program &P, const DoLoopStmt &Loop) {
  unsigned Visits = 0;
  for (const ProblemSpec &Spec : paperProblems()) {
    LoopDataFlow DF(P, Loop, Spec);
    Visits += DF.result().NodeVisits;
  }
  return Visits;
}

unsigned solveAllSession(const Program &P, const DoLoopStmt &Loop) {
  LoopAnalysisSession Session(P, Loop);
  unsigned Visits = 0;
  for (const ProblemSpec &Spec : paperProblems())
    Visits += Session.solve(Spec).NodeVisits;
  return Visits;
}

double secondsOf(unsigned Reps, unsigned (*Fn)(const Program &,
                                               const DoLoopStmt &),
                 const Program &P, const DoLoopStmt &Loop) {
  auto Start = std::chrono::steady_clock::now();
  unsigned Sink = 0;
  for (unsigned I = 0; I != Reps; ++I)
    Sink += Fn(P, Loop);
  benchmark::DoNotOptimize(Sink);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

void printSessionTable() {
  std::printf("== batched analysis: 4 paper problems on one loop ==\n");
  std::printf("%6s | %12s %12s %8s\n", "stmts", "standalone", "session",
              "speedup");
  for (unsigned Stmts : {8u, 32u, 128u}) {
    Program P = parseOrDie(loopSourceFor(Stmts));
    const DoLoopStmt &Loop = *P.getFirstLoop();
    unsigned Reps = Stmts <= 8 ? 400 : Stmts <= 32 ? 100 : 25;
    // Warm up once so first-touch effects hit neither side.
    solveAllStandalone(P, Loop);
    solveAllSession(P, Loop);
    double TS = secondsOf(Reps, solveAllStandalone, P, Loop);
    double TB = secondsOf(Reps, solveAllSession, P, Loop);
    std::printf("%6u | %10.2fus %10.2fus %7.2fx\n", Stmts,
                TS / Reps * 1e6, TB / Reps * 1e6, TS / TB);
  }
  std::printf("(standalone rebuilds graph+universe+orders per problem; "
              "the session builds them once)\n\n");
}

void printDriverTable() {
  Program P = parseOrDie(programSource());
  std::printf("== driver throughput: %u loops x 4 problems ==\n",
              DriverLoops);
  std::printf("%7s | %10s %10s %8s\n", "threads", "time", "loops/s",
              "speedup");
  double T1 = 0;
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    DriverOptions Opts;
    Opts.Threads = Threads;
    auto Start = std::chrono::steady_clock::now();
    ProgramAnalysisDriver Driver(P, Opts);
    Driver.run();
    double T = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - Start)
                   .count();
    benchmark::DoNotOptimize(Driver.totalNodeVisits());
    if (Threads == 1)
      T1 = T;
    std::printf("%7u | %8.2fms %10.0f %7.2fx\n", Threads, T * 1e3,
                DriverLoops / T, T1 / T);
  }
  std::printf("(speedup is bounded by the hardware concurrency of the "
              "machine running the bench)\n\n");
}

void BM_FourProblemsStandalone(benchmark::State &State) {
  Program P = parseOrDie(loopSourceFor(State.range(0)));
  const DoLoopStmt &Loop = *P.getFirstLoop();
  for (auto _ : State)
    benchmark::DoNotOptimize(solveAllStandalone(P, Loop));
}
BENCHMARK(BM_FourProblemsStandalone)->Arg(8)->Arg(32)->Arg(128);

void BM_FourProblemsSession(benchmark::State &State) {
  Program P = parseOrDie(loopSourceFor(State.range(0)));
  const DoLoopStmt &Loop = *P.getFirstLoop();
  // Counters-only telemetry (no sink): the BENCH json carries the
  // solver work alongside the times, at the relaxed-atomic-add tier of
  // the overhead contract.
  telem::Telemetry Telem;
  telem::TelemetryScope Scope(Telem);
  for (auto _ : State)
    benchmark::DoNotOptimize(solveAllSession(P, Loop));
  State.counters["node_visits"] =
      benchmark::Counter(Telem.get(telem::Counter::SolverNodeVisits),
                         benchmark::Counter::kAvgIterations);
  State.counters["meet_ops"] =
      benchmark::Counter(Telem.get(telem::Counter::SolverMeetOps),
                         benchmark::Counter::kAvgIterations);
  State.counters["apply_ops"] =
      benchmark::Counter(Telem.get(telem::Counter::SolverApplyOps),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FourProblemsSession)->Arg(8)->Arg(32)->Arg(128);

// Optimization-client shapes through the session API: the register
// pipelining front half (grouped available values + reuse pairs) and
// the load/store elimination pair of per-occurrence problems.
void BM_PipeliningClientSession(benchmark::State &State) {
  Program P = parseOrDie(loopSourceFor(32));
  const DoLoopStmt &Loop = *P.getFirstLoop();
  for (auto _ : State) {
    LoopAnalysisSession Session(P, Loop);
    benchmark::DoNotOptimize(Session.reusePairs(
        ProblemSpec::availableValues(), RefSelector::Uses));
  }
}
BENCHMARK(BM_PipeliningClientSession);

void BM_LoadStoreClientSession(benchmark::State &State) {
  Program P = parseOrDie(loopSourceFor(32));
  const DoLoopStmt &Loop = *P.getFirstLoop();
  for (auto _ : State) {
    LoopAnalysisSession Session(P, Loop);
    benchmark::DoNotOptimize(Session.reusePairs(
        ProblemSpec::availableValuesPerOccurrence(), RefSelector::Uses));
    benchmark::DoNotOptimize(Session.reusePairs(
        ProblemSpec::busyStoresPerOccurrence(), RefSelector::Defs));
  }
}
BENCHMARK(BM_LoadStoreClientSession);

// Repeated one-shot solves of a prebuilt instance, as a session runs
// them: each solve allocates and fills a fresh result.
void BM_RepeatedSolveFresh(benchmark::State &State) {
  Program P = parseOrDie(loopSourceFor(State.range(0)));
  LoopAnalysisSession Session(P, *P.getFirstLoop());
  const FrameworkInstance &FW =
      Session.instance(ProblemSpec::mustReachingDefs());
  for (auto _ : State) {
    SolveResult R = solveDataFlow(FW);
    benchmark::DoNotOptimize(R.In.data());
  }
}
BENCHMARK(BM_RepeatedSolveFresh)->Arg(32)->Arg(128);

void BM_DriverThroughput(benchmark::State &State) {
  Program P = parseOrDie(programSource());
  telem::Telemetry Telem;
  telem::TelemetryScope Scope(Telem);
  for (auto _ : State) {
    DriverOptions Opts;
    Opts.Threads = State.range(0);
    ProgramAnalysisDriver Driver(P, Opts);
    Driver.run();
    benchmark::DoNotOptimize(Driver.totalNodeVisits());
  }
  State.SetItemsProcessed(State.iterations() * DriverLoops);
  State.counters["loops"] =
      benchmark::Counter(Telem.get(telem::Counter::DriverLoops),
                         benchmark::Counter::kAvgIterations);
  State.counters["node_visits"] =
      benchmark::Counter(Telem.get(telem::Counter::SolverNodeVisits),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DriverThroughput)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Driver throughput with every budget ceiling armed but sized so no
// loop ever breaches: prices the robustness layer's happy path at the
// batch level (per-pass guard checks plus per-loop outcome tallying).
// Compare against the unbudgeted BM_DriverThroughput rows; the delta
// must stay at noise level.
void BM_DriverThroughputBudgeted(benchmark::State &State) {
  Program P = parseOrDie(programSource());
  telem::Telemetry Telem;
  telem::TelemetryScope Scope(Telem);
  unsigned Degraded = 0, Failed = 0;
  for (auto _ : State) {
    DriverOptions Opts;
    Opts.Threads = State.range(0);
    Opts.Solver.Budget.VisitSlack = 4.0;
    Opts.Solver.Budget.MaxNodeVisits = 1u << 30;
    Opts.Solver.Budget.MaxMatrixCells = 1u << 30;
    Opts.Solver.Budget.DeadlineNs = 3600ull * 1000000000ull;
    ProgramAnalysisDriver Driver(P, Opts);
    Driver.run();
    benchmark::DoNotOptimize(Driver.totalNodeVisits());
    Degraded += Driver.report().Degraded;
    Failed += Driver.report().Failed;
  }
  State.SetItemsProcessed(State.iterations() * DriverLoops);
  // Armed-but-unhit by construction: any degradation would mean the
  // bench is no longer pricing the happy path.
  State.counters["degraded"] = Degraded;
  State.counters["failed"] = Failed;
  State.counters["breaches"] =
      benchmark::Counter(Telem.get(telem::Counter::BudgetBreaches));
}
BENCHMARK(BM_DriverThroughputBudgeted)->Arg(1)->Arg(4)->UseRealTime();

} // namespace

int main(int argc, char **argv) {
  printSessionTable();
  printDriverTable();
  benchmark::Initialize(&argc, argv);
  benchmark::AddCustomContext("ardf_library_build_type",
                              ardf::libraryBuildType());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

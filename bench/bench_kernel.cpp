//===- bench/bench_kernel.cpp - Packed kernel vs reference solver --------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
// The packed-lattice kernel experiment: the paper's practicality claim
// (Section 3.2, bench rows C1/C4) prices the solver at a fixed 3N/2N
// sweep, so the per-element cost of the sweep is the whole ballgame.
// This bench compares the Reference engine (per-cell transfer
// dispatch) against the PackedKernel engine (branch-free
// min/max/saturating-add over whole rows); both sweep the same 8-byte
// DistanceValue cells. It runs on the bench_scaling loop shapes,
// solver-only over a prebuilt instance and its compiled program, each
// solve one-shot into a fresh result as a session runs it. Also prices
// the one-time CompiledFlowProgram lowering and the end-to-end
// four-problem session.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "analysis/LoopAnalysisSession.h"
#include "dataflow/CompiledFlow.h"
#include "dataflow/VectorOps.h"
#include "frontend/Parser.h"
#include "telemetry/Telemetry.h"

#include "support/BuildInfo.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>

using namespace ardf;

namespace {

/// The bench_scaling loop family (same generator parameters and seeds).
std::string sourceFor(int64_t Stmts) {
  return ardfbench::makeSyntheticLoop(Stmts, 4, 20, Stmts * 3 + 20 + 7,
                                      1000);
}

double secondsOf(unsigned Reps, const std::function<void()> &Fn) {
  auto Start = std::chrono::steady_clock::now();
  for (unsigned I = 0; I != Reps; ++I)
    Fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

void printKernelTable() {
  std::printf("== packed kernel vs reference solver (one-shot solves, "
              "must-reaching-defs) ==\n");
  std::printf("%6s | %6s %6s %12s %12s %8s\n", "stmts", "nodes", "|G|",
              "reference", "packed", "speedup");
  for (unsigned Stmts : {8u, 32u, 128u, 512u}) {
    Program P = parseOrDie(sourceFor(Stmts));
    LoopAnalysisSession Session(P, *P.getFirstLoop());
    const ProblemSpec Spec = ProblemSpec::mustReachingDefs();
    const FrameworkInstance &FW = Session.instance(Spec);
    const CompiledFlowProgram &CF = Session.compiledFlow(Spec);

    unsigned Reps = Stmts <= 32 ? 2000 : Stmts <= 128 ? 300 : 30;
    double TR = secondsOf(Reps, [&] {
      benchmark::DoNotOptimize(solveDataFlow(FW).In.data());
    });
    double TK = secondsOf(Reps, [&] {
      benchmark::DoNotOptimize(solveCompiled(CF).In.data());
    });
    std::printf("%6u | %6u %6u %10.2fus %10.2fus %7.2fx\n", Stmts,
                FW.getGraph().getNumNodes(), FW.getNumTracked(),
                TR / Reps * 1e6, TK / Reps * 1e6, TR / TK);
  }
  std::printf("(both engines produce bit-identical SolveResult matrices; "
              "the kernel sweeps whole rows with portable loops, "
              "compiled for isa=%s)\n\n",
              simd::isaName(simd::activeIsa()));
}

template <typename SolveFn>
void solverBench(benchmark::State &State, ProblemSpec Spec, SolveFn Solve) {
  Program P = parseOrDie(sourceFor(State.range(0)));
  LoopAnalysisSession Session(P, *P.getFirstLoop());
  const FrameworkInstance &FW = Session.instance(Spec);
  const CompiledFlowProgram &CF = Session.compiledFlow(Spec);
  for (auto _ : State)
    benchmark::DoNotOptimize(Solve(FW, CF).In.data());
}

SolveResult refSolve(const FrameworkInstance &FW,
                     const CompiledFlowProgram &) {
  return solveDataFlow(FW);
}

SolveResult kernSolve(const FrameworkInstance &,
                      const CompiledFlowProgram &CF) {
  return solveCompiled(CF);
}

void BM_ReferenceSolve(benchmark::State &State) {
  solverBench(State, ProblemSpec::mustReachingDefs(), refSolve);
}
BENCHMARK(BM_ReferenceSolve)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

void BM_PackedKernelSolve(benchmark::State &State) {
  solverBench(State, ProblemSpec::mustReachingDefs(), kernSolve);
}
BENCHMARK(BM_PackedKernelSolve)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

// The may-problem (2N schedule, max-meet) for both engines.
void BM_ReferenceSolveMay(benchmark::State &State) {
  solverBench(State, ProblemSpec::reachingReferences(), refSolve);
}
BENCHMARK(BM_ReferenceSolveMay)->Arg(32)->Arg(512);

void BM_PackedKernelSolveMay(benchmark::State &State) {
  solverBench(State, ProblemSpec::reachingReferences(), kernSolve);
}
BENCHMARK(BM_PackedKernelSolveMay)->Arg(32)->Arg(512);

// Armed-but-unhit budget: every ceiling enabled and generous, so the
// guard is evaluated at each pass boundary but never breaches. Priced
// against the unbudgeted BM_*Solve rows above; the delta is the whole
// cost of the robustness layer on the happy path and must stay at
// noise level (a few integer compares per pass).
SolverOptions armedBudgetOptions() {
  SolverOptions Opts;
  Opts.Budget.VisitSlack = 4.0;
  Opts.Budget.MaxNodeVisits = 1u << 30;
  Opts.Budget.MaxMatrixCells = 1u << 30;
  Opts.Budget.DeadlineNs = 3600ull * 1000000000ull;
  return Opts;
}

void BM_ReferenceSolveBudgeted(benchmark::State &State) {
  SolverOptions Opts = armedBudgetOptions();
  solverBench(State, ProblemSpec::mustReachingDefs(),
              [&](const FrameworkInstance &FW, const CompiledFlowProgram &) {
                return solveDataFlow(FW, Opts);
              });
}
BENCHMARK(BM_ReferenceSolveBudgeted)->Arg(32)->Arg(512);

void BM_PackedKernelSolveBudgeted(benchmark::State &State) {
  SolverOptions Opts = armedBudgetOptions();
  solverBench(State, ProblemSpec::mustReachingDefs(),
              [&](const FrameworkInstance &, const CompiledFlowProgram &CF) {
                return solveCompiled(CF, Opts.Budget);
              });
}
BENCHMARK(BM_PackedKernelSolveBudgeted)->Arg(32)->Arg(512);

// The three forward paper problems solved back-to-back over their
// compiled programs.
void BM_IndependentForwardSolves(benchmark::State &State) {
  Program P = parseOrDie(sourceFor(State.range(0)));
  LoopAnalysisSession Session(P, *P.getFirstLoop());
  std::vector<const CompiledFlowProgram *> Parts;
  for (const ProblemSpec &Spec :
       {ProblemSpec::mustReachingDefs(), ProblemSpec::availableValues(),
        ProblemSpec::reachingReferences()})
    Parts.push_back(&Session.compiledFlow(Spec));
  for (auto _ : State) {
    unsigned Visits = 0;
    for (const CompiledFlowProgram *CF : Parts)
      Visits += solveCompiled(*CF).NodeVisits;
    benchmark::DoNotOptimize(Visits);
  }
}
BENCHMARK(BM_IndependentForwardSolves)->Arg(32)->Arg(128)->Arg(512);

// The one-time lowering cost a session amortizes over repeated solves.
void BM_CompileFlowProgram(benchmark::State &State) {
  Program P = parseOrDie(sourceFor(State.range(0)));
  LoopAnalysisSession Session(P, *P.getFirstLoop());
  const FrameworkInstance &FW =
      Session.instance(ProblemSpec::mustReachingDefs());
  for (auto _ : State) {
    CompiledFlowProgram CF = CompiledFlowProgram::compile(FW);
    benchmark::DoNotOptimize(CF.Preserve.data());
  }
}
BENCHMARK(BM_CompileFlowProgram)->Arg(32)->Arg(512);

// End to end: the four paper problems through a fresh session, engine
// selected per run (compile cost included for the packed engine).
// Counters-only telemetry exports the solver work into the BENCH json;
// the solver-only benches above stay telemetry-free so their numbers
// price the zero-overhead-off tier.
void fourProblemsBench(benchmark::State &State,
                       SolverOptions::Engine Eng) {
  Program P = parseOrDie(sourceFor(State.range(0)));
  const DoLoopStmt &Loop = *P.getFirstLoop();
  SolverOptions Opts;
  Opts.Eng = Eng;
  telem::Telemetry Telem;
  telem::TelemetryScope Scope(Telem);
  for (auto _ : State) {
    LoopAnalysisSession Session(P, Loop);
    unsigned Visits = 0;
    for (const ProblemSpec &Spec :
         {ProblemSpec::mustReachingDefs(), ProblemSpec::availableValues(),
          ProblemSpec::busyStores(), ProblemSpec::reachingReferences()})
      Visits += Session.solve(Spec, Opts).NodeVisits;
    benchmark::DoNotOptimize(Visits);
  }
  State.counters["node_visits"] =
      benchmark::Counter(Telem.get(telem::Counter::SolverNodeVisits),
                         benchmark::Counter::kAvgIterations);
  State.counters["meet_ops"] =
      benchmark::Counter(Telem.get(telem::Counter::SolverMeetOps),
                         benchmark::Counter::kAvgIterations);
  State.counters["apply_ops"] =
      benchmark::Counter(Telem.get(telem::Counter::SolverApplyOps),
                         benchmark::Counter::kAvgIterations);
  if (Eng == SolverOptions::Engine::PackedKernel)
    State.counters["flow_compiles"] =
        benchmark::Counter(Telem.get(telem::Counter::FlowCompiles),
                           benchmark::Counter::kAvgIterations);
}

void BM_FourProblemsSessionReference(benchmark::State &State) {
  fourProblemsBench(State, SolverOptions::Engine::Reference);
}
BENCHMARK(BM_FourProblemsSessionReference)->Arg(32)->Arg(512);

void BM_FourProblemsSessionPacked(benchmark::State &State) {
  fourProblemsBench(State, SolverOptions::Engine::PackedKernel);
}
BENCHMARK(BM_FourProblemsSessionPacked)->Arg(32)->Arg(512);

} // namespace

int main(int argc, char **argv) {
  printKernelTable();
  benchmark::Initialize(&argc, argv);
  benchmark::AddCustomContext("ardf_library_build_type",
                              ardf::libraryBuildType());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

//===- bench/bench_nest.cpp - Loop-nest discovery and per-level solves ----===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
// Measures the nest pipeline added on top of the single-loop framework:
// the syntax-tree walk that discovers the natural loops + bottom-up
// reduction (LoopNestTree) as a function of nest depth and program
// width, and the cost of the per-level solves — one LoopAnalysisSession
// per ancestor induction variable (the Section 3.6 WithRespectTo seam) —
// that turn a flat iteration distance into a distance vector. The nest's
// loop counts ride along in the JSON snapshot so regressions in them
// show up next to the timings.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "analysis/LoopAnalysisSession.h"
#include "analysis/LoopNest.h"
#include "driver/ProgramAnalysisDriver.h"
#include "frontend/Parser.h"
#include "support/BuildInfo.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>

using namespace ardf;

namespace {

/// A perfect nest of \p Depth loops whose outermost level is a counted
/// while (so every timing includes induction-variable recognition) and
/// whose innermost body holds \p Stmts recurrent statements on the
/// innermost induction variable.
std::string nestSourceFor(unsigned Depth, unsigned Stmts) {
  std::ostringstream OS;
  std::string Indent;
  OS << "i0 = 1;\n"
     << "while (i0 <= 40) {\n";
  Indent += "  ";
  for (unsigned D = 1; D != Depth; ++D) {
    OS << Indent << "do i" << D << " = 1, 40 {\n";
    Indent += "  ";
  }
  std::string Iv = "i" + std::to_string(Depth - 1);
  ardfbench::Rng R(Depth * 131 + Stmts);
  for (unsigned S = 0; S != Stmts; ++S) {
    char Arr = static_cast<char>('A' + R.range(0, 3));
    OS << Indent << Arr << "[" << Iv << " + 1] = " << Arr << "[" << Iv
       << "] + " << static_cast<char>('A' + R.range(0, 3)) << "[" << Iv
       << " - " << R.range(1, 2) << "];\n";
  }
  for (unsigned D = Depth; D != 1; --D) {
    Indent.resize(Indent.size() - 2);
    OS << Indent << "}\n";
  }
  OS << "  i0 = i0 + 1;\n"
     << "}\n";
  return OS.str();
}

/// \p Loops independent two-level nests side by side: width scaling for
/// the one walk over the whole program.
std::string wideSourceFor(unsigned Loops) {
  std::ostringstream OS;
  for (unsigned L = 0; L != Loops; ++L)
    OS << "do a" << L << " = 1, 40 {\n"
       << "  do b" << L << " = 1, 40 {\n"
       << "    A[b" << L << " + 1] = A[b" << L << "] + " << L << ";\n"
       << "  }\n"
       << "}\n";
  return OS.str();
}

/// The innermost (deepest) supported loop of the nest.
const NestLoop &deepestLoop(const LoopNestTree &T) {
  const NestLoop *Best = nullptr;
  T.forEach([&](const NestLoop &N) {
    if (N.isSupported() && (!Best || N.Depth > Best->Depth))
      Best = &N;
  });
  return *Best;
}

/// Solves every paper problem at every nest level of the deepest loop:
/// one session for its own level plus one WithRespectTo session per
/// supported ancestor. Returns the number of sessions built.
unsigned solveAllLevels(const Program &P, const LoopNestTree &T) {
  const NestLoop &Inner = deepestLoop(T);
  unsigned Sessions = 0;
  auto SolveAll = [](LoopAnalysisSession &S) {
    for (const ProblemSpec &Spec : paperProblems())
      benchmark::DoNotOptimize(&S.solve(Spec));
  };
  LoopAnalysisSession Own(P, *Inner.Analyzed);
  SolveAll(Own);
  ++Sessions;
  for (const NestLoop *A : Inner.ancestors()) {
    if (!A->isSupported())
      continue;
    LoopAnalysisSession Level(P, *Inner.Analyzed, A->iv(), A->tripCount());
    SolveAll(Level);
    ++Sessions;
  }
  return Sessions;
}

double secondsOf(unsigned Reps, const std::function<void()> &Fn) {
  auto Start = std::chrono::steady_clock::now();
  for (unsigned I = 0; I != Reps; ++I)
    Fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

void printNestTable() {
  std::printf("== nest pipeline: discovery + per-level solves vs depth ==\n");
  std::printf("%5s | %8s %8s | %12s %12s | %8s\n", "depth", "loops",
              "reduced", "discovery", "solves", "sessions");
  for (unsigned Depth : {1u, 2u, 3u, 4u}) {
    Program P = parseOrDie(nestSourceFor(Depth, 8));
    constexpr unsigned Reps = 20;
    double DiscoverS =
        secondsOf(Reps, [&] { benchmark::DoNotOptimize(LoopNestTree(P)); }) /
        Reps;
    LoopNestTree T(P);
    unsigned Sessions = 0;
    double SolveS =
        secondsOf(Reps, [&] { Sessions = solveAllLevels(P, T); }) / Reps;
    std::printf("%5u | %8u %8u | %10.2fus %10.2fus | %8u\n", Depth, T.size(),
                T.supportedCount(), DiscoverS * 1e6, SolveS * 1e6, Sessions);
  }
  std::printf("(discovery = nest walk + reduction; "
              "solves = all paper problems once per nest level)\n\n");
}

void BM_NestDiscovery(benchmark::State &State) {
  Program P = parseOrDie(nestSourceFor(State.range(0), 8));
  for (auto _ : State) {
    LoopNestTree T(P);
    benchmark::DoNotOptimize(T.supportedCount());
  }
  LoopNestTree T(P);
  State.counters["nest_loops"] = benchmark::Counter(T.size());
  State.counters["nest_reduced"] = benchmark::Counter(T.supportedCount());
}
BENCHMARK(BM_NestDiscovery)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_NestDiscoveryWide(benchmark::State &State) {
  Program P = parseOrDie(wideSourceFor(State.range(0)));
  for (auto _ : State) {
    LoopNestTree T(P);
    benchmark::DoNotOptimize(T.supportedCount());
  }
}
BENCHMARK(BM_NestDiscoveryWide)->Arg(4)->Arg(16)->Arg(64);

void BM_NestPerLevelSolves(benchmark::State &State) {
  Program P = parseOrDie(nestSourceFor(State.range(0), 8));
  LoopNestTree T(P);
  unsigned Sessions = 0;
  for (auto _ : State)
    Sessions = solveAllLevels(P, T);
  State.counters["sessions"] = benchmark::Counter(Sessions);
}
BENCHMARK(BM_NestPerLevelSolves)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_NestDriverRun(benchmark::State &State) {
  // End-to-end: what ardf-lint/ardf-stats pay per nest — discovery,
  // reduction, and a session per loop, via the driver.
  Program P = parseOrDie(nestSourceFor(State.range(0), 8));
  for (auto _ : State) {
    ProgramAnalysisDriver Driver(P, DriverOptions());
    Driver.run();
    benchmark::DoNotOptimize(Driver.loops().data());
  }
}
BENCHMARK(BM_NestDriverRun)->Arg(2)->Arg(4);

} // namespace

int main(int argc, char **argv) {
  printNestTable();
  benchmark::Initialize(&argc, argv);
  benchmark::AddCustomContext("ardf_library_build_type",
                              ardf::libraryBuildType());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

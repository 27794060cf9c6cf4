//===- bench/bench_ablation.cpp - Design-choice ablations ----------------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
// Ablations of the design choices DESIGN.md calls out:
//
//   A1  grouping of textually identical references into one G element
//       (the paper's formulation) versus per-occurrence tracking —
//       grouping is what lets a value generated in both branches of a
//       conditional stay available at the join;
//   A2  the pipeline-depth cap of the load-elimination client;
//   A3  the distance-vector nest extension (the paper's future work)
//       versus the two per-loop analyses on coupled-subscript nests.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "analysis/DistanceVector.h"
#include "analysis/LoopDataFlow.h"
#include "analysis/LoopNest.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "transform/LoadElimination.h"

#include "support/BuildInfo.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace ardf;

namespace {

unsigned reuseCount(const Program &P, const DoLoopStmt &Loop,
                    ProblemSpec Spec) {
  LoopDataFlow DF(P, Loop, Spec);
  return DF.reusePairs(RefSelector::Uses).size();
}

void printGroupingAblation() {
  std::printf("== A1: grouped vs per-occurrence tracking ==\n");
  struct Case {
    const char *Name;
    const char *Source;
  } Cases[] = {
      {"diamond",
       "do i = 1, 100 { if (x == 0) { B[i] = A[i]; } else { C[i] = A[i]; } "
       "D_[i] = A[i]; }"},
      {"straight", "do i = 1, 100 { B[i] = A[i]; C[i] = A[i]; }"},
      {"both-branch-def",
       "do i = 1, 100 { if (x == 0) { A[i] = 1; } else { A[i] = 2; } "
       "B[i] = A[i]; }"},
  };
  std::printf("%18s | %10s %14s\n", "loop", "grouped", "per-occurrence");
  for (const Case &C : Cases) {
    Program P = parseOrDie(C.Source);
    unsigned Grouped =
        reuseCount(P, *P.getFirstLoop(), ProblemSpec::availableValues());
    unsigned PerOcc = reuseCount(P, *P.getFirstLoop(),
                                 ProblemSpec::availableValuesPerOccurrence());
    std::printf("%18s | %10u %14u\n", C.Name, Grouped, PerOcc);
  }
  std::printf("shape check: grouping finds the join reuse the "
              "per-occurrence tuple provably cannot\n\n");
}

void printDepthCapAblation() {
  std::printf("== A2: pipeline depth cap (A[i+6] = A[i] + x) ==\n");
  std::printf("%6s | %10s %8s\n", "cap", "loads", "temps");
  Program P = parseOrDie("do i = 1, 1000 { A[i+6] = A[i] + x; }");
  for (int64_t Cap : {2, 4, 6, 8}) {
    LoadElimOptions Opts;
    Opts.MaxDistance = Cap;
    LoadElimResult R = eliminateRedundantLoads(P, Opts);
    Interpreter I(R.Transformed);
    I.seedArray("A", 1100, 3);
    I.run();
    std::printf("%6lld | %10llu %8u\n", static_cast<long long>(Cap),
                static_cast<unsigned long long>(I.stats().ArrayLoads),
                R.TempsIntroduced);
  }
  std::printf("shape check: the reuse at distance 6 is only converted "
              "once the cap admits a 7-deep pipeline\n\n");
}

void printNestExtensionAblation() {
  std::printf("== A3: per-loop analyses vs distance vectors on Fig. 4's Z "
              "==\n");
  Program P = parseOrDie("array Z[N, N];\n"
                         "do j = 1, 50 { do i = 1, 50 { "
                         "Z[i+1, j] = Z[i, j-1]; } }");
  const auto *Outer = P.getFirstLoop();
  LoopNestTree Nest(P);
  const NestLoop &J = *Nest.roots()[0];
  const NestLoop &I = *J.Children[0];

  LoopDataFlow WrtI(P, *I.Analyzed, ProblemSpec::mustReachingDefs());
  LoopDataFlow WrtJ(P, I, J, ProblemSpec::mustReachingDefs());
  NestAnalysis NA = analyzeTightNest(P, *Outer);

  std::printf("per-loop w.r.t. i: %zu reuse pair(s)\n",
              WrtI.reusePairs(RefSelector::Uses).size());
  std::printf("per-loop w.r.t. j: %zu reuse pair(s)\n",
              WrtJ.reusePairs(RefSelector::Uses).size());
  std::printf("distance vectors:  %zu reuse pair(s)", NA.Reuses.size());
  if (!NA.Reuses.empty())
    std::printf(" at vector (%lld, %lld)",
                static_cast<long long>(NA.Reuses[0].OuterDistance),
                static_cast<long long>(NA.Reuses[0].InnerDistance));
  std::printf("\nshape check: only the vector extension (paper Section 6 "
              "future work) sees the coupled recurrence\n\n");
}

void BM_GroupedAvailability(benchmark::State &State) {
  std::string Source = ardfbench::makeSyntheticLoop(24, 3, 30, 5, 500);
  Program P = parseOrDie(Source);
  const DoLoopStmt &Loop = *P.getFirstLoop();
  for (auto _ : State) {
    unsigned N = reuseCount(P, Loop, ProblemSpec::availableValues());
    benchmark::DoNotOptimize(N);
  }
}
BENCHMARK(BM_GroupedAvailability);

void BM_PerOccurrenceAvailability(benchmark::State &State) {
  std::string Source = ardfbench::makeSyntheticLoop(24, 3, 30, 5, 500);
  Program P = parseOrDie(Source);
  const DoLoopStmt &Loop = *P.getFirstLoop();
  for (auto _ : State) {
    unsigned N =
        reuseCount(P, Loop, ProblemSpec::availableValuesPerOccurrence());
    benchmark::DoNotOptimize(N);
  }
}
BENCHMARK(BM_PerOccurrenceAvailability);

void BM_NestDistanceVectors(benchmark::State &State) {
  Program P = parseOrDie("array Z[N, N];\n"
                         "do j = 1, 50 { do i = 1, 50 { "
                         "Z[i+1, j] = Z[i, j-1]; } }");
  for (auto _ : State) {
    NestAnalysis NA = analyzeTightNest(P, *P.getFirstLoop());
    benchmark::DoNotOptimize(NA.Reuses.data());
  }
}
BENCHMARK(BM_NestDistanceVectors);

} // namespace

int main(int argc, char **argv) {
  printGroupingAblation();
  printDepthCapAblation();
  printNestExtensionAblation();
  benchmark::Initialize(&argc, argv);
  benchmark::AddCustomContext("ardf_library_build_type",
                              ardf::libraryBuildType());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

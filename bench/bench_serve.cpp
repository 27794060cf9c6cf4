//===- bench/bench_serve.cpp - Daemon request latency and throughput ------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
// Measures the analysis-as-a-service claim: a cold request pays parse +
// driver build + full solve, a warm edit pays one loop's re-solve
// through ProgramAnalysisDriver::rerun, and an identical repeat pays
// only the response-memo replay. The table prints the cold/warm/memo
// split per engine; the google-benchmark timings add sustained
// requests/sec at 1 and N submitter threads.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "serve/Server.h"

#include "support/BuildInfo.h"

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <string>

using namespace ardf;
using namespace ardf::serve;

namespace {

/// A deterministic multi-loop program; edits mutate one loop's trip
/// count so reruns re-solve exactly one loop.
std::string programSource(unsigned Loops, int64_t Trip0) {
  std::string Src =
      "do z = 1, " + std::to_string(Trip0) + " {\n  A[z] = A[z - 1] + 1;\n}\n";
  Src += ardfbench::makeSyntheticProgram(Loops - 1, 12, 4, 20, 20260809, 500);
  return Src;
}

std::string quote(const std::string &S) {
  std::string Out;
  json::appendQuoted(Out, S);
  return Out;
}

std::string analyzeLine(const std::string &Src, const std::string &File,
                        const char *Engine) {
  return "{\"method\":\"analyze\",\"file\":" + quote(File) +
         ",\"engine\":\"" + Engine + "\",\"source\":" + quote(Src) + "}";
}

/// Synchronous request round trip.
std::string call(AnalysisServer &S, const std::string &Line) {
  std::promise<std::string> P;
  std::future<std::string> F = P.get_future();
  S.submit(Line, [&P](std::string R) { P.set_value(std::move(R)); });
  return F.get();
}

double secondsFor(AnalysisServer &S, const std::string &Line) {
  auto Start = std::chrono::steady_clock::now();
  call(S, Line);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

void printServeTable() {
  std::printf("== ardf-serve: cold vs warm vs memo, per engine ==\n");
  std::printf("%10s | %12s %12s %12s\n", "engine", "cold", "warm-edit",
              "memo-hit");
  for (const char *Engine : {"reference", "packed"}) {
    AnalysisServer S;
    std::string File = std::string("bench-") + Engine + ".arf";
    // Cold: first contact builds the document, driver, and sessions.
    double Cold =
        secondsFor(S, analyzeLine(programSource(8, 100), File, Engine));
    // Warm: one-loop edits rerun through the structural diff; average a
    // few so one scheduler hiccup does not skew the row.
    double Warm = 0;
    constexpr int Edits = 10;
    for (int I = 0; I != Edits; ++I)
      Warm +=
          secondsFor(S, analyzeLine(programSource(8, 101 + I), File, Engine));
    Warm /= Edits;
    // Memo: the identical line replays rendered bytes.
    std::string Last = analyzeLine(programSource(8, 100 + Edits), File,
                                   Engine);
    call(S, Last);
    double Memo = 0;
    for (int I = 0; I != Edits; ++I)
      Memo += secondsFor(S, Last);
    Memo /= Edits;
    std::printf("%10s | %10.2fus %10.2fus %10.2fus\n", Engine, Cold * 1e6,
                Warm * 1e6, Memo * 1e6);
  }
  std::printf("(warm-edit re-solves one mutated loop via rerun; memo-hit "
              "replays the rendered response)\n\n");
}

void BM_ServeColdDocument(benchmark::State &State) {
  // Every iteration hits a fresh file: document creation + full solve.
  // A generous tenant quota keeps eviction out of the measurement.
  ServeOptions Opts;
  Opts.TenantQuota = 1u << 20;
  AnalysisServer S(Opts);
  std::string Src = programSource(4, 100);
  uint64_t N = 0;
  for (auto _ : State) {
    std::string R = call(
        S, analyzeLine(Src, "cold" + std::to_string(N++) + ".arf",
                       "reference"));
    benchmark::DoNotOptimize(R.data());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ServeColdDocument);

void BM_ServeWarmRerun(benchmark::State &State) {
  // One document, a new one-loop edit per iteration: the rerun path.
  AnalysisServer S;
  call(S, analyzeLine(programSource(4, 100), "warm.arf", "reference"));
  int64_t Trip = 200;
  for (auto _ : State) {
    std::string R =
        call(S, analyzeLine(programSource(4, Trip++), "warm.arf",
                            "reference"));
    benchmark::DoNotOptimize(R.data());
  }
  State.SetItemsProcessed(State.iterations());
  State.counters["reruns"] = static_cast<double>(
      S.telemetry().get(telem::Counter::ServeReruns));
}
BENCHMARK(BM_ServeWarmRerun);

void BM_ServeMemoHit(benchmark::State &State) {
  // The identical request line: content hash + options key -> replay.
  AnalysisServer S;
  std::string Line = analyzeLine(programSource(4, 100), "memo.arf",
                                 "reference");
  call(S, Line);
  for (auto _ : State) {
    std::string R = call(S, Line);
    benchmark::DoNotOptimize(R.data());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ServeMemoHit);

/// Shared server for the threaded throughput rows (google-benchmark
/// constructs/destroys per-thread state around the measurement, so the
/// server lives across the whole family run).
struct ThroughputFixture {
  std::unique_ptr<AnalysisServer> S;
  std::string Line;
  /// (Re)builds the server with one worker per submitter thread. Rows
  /// run sequentially, so a rebuild at row start never races an old
  /// row's submit.
  void ensure(int Threads) {
    if (S && S->options().Workers == static_cast<unsigned>(Threads))
      return;
    S.reset();
    ServeOptions Opts;
    Opts.Workers = static_cast<unsigned>(Threads);
    Opts.QueueDepth = 1024;
    S = std::make_unique<AnalysisServer>(Opts);
    Line = analyzeLine(programSource(4, 100), "tp.arf", "reference");
    // Prime the memo so the measurement is pure request machinery.
    std::promise<std::string> P;
    std::future<std::string> F = P.get_future();
    S->submit(Line, [&P](std::string R) { P.set_value(std::move(R)); });
    F.get();
  }
};

ThroughputFixture TP;
std::mutex TPM;

void BM_ServeRequestsPerSec(benchmark::State &State) {
  {
    std::lock_guard<std::mutex> L(TPM);
    TP.ensure(State.threads());
  }
  for (auto _ : State) {
    std::promise<std::string> P;
    std::future<std::string> F = P.get_future();
    TP.S->submit(TP.Line,
                 [&P](std::string R) { P.set_value(std::move(R)); });
    benchmark::DoNotOptimize(F.get().data());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ServeRequestsPerSec)->Threads(1)->Threads(4)
    ->UseRealTime();

} // namespace

int main(int argc, char **argv) {
  printServeTable();
  benchmark::Initialize(&argc, argv);
  benchmark::AddCustomContext("ardf_library_build_type",
                              ardf::libraryBuildType());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

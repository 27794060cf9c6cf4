//===- tests/driver/WorkerPoolTest.cpp - The shared analysis worker pool --===//

#include "driver/ProgramAnalysisDriver.h"
#include "driver/WorkerPool.h"
#include "frontend/Parser.h"
#include "lint/LintEngine.h"
#include "support/Deadline.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

using namespace ardf;

namespace {

/// \p Loops top-level loops plus one two-level nest, so both the driver
/// and lint have many items and level sessions to run.
std::string poolSource(unsigned Loops) {
  std::ostringstream OS;
  for (unsigned L = 0; L != Loops; ++L)
    OS << "do i = 1, " << (40 + L) << " {\n  A[i+" << (L % 3 + 1)
       << "] = A[i] + B[i-1];\n  B[i] = A[i+1];\n}\n";
  OS << "do i = 1, 10 {\n  do j = 1, 8 {\n    C[j+1] = C[j] + A[i];\n  }\n}\n";
  return OS.str();
}

/// Every counter, and the count of every histogram, recorded under a
/// root context with timings on while \p Run runs.
struct Recorded {
  std::vector<uint64_t> Counters;
  std::vector<uint64_t> HistoCounts;
};

template <typename Fn> Recorded record(Fn Run) {
  telem::Telemetry Root;
  Root.enableTimings();
  {
    telem::TelemetryScope Scope(Root);
    Run();
  }
  Recorded R;
  for (unsigned C = 0; C != telem::NumCounters; ++C)
    R.Counters.push_back(Root.get(static_cast<telem::Counter>(C)));
  for (unsigned H = 0; H != telem::NumHistos; ++H)
    R.HistoCounts.push_back(
        Root.histogram(static_cast<telem::Histo>(H)).snapshot().Count);
  return R;
}

void expectSameRecords(const Recorded &Serial, const Recorded &Pooled) {
  for (unsigned C = 0; C != telem::NumCounters; ++C) {
    auto Which = static_cast<telem::Counter>(C);
    // A duration, not a count: it differs between any two runs.
    if (Which == telem::Counter::FlowCompileNs)
      continue;
    EXPECT_EQ(Pooled.Counters[C], Serial.Counters[C])
        << telem::counterName(Which);
  }
  for (unsigned H = 0; H != telem::NumHistos; ++H)
    EXPECT_EQ(Pooled.HistoCounts[H], Serial.HistoCounts[H])
        << telem::histoName(static_cast<telem::Histo>(H));
}

} // namespace

TEST(WorkerPoolTest, WorkerCountIsCappedByItems) {
  unsigned Hardware = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(poolWorkers(1, 100), 1u);
  EXPECT_EQ(poolWorkers(8, 100), 8u);
  EXPECT_EQ(poolWorkers(4, 2), 2u);
  EXPECT_EQ(poolWorkers(4, 1), 1u);
  EXPECT_EQ(poolWorkers(4, 0), 1u);
  EXPECT_EQ(poolWorkers(0, 0), 1u);
  // A default pool gives each worker at least DefaultItemsPerWorker.
  EXPECT_EQ(poolWorkers(0, 2 * DefaultItemsPerWorker - 1), 1u);
  EXPECT_EQ(poolWorkers(0, 2 * DefaultItemsPerWorker), std::min(Hardware, 2u));
  EXPECT_EQ(poolWorkers(0, 1000), Hardware);
}

TEST(WorkerPoolTest, InlineRunAlternatesWorkAndMergeOnTheCallingThread) {
  std::thread::id Caller = std::this_thread::get_id();
  std::vector<std::pair<char, size_t>> Log;
  runWorkItems(
      3, 1,
      [&](size_t I) {
        EXPECT_EQ(std::this_thread::get_id(), Caller);
        Log.push_back({'W', I});
      },
      [&](size_t I) { Log.push_back({'M', I}); });
  EXPECT_EQ(Log, (std::vector<std::pair<char, size_t>>{
                     {'W', 0}, {'M', 0}, {'W', 1}, {'M', 1}, {'W', 2},
                     {'M', 2}}));
}

TEST(WorkerPoolTest, MergeRunsInItemOrderOnTheCallingThread) {
  // Items finish out of order (uneven sleeps); merges still come in item
  // order, on the calling thread, each after its item's work.
  constexpr size_t Items = 64;
  std::thread::id Caller = std::this_thread::get_id();
  std::vector<size_t> Slots(Items, 0);
  std::vector<std::thread::id> Ran(Items);
  std::vector<size_t> Merged;
  runWorkItems(
      Items, 4,
      [&](size_t I) {
        std::this_thread::sleep_for(std::chrono::microseconds(I * 7 % 5 * 200));
        Slots[I] = I * I + 1;
        Ran[I] = std::this_thread::get_id();
      },
      [&](size_t I) {
        EXPECT_EQ(std::this_thread::get_id(), Caller);
        EXPECT_EQ(Slots[I], I * I + 1) << I;
        Merged.push_back(I);
      });
  ASSERT_EQ(Merged.size(), Items);
  for (size_t I = 0; I != Items; ++I) {
    EXPECT_EQ(Merged[I], I);
    EXPECT_NE(Ran[I], Caller) << I;
  }
}

TEST(WorkerPoolTest, FailureStopsMergingAndIsRethrown) {
  for (unsigned Threads : {1u, 4u}) {
    std::vector<size_t> Merged;
    EXPECT_THROW(runWorkItems(
                     32, Threads,
                     [](size_t I) {
                       if (I == 5)
                         throw std::runtime_error("item 5");
                     },
                     [&](size_t I) { Merged.push_back(I); }),
                 std::runtime_error)
        << Threads;
    EXPECT_EQ(Merged, (std::vector<size_t>{0, 1, 2, 3, 4})) << Threads;
  }
}

TEST(WorkerPoolTest, WorkersInheritTheCallersDeadline) {
  uint64_t At = deadline::afterMs(60000);
  deadline::Scope Scope(At);
  std::vector<uint64_t> Seen(16, 0);
  runWorkItems(16, 4, [&](size_t I) { Seen[I] = deadline::current(); });
  for (uint64_t S : Seen)
    EXPECT_EQ(S, At);
}

TEST(WorkerPoolTest, CountersAndLatenciesMatchOneAndFourThreads) {
  // Workers copy the root's timings setting, so the latency histograms
  // count every solve, driver loop and lint check whichever thread ran
  // it.
  Program P = parseOrDie(poolSource(12));
  auto Drive = [&](unsigned Threads) {
    return record([&] {
      DriverOptions Opts;
      Opts.Threads = Threads;
      ProgramAnalysisDriver Driver(P, Opts);
      Driver.run();
    });
  };
  Recorded DriverSerial = Drive(1);
  EXPECT_GT(DriverSerial.HistoCounts[unsigned(telem::Histo::SolveNs)], 0u);
  EXPECT_GT(DriverSerial.HistoCounts[unsigned(telem::Histo::DriverLoopNs)],
            0u);
  expectSameRecords(DriverSerial, Drive(4));

  auto Lint = [&](unsigned Threads) {
    return record([&] {
      LintOptions Opts;
      Opts.Threads = Threads;
      lintProgram(P, "pool.arf", Opts);
    });
  };
  Recorded LintSerial = Lint(1);
  EXPECT_GT(LintSerial.HistoCounts[unsigned(telem::Histo::SolveNs)], 0u);
  EXPECT_GT(LintSerial.HistoCounts[unsigned(telem::Histo::CheckNs)], 0u);
  expectSameRecords(LintSerial, Lint(4));
}

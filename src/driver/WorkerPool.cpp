//===- driver/WorkerPool.cpp - The analysis worker pool -------------------===//

#include "driver/WorkerPool.h"

#include "support/Deadline.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

using namespace ardf;

unsigned ardf::poolWorkers(unsigned Threads, size_t Items) {
  size_t Cap = Items;
  if (Threads == 0) {
    Cap = Items / DefaultItemsPerWorker;
    if (Cap <= 1)
      return 1;
    // Read once: glibc counts the online CPUs in sysfs on every call.
    static const unsigned HardwareThreads =
        std::max(1u, std::thread::hardware_concurrency());
    Threads = HardwareThreads;
  }
  return static_cast<unsigned>(
      std::min<size_t>(Threads, std::max<size_t>(Cap, 1)));
}

void ardf::runWorkItems(size_t Items, unsigned Threads,
                        const std::function<void(size_t)> &Work,
                        const std::function<void(size_t)> &Merge) {
  unsigned Workers = poolWorkers(Threads, Items);
  if (Workers == 1) {
    for (size_t I = 0; I != Items; ++I) {
      Work(I);
      if (Merge)
        Merge(I);
    }
    return;
  }

  // Per-worker telemetry, allocated up front so it outlives the threads
  // and can be merged into the root after join. Without a root context
  // the slots stay empty and workers run telemetry-free.
  telem::Telemetry *Root = telem::Telemetry::current();
  std::vector<std::unique_ptr<telem::WorkerTelemetry>> Telems(Workers);
  if (Root)
    for (unsigned W = 0; W != Workers; ++W)
      Telems[W] = std::make_unique<telem::WorkerTelemetry>(*Root, W + 1);

  // The cursor hands each item to exactly one worker, in index order.
  // The board records which items finished and the lowest-indexed
  // failure; the calling thread waits on it to merge.
  std::atomic<size_t> Next{0};
  std::mutex BoardMutex;
  std::condition_variable ItemDone;
  // Guarded by BoardMutex:
  std::vector<char> Done(Items, 0);
  size_t FailedItem = Items;
  std::exception_ptr Failure;

  const uint64_t Deadline = deadline::current();
  auto Worker = [&](unsigned W) {
    deadline::Scope DeadlineScope(Deadline);
    std::optional<telem::TelemetryScope> Scope;
    if (Telems[W])
      Scope.emplace(Telems[W]->context());
    for (;;) {
      size_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= Items)
        return;
      std::exception_ptr E;
      try {
        Work(I);
      } catch (...) {
        E = std::current_exception();
        Next.store(Items, std::memory_order_relaxed);
      }
      {
        std::lock_guard<std::mutex> Lock(BoardMutex);
        Done[I] = 1;
        if (E && I < FailedItem) {
          FailedItem = I;
          Failure = E;
        }
      }
      ItemDone.notify_one();
    }
  };

  {
    std::vector<std::jthread> Pool; // joins on every exit from this scope
    Pool.reserve(Workers);
    for (unsigned W = 0; W != Workers; ++W)
      Pool.emplace_back(Worker, W);
    // Every item below a failed one was claimed before it, so the items
    // this loop waits for all finish.
    if (Merge)
      for (size_t I = 0; I != Items; ++I) {
        {
          std::unique_lock<std::mutex> Lock(BoardMutex);
          ItemDone.wait(Lock, [&] { return Done[I] != 0; });
          if (FailedItem <= I)
            break;
        }
        Merge(I);
      }
  }

  // Join-time aggregation: counters and histograms add up; spans keep
  // their worker's thread id, so a trace shows the parallel lanes.
  if (Root)
    for (const std::unique_ptr<telem::WorkerTelemetry> &T : Telems)
      T->mergeInto(*Root);
  if (Failure)
    std::rethrow_exception(Failure);
}

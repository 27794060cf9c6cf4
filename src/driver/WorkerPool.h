//===- driver/WorkerPool.h - The analysis worker pool ----------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one worker pool of ProgramAnalysisDriver and the lint engine. The
/// paper solves every loop, and every nest level of a loop (Section 3.6),
/// as its own framework instance, so the loops of a program are
/// independent work items: a few threads drain them from an atomic
/// cursor, and the calling thread merges their results in item order.
///
/// Thread-safety contract: Work(I) writes only what item I owns, and
/// Merge(I) runs on the calling thread once Work(I) has returned. The
/// cursor and the completion board are the only state the threads
/// share. Workers inherit the calling thread's request deadline
/// (support/Deadline.h); when the calling thread has a telemetry
/// context, each worker records into its own telem::WorkerTelemetry,
/// merged into that context after join.
///
/// \code
///   std::vector<Out> Slots(Items.size());
///   runWorkItems(Items.size(), Threads,
///                [&](size_t I) { Slots[I] = compute(Items[I]); },
///                [&](size_t I) { append(Result, std::move(Slots[I])); });
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_DRIVER_WORKERPOOL_H
#define ARDF_DRIVER_WORKERPOOL_H

#include <cstddef>
#include <functional>

namespace ardf {

/// Items each worker of a default-sized pool (Threads = 0) gets at
/// least; below 2 x 8 items a default pool runs inline. Smaller files
/// would lint faster on a pool (4-vCPU host, 3 workers: 0.86x the
/// inline time at 4 loops, 0.74x at 8, 0.71x at 12), but every worker
/// leaves a malloc arena behind that glibc keeps for the life of the
/// process: one that lints the 2- and 4-loop bundled examples before it
/// serves (perfbench's serve_edit_mix) peaked at 57.2 instead of
/// 45.3 MiB without this floor, and at 34 MiB either way with one arena
/// (DESIGN.md §7).
constexpr size_t DefaultItemsPerWorker = 8;

/// The threads a pool asked for \p Threads threads runs over \p Items
/// work items: at most one per item, and 1 -- inline on the calling
/// thread, spawning nothing -- when either allows no more. Threads = 0
/// means one per hardware thread, but at most one per
/// DefaultItemsPerWorker items.
unsigned poolWorkers(unsigned Threads, size_t Items);

/// Runs \p Work(I) exactly once for every I in [0, \p Items) on
/// poolWorkers(Threads, Items) threads. \p Merge, when given, runs on the
/// calling thread for I = 0, 1, ... in order, each as soon as Work(I)
/// has returned, while later items may still be running; inline, Work(I)
/// and Merge(I) alternate. An exception out of Work(I) stops the pool
/// from starting further items; Merge runs for no item from I on, and
/// the exception is rethrown on the calling thread after every worker
/// joined.
void runWorkItems(size_t Items, unsigned Threads,
                  const std::function<void(size_t)> &Work,
                  const std::function<void(size_t)> &Merge = nullptr);

} // namespace ardf

#endif // ARDF_DRIVER_WORKERPOOL_H

//===- telemetry/Telemetry.h - Counters, timers, trace spans ---*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The telemetry surface of the solver stack: monotonic wall/CPU clocks,
/// a fixed set of named atomic counters, and hierarchical trace spans
/// recorded through a pluggable TraceSink. Perfetto-style nesting comes
/// from time containment of spans on one thread id, so a Span is just an
/// RAII timer that files a TraceEvent when it dies.
///
/// The design contract is *true zero overhead when disabled*: no
/// Telemetry installed for the current thread means every instrumentation
/// site collapses to one thread-local load and a predictable branch --
/// no clock reads, no stores, and in particular no heap allocation. With
/// a Telemetry installed but no sink attached, counters are relaxed
/// atomic adds and spans remain no-ops, still allocation-free (the
/// alloc-counting suite holds an instrumented solve to exactly the heap
/// blocks of a plain one); only an attached sink pays for clock reads
/// and event buffering.
///
/// Instrumented code never receives a Telemetry parameter. It reads the
/// thread-local current() pointer, which a TelemetryScope installs for
/// the dynamic extent of a region:
///
/// \code
///   telem::Telemetry T;
///   telem::MemoryTraceSink Sink;
///   T.setSink(&Sink);
///   {
///     telem::TelemetryScope Scope(T);
///     runAnalysis();                       // spans + counters recorded
///   }
///   telem::writeChromeTrace(Out, Sink.events());   // Export.h
/// \endcode
///
/// Counters are thread-safe (relaxed atomics). Sinks are not: a sink is
/// owned by one thread at a time. The worker pool of the driver and the
/// lint engine gives every worker its own WorkerTelemetry and merges it
/// into the root at join, so the hot path stays lock-free.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_TELEMETRY_TELEMETRY_H
#define ARDF_TELEMETRY_TELEMETRY_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ardf {
namespace telem {

/// Monotonic wall clock, nanoseconds (std::chrono::steady_clock).
uint64_t wallNowNs();

/// Per-thread CPU clock, nanoseconds (CLOCK_THREAD_CPUTIME_ID where
/// available, std::clock otherwise).
uint64_t cpuNowNs();

/// Every counter the stack records, one slot per enumerator. The dotted
/// display names (counterName) group them by layer: solver.*, flow.*,
/// session.*, preserve.*, driver.*, lint.*.
enum class Counter : unsigned {
  /// Reference-engine solver executions.
  SolverRunsReference,
  /// Packed-kernel solver executions.
  SolverRunsPacked,
  /// Node visits summed over all solves.
  SolverNodeVisits,
  /// Iteration passes (initialization excluded).
  SolverPasses,
  /// Lattice meet applications.
  SolverMeetOps,
  /// Flow function applications.
  SolverApplyOps,
  /// Node visits of must-problem solves.
  MustNodeVisits,
  /// Paper bound: 3N summed over must solves.
  MustVisitBound,
  /// Node visits of may-problem solves.
  MayNodeVisits,
  /// Paper bound: 2N summed over may solves.
  MayVisitBound,
  /// CompiledFlowProgram lowerings.
  FlowCompiles,
  /// Packed matrix cells lowered.
  FlowCompiledCells,
  /// Wall nanoseconds spent lowering.
  FlowCompileNs,
  /// LoopAnalysisSessions constructed.
  SessionsBuilt,
  /// Session instance-cache hits.
  SessionInstanceHits,
  /// Session instance-cache misses (builds).
  SessionInstanceMisses,
  /// Session solution-cache hits.
  SessionSolutionHits,
  /// Session solution-cache misses (solves).
  SessionSolutionMisses,
  /// Session compiled-program cache hits.
  SessionCompiledHits,
  /// Session compiled-program cache misses.
  SessionCompiledMisses,
  /// Preserve-constant cache hits.
  PreserveHits,
  /// Preserve-constant cache misses.
  PreserveMisses,
  /// Loops analyzed by ProgramAnalysisDriver.
  DriverLoops,
  /// Loops the lint engine ran checks on.
  LintLoops,
  /// Individual lint check executions.
  LintChecks,
  /// Diagnostics emitted by lint runs.
  LintDiagnostics,
  /// Engine cross-check comparisons.
  LintCrossChecks,
  /// Solver budget breaches (visits, deadline, or matrix cells).
  BudgetBreaches,
  /// Solves that returned a degraded (conservative-fill) result.
  DegradedSolves,
  /// Loops whose analysis failed inside the driver's fault boundary.
  LoopFailures,
  /// Armed failpoints that fired (support/FailPoint.h).
  FailpointHits,
  /// Loop-nesting trees built (analysis/LoopNest.h).
  NestTrees,
  /// Nest loops reduced to the paper's normalized DO form.
  NestReduced,
  /// Nest loops the recognizer rejected (analysis-unsupported).
  NestUnsupported,
  /// Request lines received by the analysis server (serve/Server.h),
  /// including ones later shed or refused.
  ServeRequests,
  /// Requests answered with an ok response.
  ServeOk,
  /// Requests answered with a structured error response.
  ServeErrors,
  /// Requests shed with an overloaded response (queue full).
  ServeOverloads,
  /// Requests answered deadline: it passed before their reply was ready.
  ServeDeadlines,
  /// Serve cache hits (a memoized response or warm entry was served).
  ServeCacheHits,
  /// Serve cache misses (the request was analyzed from scratch).
  ServeCacheMisses,
  /// Serve cache entries evicted by tenant quotas (LRU order).
  ServeCacheEvictions,
  /// Edited sources routed through ProgramAnalysisDriver::rerun.
  ServeReruns,
  /// Sentinel; not a counter.
  NumCounters
};

constexpr unsigned NumCounters = static_cast<unsigned>(Counter::NumCounters);

/// The dotted display name of \p C, e.g. "session.solution.hits".
const char *counterName(Counter C);

/// Every latency histogram the stack records. Latencies are wall-clock
/// nanoseconds bucketed by bit width (log2 buckets), so one histogram is
/// a fixed array of atomic counts -- no allocation, no locks.
enum class Histo : unsigned {
  /// One data-flow solve, either engine (reference or packed kernel).
  SolveNs,
  /// One lint check over one loop (including its solves).
  CheckNs,
  /// One driver loop analysis (session build + problem batch).
  DriverLoopNs,
  /// One analysis-server request, admission to response (any method).
  ServeRequestNs,
  /// Sentinel; not a histogram.
  NumHistos
};

constexpr unsigned NumHistos = static_cast<unsigned>(Histo::NumHistos);

/// The dotted display name of \p H, e.g. "solver.solve_ns".
const char *histoName(Histo H);

/// Number of log2 buckets: bucket B counts samples whose nanosecond
/// value has bit width B, i.e. Ns in [2^(B-1), 2^B - 1] (bucket 0 holds
/// exact zeros). 64 buckets cover the full uint64 range.
constexpr unsigned HistogramBuckets = 64;

/// The bucket index of \p Ns: its bit width.
inline unsigned histogramBucket(uint64_t Ns) {
  unsigned B = 0;
  while (Ns) {
    ++B;
    Ns >>= 1;
  }
  // Values >= 2^63 ns (292 years) clamp into the top bucket rather
  // than indexing past the array.
  return B < HistogramBuckets ? B : HistogramBuckets - 1;
}

/// The inclusive upper bound of bucket \p B in nanoseconds.
inline uint64_t histogramBucketUpperNs(unsigned B) {
  if (B >= 64)
    return ~uint64_t(0);
  return (uint64_t(1) << B) - 1;
}

/// A point-in-time copy of one histogram, with quantile estimation.
struct HistogramSnapshot {
  uint64_t Count = 0;
  uint64_t SumNs = 0;
  uint64_t Buckets[HistogramBuckets] = {};

  bool empty() const { return Count == 0; }

  /// Upper-bound estimate of quantile \p Q in [0, 1]: the upper edge of
  /// the first bucket whose cumulative count reaches Q * Count. Returns
  /// 0 for an empty histogram.
  uint64_t quantileNs(double Q) const;
};

/// One log-bucketed latency histogram: lock-free relaxed-atomic counts,
/// fixed storage, safe to record from several threads.
class Histogram {
public:
  Histogram() {
    for (std::atomic<uint64_t> &B : Buckets)
      B.store(0, std::memory_order_relaxed);
  }
  Histogram(const Histogram &) = delete;
  Histogram &operator=(const Histogram &) = delete;

  void record(uint64_t Ns) {
    Buckets[histogramBucket(Ns)].fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(Ns, std::memory_order_relaxed);
    Cnt.fetch_add(1, std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const {
    HistogramSnapshot S;
    S.Count = Cnt.load(std::memory_order_relaxed);
    S.SumNs = Sum.load(std::memory_order_relaxed);
    for (unsigned I = 0; I != HistogramBuckets; ++I)
      S.Buckets[I] = Buckets[I].load(std::memory_order_relaxed);
    return S;
  }

  void mergeFrom(const Histogram &Other) {
    for (unsigned I = 0; I != HistogramBuckets; ++I)
      Buckets[I].fetch_add(
          Other.Buckets[I].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    Sum.fetch_add(Other.Sum.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    Cnt.fetch_add(Other.Cnt.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  }

private:
  std::atomic<uint64_t> Buckets[HistogramBuckets];
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Cnt{0};
};

/// One completed span, in the shape the Chrome trace-event writer needs:
/// a name, a category, a start timestamp and duration on the wall clock,
/// the logical thread id it ran on, and up to four numeric arguments.
struct TraceEvent {
  std::string Name;
  const char *Cat = "";
  uint64_t StartNs = 0;
  uint64_t DurNs = 0;
  uint32_t Tid = 0;

  static constexpr unsigned MaxArgs = 4;
  unsigned NumArgs = 0;
  const char *ArgKeys[MaxArgs] = {nullptr, nullptr, nullptr, nullptr};
  uint64_t ArgVals[MaxArgs] = {0, 0, 0, 0};
};

/// Destination of completed spans. Implementations are single-threaded:
/// one sink belongs to one recording thread at a time.
class TraceSink {
public:
  virtual ~TraceSink() = default;
  virtual void record(TraceEvent E) = 0;
};

/// The standard sink: buffers events in memory for the exporters.
class MemoryTraceSink final : public TraceSink {
public:
  void record(TraceEvent E) override { Events.push_back(std::move(E)); }
  const std::vector<TraceEvent> &events() const { return Events; }
  void clear() { Events.clear(); }

private:
  std::vector<TraceEvent> Events;
};

/// One telemetry context: a counter array plus an optional sink. Safe to
/// share across threads for counting; span recording follows the sink's
/// single-thread rule.
class Telemetry {
public:
  Telemetry() {
    for (std::atomic<uint64_t> &C : Counters)
      C.store(0, std::memory_order_relaxed);
  }
  Telemetry(const Telemetry &) = delete;
  Telemetry &operator=(const Telemetry &) = delete;

  void add(Counter C, uint64_t N = 1) {
    Counters[static_cast<unsigned>(C)].fetch_add(N,
                                                 std::memory_order_relaxed);
  }
  uint64_t get(Counter C) const {
    return Counters[static_cast<unsigned>(C)].load(
        std::memory_order_relaxed);
  }

  /// Attaches \p S (not owned; null detaches). Spans only record -- and
  /// only then read clocks -- while a sink is attached.
  void setSink(TraceSink *S) { Sink = S; }
  TraceSink *sink() const { return Sink; }

  /// Enables latency histograms. Off by default so the counters-only
  /// tier stays clock-free: a LatencyTimer reads the wall clock only
  /// while timings are enabled. Independent of the sink.
  void enableTimings(bool On = true) { Timings = On; }
  bool timingsEnabled() const { return Timings; }

  void recordLatency(Histo H, uint64_t Ns) {
    Histograms[static_cast<unsigned>(H)].record(Ns);
  }
  const Histogram &histogram(Histo H) const {
    return Histograms[static_cast<unsigned>(H)];
  }

  /// Logical thread id stamped into recorded events (0 = main).
  void setThreadId(uint32_t Id) { Tid = Id; }
  uint32_t threadId() const { return Tid; }

  /// Files \p E with this context's thread id; dropped without a sink.
  void record(TraceEvent E) {
    if (!Sink)
      return;
    E.Tid = Tid;
    Sink->record(std::move(E));
  }

  /// Adds \p Other's counters and histograms into this context (the
  /// worker pool's join-time aggregation; see WorkerTelemetry).
  void mergeCountersFrom(const Telemetry &Other) {
    for (unsigned I = 0; I != NumCounters; ++I)
      Counters[I].fetch_add(
          Other.Counters[I].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    for (unsigned I = 0; I != NumHistos; ++I)
      Histograms[I].mergeFrom(Other.Histograms[I]);
  }

  /// The context installed for this thread, or null (telemetry off).
  static Telemetry *current();

private:
  friend class TelemetryScope;
  std::atomic<uint64_t> Counters[NumCounters];
  Histogram Histograms[NumHistos];
  TraceSink *Sink = nullptr;
  uint32_t Tid = 0;
  bool Timings = false;
};

/// A pool worker's private context under a root context: its own
/// counters and histograms, the root's timings setting, a private trace
/// buffer when the root has a sink, and a distinct thread id. The worker
/// records into context() without locks; mergeInto() adds everything to
/// the root once the worker has joined (driver/WorkerPool.h).
class WorkerTelemetry {
public:
  WorkerTelemetry(const Telemetry &Root, uint32_t ThreadId);
  WorkerTelemetry(const WorkerTelemetry &) = delete;
  WorkerTelemetry &operator=(const WorkerTelemetry &) = delete;

  Telemetry &context() { return Telem; }

  /// Adds this worker's counters, histograms and spans (which keep the
  /// worker's thread id) into \p Root.
  void mergeInto(Telemetry &Root) const;

private:
  Telemetry Telem;
  MemoryTraceSink Sink;
};

/// Installs \p T as the current thread's telemetry for a dynamic extent;
/// restores the previous context (usually none) on destruction. Scopes
/// nest.
class TelemetryScope {
public:
  explicit TelemetryScope(Telemetry &T);
  ~TelemetryScope();
  TelemetryScope(const TelemetryScope &) = delete;
  TelemetryScope &operator=(const TelemetryScope &) = delete;

private:
  Telemetry *Prev;
};

/// Bumps \p C on the current context, if any.
inline void count(Counter C, uint64_t N = 1) {
  if (Telemetry *T = Telemetry::current())
    T->add(C, N);
}

/// RAII trace span: starts timing at construction, files a TraceEvent at
/// destruction. Inert (no clock read, no allocation) unless the current
/// context has a sink. \p Name and \p Cat must be string literals; a
/// non-null \p Detail is appended as "Name:Detail" (copied, so its
/// lifetime may end at the constructor).
class Span {
public:
  explicit Span(const char *Name, const char *Cat,
                const char *Detail = nullptr);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Attaches a numeric argument (shown in the trace viewer); dropped
  /// beyond TraceEvent::MaxArgs. \p Key must be a string literal.
  void arg(const char *Key, uint64_t Value) {
    if (!Owner || Event.NumArgs == TraceEvent::MaxArgs)
      return;
    Event.ArgKeys[Event.NumArgs] = Key;
    Event.ArgVals[Event.NumArgs] = Value;
    ++Event.NumArgs;
  }

  /// True when this span is live (current context has a sink): lets
  /// call sites skip argument computation that only feeds the trace.
  bool active() const { return Owner != nullptr; }

private:
  Telemetry *Owner = nullptr;
  TraceEvent Event;
};

/// RAII latency sample: times its dynamic extent on the wall clock and
/// records it into one histogram of the current context. Inert -- one
/// thread-local load, one flag load, no clock read -- unless the current
/// context has timings enabled (enableTimings), so the counters-only
/// tier and the disabled tier keep their zero-overhead contracts.
class LatencyTimer {
public:
  explicit LatencyTimer(Histo H) {
    Telemetry *T = Telemetry::current();
    if (!T || !T->timingsEnabled())
      return;
    Owner = T;
    Which = H;
    StartNs = wallNowNs();
  }
  ~LatencyTimer() {
    if (Owner)
      Owner->recordLatency(Which, wallNowNs() - StartNs);
  }
  LatencyTimer(const LatencyTimer &) = delete;
  LatencyTimer &operator=(const LatencyTimer &) = delete;

private:
  Telemetry *Owner = nullptr;
  Histo Which = Histo::SolveNs;
  uint64_t StartNs = 0;
};

} // namespace telem
} // namespace ardf

#endif // ARDF_TELEMETRY_TELEMETRY_H

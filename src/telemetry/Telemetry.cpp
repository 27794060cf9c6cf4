//===- telemetry/Telemetry.cpp - Counters, timers, trace spans -----------===//

#include "telemetry/Telemetry.h"

#include <chrono>
#include <ctime>

using namespace ardf;
using namespace ardf::telem;

uint64_t telem::wallNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t telem::cpuNowNs() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec TS;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &TS) == 0)
    return static_cast<uint64_t>(TS.tv_sec) * 1000000000u +
           static_cast<uint64_t>(TS.tv_nsec);
#endif
  return static_cast<uint64_t>(std::clock()) *
         (1000000000u / CLOCKS_PER_SEC);
}

const char *telem::counterName(Counter C) {
  switch (C) {
  case Counter::SolverRunsReference:
    return "solver.runs.reference";
  case Counter::SolverRunsPacked:
    return "solver.runs.packed";
  case Counter::SolverNodeVisits:
    return "solver.node_visits";
  case Counter::SolverPasses:
    return "solver.passes";
  case Counter::SolverMeetOps:
    return "solver.meet_ops";
  case Counter::SolverApplyOps:
    return "solver.apply_ops";
  case Counter::MustNodeVisits:
    return "solver.must.node_visits";
  case Counter::MustVisitBound:
    return "solver.must.visit_bound";
  case Counter::MayNodeVisits:
    return "solver.may.node_visits";
  case Counter::MayVisitBound:
    return "solver.may.visit_bound";
  case Counter::FlowCompiles:
    return "flow.compiles";
  case Counter::FlowCompiledCells:
    return "flow.compiled_cells";
  case Counter::FlowCompileNs:
    return "flow.compile_ns";
  case Counter::SessionsBuilt:
    return "session.built";
  case Counter::SessionInstanceHits:
    return "session.instance.hits";
  case Counter::SessionInstanceMisses:
    return "session.instance.misses";
  case Counter::SessionSolutionHits:
    return "session.solution.hits";
  case Counter::SessionSolutionMisses:
    return "session.solution.misses";
  case Counter::SessionCompiledHits:
    return "session.compiled.hits";
  case Counter::SessionCompiledMisses:
    return "session.compiled.misses";
  case Counter::PreserveHits:
    return "preserve.hits";
  case Counter::PreserveMisses:
    return "preserve.misses";
  case Counter::DriverLoops:
    return "driver.loops";
  case Counter::LintLoops:
    return "lint.loops";
  case Counter::LintChecks:
    return "lint.checks";
  case Counter::LintDiagnostics:
    return "lint.diagnostics";
  case Counter::LintCrossChecks:
    return "lint.cross_checks";
  case Counter::BudgetBreaches:
    return "solver.budget_breaches";
  case Counter::DegradedSolves:
    return "solver.degraded_solves";
  case Counter::LoopFailures:
    return "driver.loop_failures";
  case Counter::FailpointHits:
    return "failpoint.hits";
  case Counter::NestTrees:
    return "nest.trees";
  case Counter::NestReduced:
    return "nest.reduced";
  case Counter::NestUnsupported:
    return "nest.unsupported";
  case Counter::ServeRequests:
    return "serve.requests";
  case Counter::ServeOk:
    return "serve.ok";
  case Counter::ServeErrors:
    return "serve.errors";
  case Counter::ServeOverloads:
    return "serve.overloads";
  case Counter::ServeDeadlines:
    return "serve.deadlines";
  case Counter::ServeCacheHits:
    return "serve.cache.hits";
  case Counter::ServeCacheMisses:
    return "serve.cache.misses";
  case Counter::ServeCacheEvictions:
    return "serve.cache.evictions";
  case Counter::ServeReruns:
    return "serve.reruns";
  case Counter::NumCounters:
    break;
  }
  return "unknown";
}

const char *telem::histoName(Histo H) {
  switch (H) {
  case Histo::SolveNs:
    return "solver.solve_ns";
  case Histo::CheckNs:
    return "lint.check_ns";
  case Histo::DriverLoopNs:
    return "driver.loop_ns";
  case Histo::ServeRequestNs:
    return "serve.request_ns";
  case Histo::NumHistos:
    break;
  }
  return "unknown";
}

uint64_t HistogramSnapshot::quantileNs(double Q) const {
  if (Count == 0)
    return 0;
  if (Q < 0)
    Q = 0;
  if (Q > 1)
    Q = 1;
  // The first bucket whose cumulative count reaches ceil(Q * Count);
  // report its inclusive upper edge (an upper-bound estimate).
  uint64_t Rank = static_cast<uint64_t>(Q * static_cast<double>(Count));
  if (Rank * 1.0 < Q * static_cast<double>(Count))
    ++Rank;
  if (Rank == 0)
    Rank = 1;
  uint64_t Cum = 0;
  for (unsigned B = 0; B != HistogramBuckets; ++B) {
    Cum += Buckets[B];
    if (Cum >= Rank)
      return histogramBucketUpperNs(B);
  }
  return histogramBucketUpperNs(HistogramBuckets - 1);
}

namespace {

thread_local Telemetry *CurrentTelemetry = nullptr;

} // namespace

Telemetry *Telemetry::current() { return CurrentTelemetry; }

TelemetryScope::TelemetryScope(Telemetry &T) : Prev(CurrentTelemetry) {
  CurrentTelemetry = &T;
}

TelemetryScope::~TelemetryScope() { CurrentTelemetry = Prev; }

Span::Span(const char *Name, const char *Cat, const char *Detail) {
  Telemetry *T = Telemetry::current();
  if (!T || !T->sink())
    return;
  Owner = T;
  if (Detail) {
    Event.Name.reserve(std::char_traits<char>::length(Name) + 1 +
                       std::char_traits<char>::length(Detail));
    Event.Name = Name;
    Event.Name += ':';
    Event.Name += Detail;
  } else {
    Event.Name = Name;
  }
  Event.Cat = Cat;
  Event.StartNs = wallNowNs();
}

Span::~Span() {
  if (!Owner)
    return;
  Event.DurNs = wallNowNs() - Event.StartNs;
  Owner->record(std::move(Event));
}

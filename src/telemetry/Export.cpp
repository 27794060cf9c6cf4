//===- telemetry/Export.cpp - Trace and stats exporters ------------------===//

#include "telemetry/Export.h"

#include "support/JsonEscape.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

using namespace ardf;
using namespace ardf::telem;

namespace {

/// \p S as a quoted JSON string literal.
void writeJsonString(std::ostream &OS, const std::string &S) {
  OS << '"' << jsonEscape(S) << '"';
}

/// Microseconds with nanosecond precision, as trace-event "ts" wants.
void writeMicros(std::ostream &OS, uint64_t Ns) {
  OS << Ns / 1000 << '.' << std::setw(3) << std::setfill('0') << Ns % 1000
     << std::setfill(' ');
}

double hitRate(uint64_t Hits, uint64_t Misses) {
  uint64_t Total = Hits + Misses;
  return Total == 0 ? 0.0 : static_cast<double>(Hits) / Total;
}

/// Human-scaled duration: "512ns", "4.1us", "2.3ms", "1.2s".
std::string formatNs(uint64_t Ns) {
  std::ostringstream SS;
  SS << std::fixed << std::setprecision(1);
  if (Ns < 1000)
    SS << Ns << "ns";
  else if (Ns < 1000000)
    SS << Ns / 1000.0 << "us";
  else if (Ns < 1000000000)
    SS << Ns / 1000000.0 << "ms";
  else
    SS << Ns / 1000000000.0 << "s";
  return SS.str();
}

/// Prometheus metric name of a dotted counter/histogram name: prefixed
/// with "ardf_", dots mapped to underscores.
std::string promName(const char *Dotted) {
  std::string Out = "ardf_";
  for (const char *P = Dotted; *P; ++P)
    Out += *P == '.' ? '_' : *P;
  return Out;
}

/// The index one past the last non-empty bucket (0 if all empty).
unsigned highestBucketEnd(const HistogramSnapshot &S) {
  unsigned End = 0;
  for (unsigned B = 0; B != HistogramBuckets; ++B)
    if (S.Buckets[B])
      End = B + 1;
  return End;
}

} // namespace

void telem::writeChromeTrace(std::ostream &OS,
                             const std::vector<TraceEvent> &Events) {
  uint64_t Epoch = UINT64_MAX;
  for (const TraceEvent &E : Events)
    Epoch = std::min(Epoch, E.StartNs);
  if (Events.empty())
    Epoch = 0;

  OS << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  // Process metadata first: gives the single pid lane a readable name.
  OS << "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,"
        "\"tid\":0,\"args\":{\"name\":\"ardf\"}}";
  for (const TraceEvent &E : Events) {
    OS << ",\n{\"name\":";
    writeJsonString(OS, E.Name);
    OS << ",\"cat\":";
    writeJsonString(OS, E.Cat);
    OS << ",\"ph\":\"X\",\"ts\":";
    writeMicros(OS, E.StartNs - Epoch);
    OS << ",\"dur\":";
    writeMicros(OS, E.DurNs);
    OS << ",\"pid\":1,\"tid\":" << E.Tid;
    if (E.NumArgs) {
      OS << ",\"args\":{";
      for (unsigned I = 0; I != E.NumArgs; ++I) {
        if (I)
          OS << ',';
        writeJsonString(OS, E.ArgKeys[I]);
        OS << ':' << E.ArgVals[I];
      }
      OS << '}';
    }
    OS << '}';
  }
  OS << "\n]}\n";
}

DerivedStats DerivedStats::compute(const Telemetry &T) {
  DerivedStats D;
  D.InstanceHitRate = hitRate(T.get(Counter::SessionInstanceHits),
                              T.get(Counter::SessionInstanceMisses));
  D.SolutionHitRate = hitRate(T.get(Counter::SessionSolutionHits),
                              T.get(Counter::SessionSolutionMisses));
  D.CompiledHitRate = hitRate(T.get(Counter::SessionCompiledHits),
                              T.get(Counter::SessionCompiledMisses));
  D.PreserveHitRate = hitRate(T.get(Counter::PreserveHits),
                              T.get(Counter::PreserveMisses));
  D.MustBoundMet =
      T.get(Counter::MustNodeVisits) == T.get(Counter::MustVisitBound);
  D.MayBoundMet =
      T.get(Counter::MayNodeVisits) == T.get(Counter::MayVisitBound);
  return D;
}

void telem::writeStatsJson(std::ostream &OS, const Telemetry &T) {
  OS << "{\n  \"counters\": {\n";
  for (unsigned I = 0; I != NumCounters; ++I) {
    Counter C = static_cast<Counter>(I);
    OS << "    ";
    writeJsonString(OS, counterName(C));
    OS << ": " << T.get(C) << (I + 1 == NumCounters ? "\n" : ",\n");
  }
  DerivedStats D = DerivedStats::compute(T);
  std::ostringstream Rates;
  Rates << std::fixed << std::setprecision(4);
  Rates << "    \"session.instance.hit_rate\": " << D.InstanceHitRate
        << ",\n    \"session.solution.hit_rate\": " << D.SolutionHitRate
        << ",\n    \"session.compiled.hit_rate\": " << D.CompiledHitRate
        << ",\n    \"preserve.hit_rate\": " << D.PreserveHitRate;
  OS << "  },\n  \"derived\": {\n"
     << Rates.str() << ",\n    \"solver.must.bound_met\": "
     << (D.MustBoundMet ? "true" : "false")
     << ",\n    \"solver.may.bound_met\": "
     << (D.MayBoundMet ? "true" : "false") << "\n  },\n"
     << "  \"histograms\": {\n";
  for (unsigned I = 0; I != NumHistos; ++I) {
    Histo H = static_cast<Histo>(I);
    HistogramSnapshot S = T.histogram(H).snapshot();
    OS << "    ";
    writeJsonString(OS, histoName(H));
    OS << ": {\"count\": " << S.Count << ", \"sum_ns\": " << S.SumNs
       << ", \"p50_ns\": " << S.quantileNs(0.50)
       << ", \"p95_ns\": " << S.quantileNs(0.95)
       << ", \"p99_ns\": " << S.quantileNs(0.99) << ", \"buckets\": [";
    bool First = true;
    for (unsigned B = 0; B != HistogramBuckets; ++B) {
      if (!S.Buckets[B])
        continue;
      if (!First)
        OS << ", ";
      First = false;
      OS << '[' << histogramBucketUpperNs(B) << ", " << S.Buckets[B]
         << ']';
    }
    OS << "]}" << (I + 1 == NumHistos ? "\n" : ",\n");
  }
  OS << "  }\n}\n";
}

void telem::writeStatsTable(std::ostream &OS, const Telemetry &T) {
  OS << "== ardf telemetry ==\n";
  for (unsigned I = 0; I != NumCounters; ++I) {
    Counter C = static_cast<Counter>(I);
    OS << "  " << std::left << std::setw(28) << counterName(C)
       << std::right << std::setw(14) << T.get(C) << '\n';
  }
  DerivedStats D = DerivedStats::compute(T);
  std::ostringstream Pct;
  Pct << std::fixed << std::setprecision(1);
  auto Rate = [&Pct](double R) {
    Pct.str("");
    Pct << R * 100 << '%';
    return Pct.str();
  };
  OS << "  --\n"
     << "  " << std::left << std::setw(28) << "session.instance.hit_rate"
     << std::right << std::setw(14) << Rate(D.InstanceHitRate) << '\n'
     << "  " << std::left << std::setw(28) << "session.solution.hit_rate"
     << std::right << std::setw(14) << Rate(D.SolutionHitRate) << '\n'
     << "  " << std::left << std::setw(28) << "session.compiled.hit_rate"
     << std::right << std::setw(14) << Rate(D.CompiledHitRate) << '\n'
     << "  " << std::left << std::setw(28) << "preserve.hit_rate"
     << std::right << std::setw(14) << Rate(D.PreserveHitRate) << '\n'
     << "  " << std::left << std::setw(28) << "solver.must 3N bound"
     << std::right << std::setw(14) << (D.MustBoundMet ? "met" : "MISSED")
     << '\n'
     << "  " << std::left << std::setw(28) << "solver.may 2N bound"
     << std::right << std::setw(14) << (D.MayBoundMet ? "met" : "MISSED")
     << '\n';
  bool WroteLatencyHeader = false;
  for (unsigned I = 0; I != NumHistos; ++I) {
    Histo H = static_cast<Histo>(I);
    HistogramSnapshot S = T.histogram(H).snapshot();
    if (S.empty())
      continue;
    if (!WroteLatencyHeader) {
      OS << "  --\n";
      WroteLatencyHeader = true;
    }
    OS << "  " << std::left << std::setw(28) << histoName(H) << std::right
       << " n=" << S.Count << "  p50<=" << formatNs(S.quantileNs(0.50))
       << "  p95<=" << formatNs(S.quantileNs(0.95))
       << "  p99<=" << formatNs(S.quantileNs(0.99)) << '\n';
  }
}

void telem::writePrometheus(std::ostream &OS, const Telemetry &T) {
  for (unsigned I = 0; I != NumCounters; ++I) {
    Counter C = static_cast<Counter>(I);
    std::string Name = promName(counterName(C));
    OS << "# TYPE " << Name << " counter\n"
       << Name << " " << T.get(C) << '\n';
  }
  DerivedStats D = DerivedStats::compute(T);
  std::ostringstream Rates;
  Rates << std::fixed << std::setprecision(4);
  auto Gauge = [&OS, &Rates](const char *Dotted, double Value) {
    std::string Name = promName(Dotted);
    Rates.str("");
    Rates << Value;
    OS << "# TYPE " << Name << " gauge\n" << Name << " " << Rates.str()
       << '\n';
  };
  Gauge("session.instance.hit_rate", D.InstanceHitRate);
  Gauge("session.solution.hit_rate", D.SolutionHitRate);
  Gauge("session.compiled.hit_rate", D.CompiledHitRate);
  Gauge("preserve.hit_rate", D.PreserveHitRate);
  Gauge("solver.must.bound_met", D.MustBoundMet ? 1.0 : 0.0);
  Gauge("solver.may.bound_met", D.MayBoundMet ? 1.0 : 0.0);
  for (unsigned I = 0; I != NumHistos; ++I) {
    Histo H = static_cast<Histo>(I);
    HistogramSnapshot S = T.histogram(H).snapshot();
    std::string Name = promName(histoName(H));
    OS << "# TYPE " << Name << " histogram\n";
    uint64_t Cum = 0;
    unsigned End = highestBucketEnd(S);
    for (unsigned B = 0; B != End; ++B) {
      Cum += S.Buckets[B];
      OS << Name << "_bucket{le=\"" << histogramBucketUpperNs(B)
         << "\"} " << Cum << '\n';
    }
    OS << Name << "_bucket{le=\"+Inf\"} " << S.Count << '\n'
       << Name << "_sum " << S.SumNs << '\n'
       << Name << "_count " << S.Count << '\n';
  }
}

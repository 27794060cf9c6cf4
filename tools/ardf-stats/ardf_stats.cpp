//===- tools/ardf-stats/ardf_stats.cpp - Telemetry stats CLI --------------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the batched program driver (the four paper problems over every
/// loop) on each .arf input under a telemetry context and reports the
/// recorded counters: solver work (node visits against the paper's 3N
/// must / 2N may bounds, meets, flow applications), lowering volume,
/// session cache hit rates, and wall/CPU time -- as a human table, stats
/// JSON, or a Perfetto-loadable Chrome trace.
///
///   ardf-stats examples/programs/*.arf
///   ardf-stats --json=stats.json --trace-out=trace.json fig1.arf
///   ardf-stats --engine=packed --threads=4 big.arf
///
/// Exit codes: 0 success, 2 usage or I/O failure. Parse failures of an
/// input are reported and exit 2; diagnostics are ardf-lint's job.
///
//===----------------------------------------------------------------------===//

#include "common/CliFlags.h"
#include "driver/ProgramAnalysisDriver.h"
#include "frontend/Parser.h"
#include "support/BuildInfo.h"
#include "support/FileIO.h"
#include "telemetry/Export.h"
#include "telemetry/Telemetry.h"

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace ardf;

namespace {

struct CliOptions {
  /// --json / --json=FILE: stats JSON instead of the human table (to
  /// stdout, or to FILE).
  bool Json = false;
  std::string JsonOut;
  /// --format=prometheus / --prometheus=FILE: Prometheus text
  /// exposition of every counter, derived gauge, and latency histogram.
  bool Prometheus = false;
  std::string PrometheusOut;
  /// --trace-out=FILE: Chrome trace-event JSON of the run's spans.
  std::string TraceOut;
  /// --max-input-bytes=N: per-file input size cap (0 = uncapped).
  uint64_t MaxInputBytes = io::DefaultMaxInputBytes;
  DriverOptions Driver;
  std::vector<std::string> Files;
};

int usage(std::ostream &OS, int Code) {
  OS << "usage: ardf-stats [options] <file.arf>...\n"
        "\n"
        "Analyzes every loop of each input with the four paper problems\n"
        "(must-reaching definitions, delta-available values, delta-busy\n"
        "stores, delta-reaching references) and reports the telemetry\n"
        "counters of the run: node visits vs. the paper's 3N/2N bounds,\n"
        "meet/apply operation counts, lowering volume, and session cache\n"
        "hit rates.\n"
        "\n"
        "options:\n"
        "  --json[=FILE]              stats JSON (stdout, or to FILE)\n"
        "  --format=prometheus        Prometheus text exposition of all\n"
        "                             counters, cache hit-rate gauges,\n"
        "                             and latency histograms (stdout)\n"
        "  --prometheus=FILE          same, written to FILE\n"
        "  --trace-out=FILE           write Chrome trace-event JSON\n"
        "                             (load in Perfetto / about:tracing)\n"
        "  --engine=NAME              solver engine (default: reference;\n"
        "                             packed = the packed kernel,\n"
        "                             bit-identical results).\n"
        "                             NAME is one of:\n"
        "                             "
     << engineNameList()
     << "\n"
        "  --threads=N                driver worker threads (default: 1)\n"
        "  --no-nested                analyze outermost loops only\n"
        "  --fixpoint                 iterate to fixpoint instead of the\n"
        "                             paper's fixed two-pass schedule\n"
        "  --budget-visits=N          cap solver node visits per solve\n"
        "  --budget-slack=F           cap visits at F x the 3N/2N bound\n"
        "  --budget-deadline-ms=N     per-solve wall-clock deadline\n"
        "  --budget-cells=N           cap matrix cells per solve\n"
        "  --max-input-bytes=N        per-file input cap (default 64MiB,\n"
        "                             0 = uncapped)\n"
        "  --version                  print version and build type\n"
        "  --help                     show this message\n"
        "\n"
        "exit codes: 0 success, 2 usage/IO failure\n";
  return Code;
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts, std::string &Err) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      Err = "help";
      return false;
    } else if (Arg == "--version") {
      Err = "version";
      return false;
    } else if (Arg == "--json") {
      Opts.Json = true;
    } else if (Arg.rfind("--json=", 0) == 0) {
      Opts.Json = true;
      Opts.JsonOut = Arg.substr(strlen("--json="));
      if (Opts.JsonOut.empty()) {
        Err = "--json= needs a file name";
        return false;
      }
    } else if (Arg == "--format=prometheus") {
      Opts.Prometheus = true;
    } else if (Arg.rfind("--prometheus=", 0) == 0) {
      Opts.Prometheus = true;
      Opts.PrometheusOut = Arg.substr(strlen("--prometheus="));
      if (Opts.PrometheusOut.empty()) {
        Err = "--prometheus= needs a file name";
        return false;
      }
    } else if (Arg.rfind("--trace-out=", 0) == 0) {
      Opts.TraceOut = Arg.substr(strlen("--trace-out="));
      if (Opts.TraceOut.empty()) {
        Err = "--trace-out needs a file name";
        return false;
      }
    } else if (cli::engineFlag(Arg, Opts.Driver.Solver.Eng, Err) ||
               cli::budgetFlag(Arg, Opts.Driver.Solver.Budget, Err) ||
               cli::maxInputBytesFlag(Arg, Opts.MaxInputBytes, Err) ||
               cli::countFlag(Arg, "--threads", Opts.Driver.Threads, Err,
                              /*Positive=*/true)) {
      if (!Err.empty())
        return false;
    } else if (Arg == "--no-nested") {
      Opts.Driver.IncludeNested = false;
    } else if (Arg == "--fixpoint") {
      Opts.Driver.Solver.Strat = SolverOptions::Strategy::IterateToFixpoint;
    } else if (!Arg.empty() && Arg[0] == '-') {
      Err = "unknown option '" + Arg + "'";
      return false;
    } else {
      Opts.Files.push_back(std::move(Arg));
    }
  }
  if (Opts.Files.empty()) {
    Err = "no input files";
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Opts;
  std::string Err;
  if (!parseArgs(Argc, Argv, Opts, Err)) {
    if (Err == "help")
      return usage(std::cout, 0);
    if (Err == "version") {
      std::cout << toolVersionLine("ardf-stats") << "\n";
      return 0;
    }
    std::cerr << "ardf-stats: error: " << Err << "\n\n";
    return usage(std::cerr, 2);
  }

  telem::Telemetry Telem;
  // A stats run exists to measure, so the latency histograms (which
  // cost clock reads the library otherwise skips) are always on here.
  Telem.enableTimings();
  telem::MemoryTraceSink Sink;
  if (!Opts.TraceOut.empty())
    Telem.setSink(&Sink);

  uint64_t WallStart = telem::wallNowNs();
  uint64_t CpuStart = telem::cpuNowNs();
  unsigned TotalLoops = 0, TotalVisits = 0;
  DriverReport Totals;
  {
    telem::TelemetryScope Scope(Telem);
    for (const std::string &File : Opts.Files) {
      std::string Text;
      std::string ReadDetail;
      io::ReadStatus RS =
          io::readInputFile(File, Text, Opts.MaxInputBytes, &ReadDetail);
      if (RS != io::ReadStatus::Ok) {
        std::cerr << "ardf-stats: error: "
                  << io::describeReadError(RS, File, Opts.MaxInputBytes,
                                           ReadDetail)
                  << "\n";
        return 2;
      }
      ParseResult Parsed = parseProgram(Text);
      if (!Parsed.succeeded()) {
        for (const ParseDiagnostic &PD : Parsed.Diags)
          std::cerr << File << ":" << PD.Line << ":" << PD.Col
                    << ": error: " << PD.Message << "\n";
        return 2;
      }
      telem::Span FileSpan("analyze-file", "driver", File.c_str());
      ProgramAnalysisDriver Driver(Parsed.Prog, Opts.Driver);
      Driver.run();
      TotalLoops += static_cast<unsigned>(Driver.loops().size());
      TotalVisits += Driver.totalNodeVisits();
      DriverReport R = Driver.report();
      Totals.Ok += R.Ok;
      Totals.Degraded += R.Degraded;
      Totals.Failed += R.Failed;
      Totals.Unsupported += R.Unsupported;
      for (const AnalyzedLoop &L : Driver.loops())
        if (!L.Loop)
          std::cerr << "ardf-stats: warning: " << File
                    << ": loop at nest path '" << L.NestPath
                    << "' unsupported: " << L.UnsupportedReason << "\n";
      for (const AnalyzedLoop &L : Driver.loops())
        for (const LoopFailure &F : L.Failures)
          std::cerr << "ardf-stats: warning: " << File << ": loop over '"
                    << L.Loop->getIndVar() << "': " << F.Phase
                    << " failed: " << F.Message << "\n";
    }
  }
  uint64_t WallNs = telem::wallNowNs() - WallStart;
  uint64_t CpuNs = telem::cpuNowNs() - CpuStart;

  if (!Opts.TraceOut.empty()) {
    std::ofstream Out(Opts.TraceOut, std::ios::binary);
    if (!Out) {
      std::cerr << "ardf-stats: error: cannot write '" << Opts.TraceOut
                << "'\n";
      return 2;
    }
    telem::writeChromeTrace(Out, Sink.events());
  }

  if (Opts.Prometheus) {
    if (Opts.PrometheusOut.empty()) {
      telem::writePrometheus(std::cout, Telem);
    } else {
      std::ofstream Out(Opts.PrometheusOut, std::ios::binary);
      if (!Out) {
        std::cerr << "ardf-stats: error: cannot write '"
                  << Opts.PrometheusOut << "'\n";
        return 2;
      }
      telem::writePrometheus(Out, Telem);
    }
    return 0;
  }

  if (Opts.Json) {
    if (Opts.JsonOut.empty()) {
      telem::writeStatsJson(std::cout, Telem);
    } else {
      std::ofstream Out(Opts.JsonOut, std::ios::binary);
      if (!Out) {
        std::cerr << "ardf-stats: error: cannot write '" << Opts.JsonOut
                  << "'\n";
        return 2;
      }
      telem::writeStatsJson(Out, Telem);
    }
    return 0;
  }

  std::cout << "ardf-stats: " << Opts.Files.size() << " file(s), "
            << TotalLoops << " loop(s), " << TotalVisits
            << " node visit(s)\n";
  std::cout << "loops: " << Totals.Ok << " ok, " << Totals.Degraded
            << " degraded, " << Totals.Failed << " failed";
  if (Totals.Unsupported != 0)
    std::cout << ", " << Totals.Unsupported << " unsupported";
  std::cout << "\n";
  std::cout << "wall: " << (WallNs / 1000000.0) << " ms, cpu: "
            << (CpuNs / 1000000.0) << " ms\n\n";
  telem::writeStatsTable(std::cout, Telem);
  return 0;
}

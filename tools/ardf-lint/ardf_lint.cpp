//===- tools/ardf-lint/ardf_lint.cpp - Array reference linter CLI ---------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line driver for the lint engine: parses each .arf input,
/// runs the Validate pass plus all framework-backed checks, and prints
/// the combined diagnostics as human text, JSON lines, or SARIF 2.1.0.
///
///   ardf-lint examples/programs/fig1.arf
///   ardf-lint --format=sarif --engine=packed examples/programs/*.arf
///   ardf-lint --trace-out=trace.json --stats examples/programs/fig1.arf
///
/// Exit codes: 0 clean (warnings and notes only), 1 at least one
/// error-severity diagnostic, 2 usage or I/O failure.
///
//===----------------------------------------------------------------------===//

#include "common/CliFlags.h"
#include "lint/LintEngine.h"
#include "lint/Render.h"
#include "support/BuildInfo.h"
#include "support/FileIO.h"
#include "telemetry/Export.h"
#include "telemetry/Telemetry.h"

#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace ardf;

namespace {

enum class Format { Text, JsonLines, Sarif };

struct CliOptions {
  Format Fmt = Format::Text;
  LintOptions Lint;
  bool Quiet = false;
  /// --strict: any degraded check (budget breach or injected fault)
  /// fails the run, so CI can assert "no check silently weakened".
  bool Strict = false;
  /// --max-input-bytes=N: per-file input size cap (0 = uncapped).
  uint64_t MaxInputBytes = io::DefaultMaxInputBytes;
  /// --trace-out=FILE: Chrome trace-event JSON of the run's spans.
  std::string TraceOut;
  /// --stats / --stats=FILE: counter report (human table on stdout, or
  /// stats JSON when a file is given).
  bool Stats = false;
  std::string StatsOut;
  /// --list-checks: print the check table and exit 0 (no inputs needed).
  bool ListChecks = false;
  std::vector<std::string> Files;
};

int usage(std::ostream &OS, int Code) {
  OS << "usage: ardf-lint [options] <file.arf>...\n"
        "\n"
        "Array reference diagnostics over .arf loop programs, backed by\n"
        "the (G,K) data flow framework of Duesterwald, Gupta & Soffa\n"
        "(PLDI 1993). Checks: redundant-load, dead-store,\n"
        "loop-carried-reuse, cross-iteration-conflict, plus analysis\n"
        "precondition validation.\n"
        "\n"
        "options:\n"
        "  --format=text|json|sarif   output format (default: text)\n"
        "  --engine=NAME              primary solver engine (default:\n"
        "                             reference; packed = the packed\n"
        "                             kernel, bit-identical results).\n"
        "                             NAME is one of:\n"
        "                             "
     << engineNameList()
     << "\n"
        "  --no-cross-check           skip solving with both engines\n"
        "  --no-nested                lint outermost loops only\n"
        "  --explain[=CHECK-ID]       attach the derivation of each\n"
        "                             finding's backing solution cell: a\n"
        "                             because-trail in text output, the\n"
        "                             derivation DAG in JSON, SARIF\n"
        "                             codeFlows. With =CHECK-ID, one of\n"
        "                             the four checks above, only that\n"
        "                             check's findings are explained\n"
        "  --strict                   fail (exit 1) when any check was\n"
        "                             degraded by a budget or fault\n"
        "  --budget-visits=N          cap solver node visits per solve\n"
        "  --budget-slack=F           cap visits at F x the 3N/2N bound\n"
        "  --budget-deadline-ms=N     per-solve wall-clock deadline\n"
        "  --budget-cells=N           cap matrix cells per solve\n"
        "  --max-input-bytes=N        per-file input cap (default 64MiB,\n"
        "                             0 = uncapped)\n"
        "  --trace-out=FILE           write Chrome trace-event JSON\n"
        "                             (load in Perfetto / about:tracing)\n"
        "  --stats[=FILE]             print telemetry counters (table on\n"
        "                             stdout, stats JSON with =FILE)\n"
        "  --list-checks              list every check id with its\n"
        "                             severity and description, then\n"
        "                             exit 0\n"
        "  --quiet                    suppress the trailing summary line\n"
        "  --version                  print version and build type\n"
        "  --help                     show this message\n"
        "\n"
        "exit codes: 0 clean, 1 error diagnostics, 2 usage/IO failure\n";
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
    } else if (Arg == "--format=text") {
      Opts.Fmt = Format::Text;
    } else if (Arg == "--format=json") {
      Opts.Fmt = Format::JsonLines;
    } else if (Arg == "--format=sarif") {
      Opts.Fmt = Format::Sarif;
    } else if (cli::engineFlag(Arg, Opts.Lint.Engine, Err) ||
               cli::budgetFlag(Arg, Opts.Lint.Budget, Err) ||
               cli::maxInputBytesFlag(Arg, Opts.MaxInputBytes, Err)) {
      if (!Err.empty())
        return false;
    } else if (Arg == "--no-cross-check") {
      Opts.Lint.CrossCheck = false;
    } else if (Arg == "--no-nested") {
      Opts.Lint.IncludeNested = false;
    } else if (Arg == "--strict") {
      Opts.Strict = true;
    } else if (Arg == "--explain") {
      Opts.Lint.Explain = true;
    } else if (Arg.rfind("--explain=", 0) == 0) {
      Opts.Lint.Explain = true;
      Opts.Lint.ExplainCheck = Arg.substr(strlen("--explain="));
      if (!isExplainableCheck(Opts.Lint.ExplainCheck)) {
        Err = "unknown check '" + Opts.Lint.ExplainCheck +
              "' for --explain (expected one of: " + explainableCheckList() +
              ")";
        return false;
      }
    } else if (Arg == "--quiet") {
      Opts.Quiet = true;
    } else if (Arg.rfind("--trace-out=", 0) == 0) {
      Opts.TraceOut = Arg.substr(strlen("--trace-out="));
      if (Opts.TraceOut.empty()) {
        Err = "--trace-out needs a file name";
        return false;
      }
    } else if (Arg == "--list-checks") {
      Opts.ListChecks = true;
    } else if (Arg == "--stats") {
      Opts.Stats = true;
    } else if (Arg.rfind("--stats=", 0) == 0) {
      Opts.Stats = true;
      Opts.StatsOut = Arg.substr(strlen("--stats="));
      if (Opts.StatsOut.empty()) {
        Err = "--stats= needs a file name";
        return false;
      }
    } else if (!Arg.empty() && Arg[0] == '-') {
      Err = "unknown option '" + Arg + "'";
      return false;
    } else {
      Opts.Files.push_back(std::move(Arg));
    }
  }
  if (Opts.Files.empty() && !Opts.ListChecks) {
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
      std::cout << toolVersionLine("ardf-lint") << "\n";
      return 0;
    }
    std::cerr << "ardf-lint: error: " << Err << "\n\n";
    return usage(std::cerr, 2);
  }

  if (Opts.ListChecks) {
    for (const CheckInfo &C : allChecks())
      std::cout << C.Id << "  [" << C.Severity << "]  " << C.Description
                << "\n";
    return 0;
  }

  // Telemetry is installed only when requested, so a plain lint run
  // keeps the instrumentation at its zero-overhead-off setting.
  bool WantTelemetry = Opts.Stats || !Opts.TraceOut.empty();
  telem::Telemetry Telem;
  // Latency histograms need clock reads, so timings are tied to the
  // same opt-in; a plain run still pays zero instrumentation cost.
  if (WantTelemetry)
    Telem.enableTimings();
  telem::MemoryTraceSink Sink;
  if (!Opts.TraceOut.empty())
    Telem.setSink(&Sink);
  std::optional<telem::TelemetryScope> Scope;
  if (WantTelemetry)
    Scope.emplace(Telem);

  SourceMap Sources;
  std::vector<Diagnostic> AllDiags;
  unsigned Loops = 0, Divergences = 0, Degraded = 0;
  bool HadErrors = false;
  for (const std::string &File : Opts.Files) {
    std::string Text;
    std::string ReadDetail;
    io::ReadStatus RS =
        io::readInputFile(File, Text, Opts.MaxInputBytes, &ReadDetail);
    if (RS != io::ReadStatus::Ok) {
      std::cerr << "ardf-lint: error: "
                << io::describeReadError(RS, File, Opts.MaxInputBytes,
                                         ReadDetail)
                << "\n";
      return 2;
    }
    Sources.add(File, Text);
    telem::Span FileSpan("lint-file", "lint", File.c_str());
    // Last-resort per-file fault boundary: the engine isolates faults
    // per check, but if anything still escapes, the remaining files are
    // linted and this one is reported as an error.
    try {
      LintResult R = lintSource(Text, File, Opts.Lint);
      HadErrors |= R.hasErrors();
      Loops += R.LoopsAnalyzed;
      Divergences += R.EngineDivergences;
      Degraded += R.ChecksDegraded;
      AllDiags.insert(AllDiags.end(),
                      std::make_move_iterator(R.Diags.begin()),
                      std::make_move_iterator(R.Diags.end()));
    } catch (const std::exception &E) {
      std::cerr << "ardf-lint: error: internal error while linting '" << File
                << "': " << E.what() << "\n";
      HadErrors = true;
    }
  }

  switch (Opts.Fmt) {
  case Format::Text:
    renderText(std::cout, AllDiags, Sources);
    if (!Opts.Quiet) {
      unsigned Errors = 0, Warnings = 0, Notes = 0;
      for (const Diagnostic &D : AllDiags) {
        Errors += D.Severity == DiagSeverity::Error;
        Warnings += D.Severity == DiagSeverity::Warning;
        Notes += D.Severity == DiagSeverity::Note;
      }
      std::cout << "ardf-lint: " << Opts.Files.size() << " file(s), " << Loops
                << " loop(s) analyzed: " << Errors << " error(s), "
                << Warnings << " warning(s), " << Notes << " note(s)";
      if (Opts.Lint.CrossCheck)
        std::cout << "; engine cross-check: " << Divergences
                  << " divergence(s)";
      if (Degraded != 0)
        std::cout << "; " << Degraded << " degraded check(s)";
      std::cout << '\n';
    }
    break;
  case Format::JsonLines:
    renderJsonLines(std::cout, AllDiags);
    break;
  case Format::Sarif:
    renderSarif(std::cout, AllDiags);
    break;
  }

  if (!Opts.TraceOut.empty()) {
    std::ofstream Out(Opts.TraceOut, std::ios::binary);
    if (!Out) {
      std::cerr << "ardf-lint: error: cannot write '" << Opts.TraceOut
                << "'\n";
      return 2;
    }
    telem::writeChromeTrace(Out, Sink.events());
  }
  if (Opts.Stats) {
    if (Opts.StatsOut.empty()) {
      telem::writeStatsTable(std::cout, Telem);
    } else {
      std::ofstream Out(Opts.StatsOut, std::ios::binary);
      if (!Out) {
        std::cerr << "ardf-lint: error: cannot write '" << Opts.StatsOut
                  << "'\n";
        return 2;
      }
      telem::writeStatsJson(Out, Telem);
    }
  }

  if (Opts.Strict && Degraded != 0) {
    std::cerr << "ardf-lint: error: --strict: " << Degraded
              << " check(s) ran degraded\n";
    return 1;
  }
  return HadErrors ? 1 : 0;
}

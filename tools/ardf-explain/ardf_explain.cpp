//===- tools/ardf-explain/ardf_explain.cpp - Solution derivation CLI ------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Explains one solution cell of one data flow problem over one loop:
/// re-solves the problem through the reference engine with provenance
/// recording, cross-checks the result bit-identical against the
/// configured fast engine, and prints the cell's full derivation tree
/// (initialization seed, every meet with the losing values, every
/// preserve/kill, every back-edge increment, and the pass that settled
/// the value).
///
///   ardf-explain examples/programs/fig4.arf --problem may-reach \
///       --cell 'A[i-1]'
///   ardf-explain nested.arf --loop 1 --problem must-reach \
///       --cell 'B[i]' --node 2 --out
///
/// Exit codes: 0 success, 1 engine cross-check divergence or degraded
/// solve, 2 usage or I/O failure.
///
//===----------------------------------------------------------------------===//

#include "analysis/LoopAnalysisSession.h"
#include "analysis/LoopNest.h"
#include "common/CliFlags.h"
#include "dataflow/Provenance.h"
#include "frontend/Parser.h"
#include "support/BuildInfo.h"
#include "support/FileIO.h"

#include <iostream>
#include <optional>
#include <string>
#include <vector>

using namespace ardf;

namespace {

struct CliOptions {
  std::string File;
  /// Index into the program's supported loops, in source order.
  unsigned LoopIndex = 0;
  std::string Problem;
  std::string Cell;
  /// Flow node to query; unset = the problem's exit-node default.
  std::optional<unsigned> Node;
  /// Query the OUT side instead of IN.
  bool OutSide = false;
  /// Also emit the derivation DAG as compact JSON after the tree.
  bool Json = false;
  /// Fast engine to cross-check the reference re-solve against.
  SolverOptions::Engine Engine = SolverOptions::Engine::PackedKernel;
  uint64_t MaxInputBytes = io::DefaultMaxInputBytes;
};

int usage(std::ostream &OS, int Code) {
  OS << "usage: ardf-explain <file.arf> --problem NAME --cell REF "
        "[options]\n"
        "\n"
        "Prints the derivation of one solution cell: how the data flow\n"
        "framework arrived at the cell's iteration-distance value, step\n"
        "by step (seed, meets with losing values, kills, back-edge\n"
        "increments, settling pass). The explaining re-solve runs the\n"
        "reference engine with provenance recording and is cross-checked\n"
        "bit-identical against the fast engine first.\n"
        "\n"
        "options:\n"
        "  --problem=NAME   one of: must-reach, avail, busy, may-reach\n"
        "                   (aliases: must-reaching-defs,\n"
        "                   available-values, busy-stores,\n"
        "                   reaching-references)\n"
        "  --cell=REF       the tracked reference, as rendered in\n"
        "                   diagnostics (e.g. 'A[i-1]'); when ambiguous\n"
        "                   or omitted the candidates are listed\n"
        "  --loop=N         Nth analyzable loop, counted in source\n"
        "                   order (default 0)\n"
        "  --node=K         flow node to query (default: the loop exit)\n"
        "  --out            query the OUT side of the node (default IN)\n"
        "  --json           also print the derivation DAG as JSON\n"
        "  --engine=NAME    fast engine to cross-check against\n"
        "                   (default packed)\n"
        "  --max-input-bytes=N  input size cap (default 64MiB)\n"
        "  --version        print version and build type\n"
        "  --help           show this message\n"
        "\n"
        "exit codes: 0 success, 1 divergence/degraded, 2 usage/IO\n";
  return Code;
}

/// Maps a CLI problem name (or alias) to its spec. The per-occurrence
/// variants back avail/busy so every cell is one concrete reference.
bool resolveProblem(const std::string &Name, ProblemSpec &Out) {
  if (Name == "must-reach" || Name == "must-reaching-defs") {
    Out = ProblemSpec::mustReachingDefs();
    return true;
  }
  if (Name == "avail" || Name == "available-values") {
    Out = ProblemSpec::availableValuesPerOccurrence();
    return true;
  }
  if (Name == "busy" || Name == "busy-stores") {
    Out = ProblemSpec::busyStoresPerOccurrence();
    return true;
  }
  if (Name == "may-reach" || Name == "reaching-references") {
    Out = ProblemSpec::reachingReferences();
    return true;
  }
  return false;
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts, std::string &Err) {
  auto Value = [](const std::string &Arg, const char *Name,
                  std::string &Out) {
    std::string Prefix = std::string(Name) + "=";
    if (Arg.rfind(Prefix, 0) != 0)
      return false;
    Out = Arg.substr(Prefix.size());
    return true;
  };
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    // Space-separated form: --cell 'A[i-1]' reads as --cell='A[i-1]'.
    if ((Arg == "--problem" || Arg == "--cell" || Arg == "--loop" ||
         Arg == "--node" || Arg == "--engine") &&
        I + 1 < Argc)
      Arg += "=" + std::string(Argv[++I]);
    unsigned Node = 0;
    if (Arg == "--help" || Arg == "-h") {
      Err = "help";
      return false;
    } else if (Arg == "--version") {
      Err = "version";
      return false;
    } else if (Value(Arg, "--problem", Opts.Problem) ||
               Value(Arg, "--cell", Opts.Cell)) {
      // stored by Value
    } else if (cli::countFlag(Arg, "--node", Node, Err)) {
      if (!Err.empty())
        return false;
      Opts.Node = Node;
    } else if (Arg == "--out") {
      Opts.OutSide = true;
    } else if (Arg == "--json") {
      Opts.Json = true;
    } else if (cli::countFlag(Arg, "--loop", Opts.LoopIndex, Err) ||
               cli::engineFlag(Arg, Opts.Engine, Err) ||
               cli::maxInputBytesFlag(Arg, Opts.MaxInputBytes, Err)) {
      if (!Err.empty())
        return false;
    } else if (!Arg.empty() && Arg[0] == '-') {
      Err = "unknown option '" + Arg + "'";
      return false;
    } else if (Opts.File.empty()) {
      Opts.File = std::move(Arg);
    } else {
      Err = "ardf-explain takes exactly one input file";
      return false;
    }
  }
  if (Opts.File.empty()) {
    Err = "no input file";
    return false;
  }
  if (Opts.Problem.empty()) {
    Err = "--problem is required";
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
      std::cout << toolVersionLine("ardf-explain") << "\n";
      return 0;
    }
    std::cerr << "ardf-explain: error: " << Err << "\n\n";
    return usage(std::cerr, 2);
  }

  ProblemSpec Spec = ProblemSpec::mustReachingDefs();
  if (!resolveProblem(Opts.Problem, Spec)) {
    std::cerr << "ardf-explain: error: unknown problem '" << Opts.Problem
              << "' (expected must-reach, avail, busy, or may-reach)\n";
    return 2;
  }

  std::string Text;
  std::string ReadDetail;
  io::ReadStatus RS =
      io::readInputFile(Opts.File, Text, Opts.MaxInputBytes, &ReadDetail);
  if (RS != io::ReadStatus::Ok) {
    std::cerr << "ardf-explain: error: "
              << io::describeReadError(RS, Opts.File, Opts.MaxInputBytes,
                                       ReadDetail)
              << "\n";
    return 2;
  }
  ParseResult Parsed = parseProgram(Text);
  if (!Parsed.succeeded()) {
    for (const ParseDiagnostic &PD : Parsed.Diags)
      std::cerr << Opts.File << ":" << PD.Line << ":" << PD.Col
                << ": error: " << PD.Message << "\n";
    return 2;
  }

  // Everything past the parse runs inside one fault boundary: a
  // malformed-but-parseable program must degrade to an error message,
  // never a crash (the fuzz torture path drives this tool too).
  try {
    LoopNestTree Nest(Parsed.Prog);
    const NestLoop *Chosen = nullptr;
    unsigned Supported = 0;
    for (const std::unique_ptr<NestLoop> &N : Nest.all()) {
      if (!N->isSupported())
        continue;
      if (Supported++ == Opts.LoopIndex) {
        Chosen = N.get();
        break;
      }
    }
    if (!Chosen) {
      std::cerr << "ardf-explain: error: --loop " << Opts.LoopIndex
                << " out of range; '" << Opts.File << "' has " << Supported
                << " analyzable loop(s)\n";
      return 2;
    }

    LoopAnalysisSession Session(Parsed.Prog, *Chosen->Analyzed);

    // Reference re-solve with recording, then the fast-engine solve it
    // must match bit for bit.
    SolverOptions ProvOpts;
    ProvOpts.RecordProvenance = true;
    const SolveResult &Recorded = Session.solve(Spec, ProvOpts);
    SolverOptions FastOpts;
    FastOpts.Eng = Opts.Engine;
    const SolveResult &Fast = Session.solve(Spec, FastOpts);
    if (!Recorded.ok() || !Recorded.Provenance ||
        Recorded.Provenance->Degraded) {
      std::cerr << "ardf-explain: error: the recording solve degraded ("
                << breachReasonName(Recorded.Breach)
                << "); nothing to explain\n";
      return 1;
    }
    if (Fast.ok() && !(Recorded.In == Fast.In && Recorded.Out == Fast.Out)) {
      std::cerr << "ardf-explain: error: reference re-solve diverged from "
                   "the fast engine on '"
                << Spec.Name << "'; this is an ardf bug\n";
      return 1;
    }
    const SolveProvenance &Prov = *Recorded.Provenance;

    // Resolve the cell by its rendered reference text.
    int Idx = -1;
    for (unsigned T = 0; T != Prov.Tracked.size(); ++T)
      if (Prov.Tracked[T].RefText == Opts.Cell)
        Idx = static_cast<int>(T);
    if (Idx < 0) {
      std::cerr << "ardf-explain: error: "
                << (Opts.Cell.empty() ? "--cell is required"
                                      : "no tracked cell '" + Opts.Cell +
                                            "' in problem '" + Spec.Name +
                                            "'")
                << "; candidates:\n";
      for (const auto &T : Prov.Tracked)
        std::cerr << "  " << T.RefText << "  (" << (T.IsDef ? "def" : "use")
                  << " at " << T.Loc.toString() << ")\n";
      return 2;
    }

    unsigned Node = Opts.Node.value_or(Prov.ExitNode);
    if (Node >= Prov.NumNodes) {
      std::cerr << "ardf-explain: error: --node " << Node
                << " out of range; the flow graph has " << Prov.NumNodes
                << " node(s)\n";
      return 2;
    }

    DerivationGraph G = buildDerivation(Prov, Node,
                                        static_cast<unsigned>(Idx),
                                        !Opts.OutSide);
    printDerivation(std::cout, Prov, G);
    if (Opts.Json)
      std::cout << derivationToJson(Prov, G) << "\n";
    return 0;
  } catch (const std::exception &E) {
    std::cerr << "ardf-explain: error: internal error: " << E.what()
              << "\n";
    return 1;
  } catch (...) {
    std::cerr << "ardf-explain: error: unknown internal error\n";
    return 1;
  }
}

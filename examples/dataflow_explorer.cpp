//===- examples/dataflow_explorer.cpp - CLI analysis driver --------------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
// A command-line driver: reads a loop program from a file (or stdin),
// validates it, and dumps any of the four framework instances, the flow
// graph, dependences, and the transformation results.
//
//   dataflow_explorer [file] [--problem=reach|avail|busy|refs]
//                     [--dot] [--deps] [--optimize]
//
//===----------------------------------------------------------------------===//

#include "analysis/Dependence.h"
#include "analysis/LoopDataFlow.h"
#include "driver/ProgramAnalysisDriver.h"
#include "frontend/Parser.h"
#include "ir/PrettyPrinter.h"
#include "passes/LoopNormalize.h"
#include "passes/Validate.h"
#include "transform/LoadElimination.h"
#include "transform/StoreElimination.h"

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

using namespace ardf;

namespace {

ProblemSpec specFor(const std::string &Name) {
  if (Name == "avail")
    return ProblemSpec::availableValues();
  if (Name == "busy")
    return ProblemSpec::busyStores();
  if (Name == "refs")
    return ProblemSpec::reachingReferences();
  return ProblemSpec::mustReachingDefs();
}

void dumpSolution(LoopAnalysisSession &Session, const ProblemSpec &Spec) {
  const SolveResult &Result = Session.solve(Spec);
  const LoopFlowGraph &Graph = Session.graph();

  std::cout << "Problem: " << Spec.Name << "  tuple "
            << Session.instance(Spec).tupleHeader() << '\n';
  for (unsigned Id : Graph.reversePostorder()) {
    unsigned Num = Graph.getNode(Id).StmtNumber;
    std::cout << "  " << (Num ? std::to_string(Num) : std::string("-"))
              << ": IN " << tupleToString(Result.In[Id]) << "  OUT "
              << tupleToString(Result.Out[Id]) << "   ("
              << Graph.nodeLabel(Id) << ")\n";
  }
  std::cout << "  solved in " << Result.NodeVisits << " node visits\n\n";
}

} // namespace

int main(int Argc, char **Argv) {
  std::string File;
  std::string Problem = "reach";
  bool Dot = false, Deps = false, Optimize = false;
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--problem=", 0) == 0)
      Problem = Arg.substr(10);
    else if (Arg == "--dot")
      Dot = true;
    else if (Arg == "--deps")
      Deps = true;
    else if (Arg == "--optimize")
      Optimize = true;
    else
      File = Arg;
  }

  std::ostringstream Buffer;
  if (File.empty()) {
    Buffer << std::cin.rdbuf();
  } else {
    std::ifstream In(File);
    if (!In) {
      std::cerr << "error: cannot open " << File << '\n';
      return 1;
    }
    Buffer << In.rdbuf();
  }

  ParseResult Parsed = parseProgram(Buffer.str());
  if (!Parsed.succeeded()) {
    std::cerr << "parse errors:\n" << Parsed.diagnosticsToString();
    return 1;
  }

  NormalizeResult Normalized = normalizeLoops(Parsed.Prog);
  if (Normalized.LoopsNormalized)
    std::cout << "(normalized " << Normalized.LoopsNormalized
              << " loop(s) first)\n";
  const Program &P = Normalized.Transformed;

  for (const ValidationIssue &Issue : validateForAnalysis(P))
    std::cout << (Issue.Severity == IssueSeverity::Error ? "error: "
                                                         : "warning: ")
              << Issue.Message << '\n';

  // Hierarchical order: innermost loops first (Section 3.2). Loops come
  // from the nesting tree, so counted whiles are reduced to DO form and
  // rejected loops (early exits, uncounted whiles) are reported, not
  // silently skipped.
  const ProblemSpec Spec = specFor(Problem);
  DriverOptions Opts;
  Opts.Problems = {Spec};
  ProgramAnalysisDriver Driver(P, Opts);
  Driver.nest().forEach([](const NestLoop &N) {
    if (!N.isSupported())
      std::cout << "warning: loop at nest path '" << N.path()
                << "' not analyzed: " << N.UnsupportedReason << '\n';
  });
  Driver.run();
  for (const AnalyzedLoop &R : Driver.loops()) {
    if (!R.Session)
      continue; // unsupported (reported above) or failed to build
    std::cout << "\n== loop over '" << R.Loop->getIndVar() << "' (depth "
              << R.Depth << ") ==\n";
    if (Dot)
      R.Session->graph().printDot(std::cout);
    dumpSolution(*R.Session, Spec);
    if (Deps) {
      LoopDataFlow DF(P, *R.Loop, ProblemSpec::reachingReferences());
      printDependences(std::cout, extractDependences(DF), DF);
    }
  }

  if (Optimize) {
    StoreElimResult SR = eliminateRedundantStores(P);
    LoadElimResult LR = eliminateRedundantLoads(SR.Transformed);
    std::cout << "\n== optimized (" << SR.StoresEliminated
              << " stores, " << LR.LoadsEliminated
              << " loads eliminated) ==\n"
              << programToString(LR.Transformed);
  }
  return 0;
}

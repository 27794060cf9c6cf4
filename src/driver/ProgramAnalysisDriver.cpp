//===- driver/ProgramAnalysisDriver.cpp - Batched program driver ---------===//

#include "driver/ProgramAnalysisDriver.h"

#include "driver/WorkerPool.h"
#include "support/Deadline.h"
#include "support/FailPoint.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <memory>

using namespace ardf;

std::vector<ProblemSpec> ardf::paperProblems() {
  return {ProblemSpec::mustReachingDefs(), ProblemSpec::availableValues(),
          ProblemSpec::busyStores(), ProblemSpec::reachingReferences()};
}

ProgramAnalysisDriver::ProgramAnalysisDriver(const Program &P,
                                             DriverOptions Opts)
    : Prog(&P), Opts(std::move(Opts)) {
  if (this->Opts.Problems.empty())
    this->Opts.Problems = paperProblems();
  NestTrees.push_back(std::make_shared<const LoopNestTree>(P));
  collectFromNest();
}

void ProgramAnalysisDriver::collectFromNest() {
  // One record per nest node (source pre-order from the tree), analyzed
  // innermost first like the hierarchical process of Section 3.6.
  // Supported loops carry their reduced form; rejected loops carry the
  // recognizer's reason and are never handed to a session.
  for (const std::unique_ptr<NestLoop> &Node : nest().all()) {
    if (Node->Depth > 0 && !Opts.IncludeNested)
      continue;
    AnalyzedLoop R;
    R.Loop = Node->Analyzed;
    R.Source = Node->Source;
    R.Depth = Node->Depth;
    R.NestPath = Node->path();
    R.UnsupportedReason = Node->UnsupportedReason;
    Loops.push_back(std::move(R));
  }
  std::stable_sort(Loops.begin(), Loops.end(),
                   [](const AnalyzedLoop &A, const AnalyzedLoop &B) {
                     return A.Depth > B.Depth;
                   });
}

void ProgramAnalysisDriver::analyzeLoop(AnalyzedLoop &R) const {
  // Writes only into R, R.Session, and the worker's own telemetry
  // context: see the thread-safety invariant in the header. Every
  // throwing phase runs inside a catch-all fault boundary, so one bad
  // loop degrades to a LoopFailure record and the batch -- and the
  // worker pool above it -- always completes.
  if (!R.Loop)
    return; // unsupported: recorded, nothing to solve
  telem::Span S("loop", "driver");
  telem::LatencyTimer LT(telem::Histo::DriverLoopNs);
  S.arg("depth", R.Depth);
  auto Fail = [&R](std::string Phase, std::string Message) {
    R.Status = SolveOutcome::Failed;
    R.Failures.push_back(
        LoopFailure{std::move(Phase), std::move(Message)});
    telem::count(telem::Counter::LoopFailures);
  };
  if (deadline::passed()) {
    Fail("deadline", "the request deadline passed before the loop");
    return;
  }
  try {
    failpoint::evaluate("driver.loop");
    R.Session = std::make_unique<LoopAnalysisSession>(*Prog, *R.Loop);
  } catch (const std::exception &E) {
    Fail("session", E.what());
    return;
  } catch (...) {
    Fail("session", "unknown exception");
    return;
  }
  for (const ProblemSpec &Spec : Opts.Problems) {
    try {
      const SolveResult &Res = R.Session->solve(Spec, Opts.Solver);
      R.NodeVisits += Res.NodeVisits;
      if (Res.Outcome != SolveOutcome::Ok &&
          R.Status == SolveOutcome::Ok) {
        R.Status = SolveOutcome::Degraded;
        R.Breach = Res.Breach;
      }
    } catch (const std::exception &E) {
      Fail(std::string("solve:") + Spec.Name, E.what());
    } catch (...) {
      Fail(std::string("solve:") + Spec.Name, "unknown exception");
    }
  }
  S.arg("node_visits", R.NodeVisits);
  telem::count(telem::Counter::DriverLoops);
}

void ProgramAnalysisDriver::run() {
  if (Ran)
    return;
  Ran = true;
  std::vector<AnalyzedLoop *> Work;
  Work.reserve(Loops.size());
  for (AnalyzedLoop &R : Loops)
    Work.push_back(&R);
  analyzeAll(Work);
}

void ProgramAnalysisDriver::analyzeAll(
    const std::vector<AnalyzedLoop *> &Work) {
  runWorkItems(Work.size(), Opts.Threads,
               [&](size_t I) { analyzeLoop(*Work[I]); });
}

DriverRerun ProgramAnalysisDriver::rerun(const Program &NewProgram) {
  run();

  // Array declarations parameterize reference linearization, so a
  // record may only be carried over when every declaration is
  // unchanged; otherwise the whole batch re-analyzes.
  bool DeclsEqual = [&] {
    const std::vector<ArrayDecl> &A = Prog->arrayDecls();
    const std::vector<ArrayDecl> &B = NewProgram.arrayDecls();
    if (A.size() != B.size())
      return false;
    for (size_t I = 0; I != A.size(); ++I) {
      if (A[I].Name != B[I].Name ||
          A[I].DimSizes.size() != B[I].DimSizes.size())
        return false;
      for (size_t D = 0; D != A[I].DimSizes.size(); ++D)
        if (!A[I].DimSizes[D]->equals(*B[I].DimSizes[D]))
          return false;
    }
    return true;
  }();

  std::vector<AnalyzedLoop> Old;
  Old.swap(Loops);
  Prog = &NewProgram;
  NestTrees.push_back(std::make_shared<const LoopNestTree>(NewProgram));
  collectFromNest();

  // Greedy structural match on the SOURCE statements (so while loops
  // diff correctly too): each new loop takes the first untaken old
  // record that analyzed cleanly and is textually identical at the same
  // depth. Failed or never-built records are not worth carrying -- a
  // fresh analysis is the only way they make progress. Unsupported new
  // loops never analyze, so they neither reuse nor reanalyze.
  DriverRerun Out;
  std::vector<bool> Taken(Old.size(), false);
  std::vector<AnalyzedLoop *> Pending;
  for (AnalyzedLoop &R : Loops) {
    if (!R.Loop)
      continue;
    const DoLoopStmt *NewLoop = R.Loop;
    const Stmt *NewSource = R.Source;
    std::string NewPath = R.NestPath;
    bool Matched = false;
    if (DeclsEqual)
      for (size_t I = 0; I != Old.size() && !Matched; ++I) {
        AnalyzedLoop &O = Old[I];
        if (Taken[I] || !O.Session || O.Status == SolveOutcome::Failed ||
            O.Depth != R.Depth || !O.Source->equals(*NewSource))
          continue;
        Taken[I] = true;
        R = std::move(O);
        R.Loop = NewLoop;
        R.Source = NewSource;
        R.NestPath = std::move(NewPath);
        Matched = true;
      }
    if (Matched) {
      ++Out.Reused;
    } else {
      ++Out.Reanalyzed;
      Pending.push_back(&R);
    }
  }
  analyzeAll(Pending);
  return Out;
}

unsigned ProgramAnalysisDriver::totalNodeVisits() const {
  unsigned Total = 0;
  for (const AnalyzedLoop &R : Loops)
    Total += R.NodeVisits;
  return Total;
}

DriverReport ProgramAnalysisDriver::report() const {
  DriverReport Rep;
  for (const AnalyzedLoop &R : Loops) {
    if (!R.Loop) {
      ++Rep.Unsupported;
      continue;
    }
    switch (R.Status) {
    case SolveOutcome::Ok:
      ++Rep.Ok;
      break;
    case SolveOutcome::Degraded:
      ++Rep.Degraded;
      break;
    case SolveOutcome::Failed:
      ++Rep.Failed;
      break;
    }
  }
  return Rep;
}

//===- tests/dataflow/CostBoundTest.cpp - Paper cost-bound regression ----===//
//
// The paper's central practicality claim, held as a regression test:
// under the fixed two-pass schedule (Theorems 1 and 2), a must-problem
// solve visits exactly 3N nodes (one initialization pass plus two
// iteration passes over the N-node flow graph) and a may-problem solve
// exactly 2N (its initialization writes constants without visiting
// nodes). Both engines are measured over a randomized corpus plus the
// bundled shapes, and the Reference engine's IterateToFixpoint is
// checked against the schedule: it can save at most the counted
// initialization pass, never more.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "dataflow/Framework.h"
#include "frontend/Parser.h"

#include <gtest/gtest.h>

#include <string>

using namespace ardf;

namespace {

ProblemSpec mustSpecs[] = {
    ProblemSpec::mustReachingDefs(),
    ProblemSpec::availableValues(),
    ProblemSpec::busyStores(),
};

ProblemSpec maySpecs[] = {
    ProblemSpec::reachingReferences(),
};

struct Solved {
  unsigned NumNodes = 0;
  SolveResult Result;
};

Solved solveFirstLoop(const std::string &Source, const ProblemSpec &Spec,
                      SolverOptions Opts) {
  Program P = parseOrDie(Source);
  const DoLoopStmt *Loop = P.getFirstLoop();
  EXPECT_NE(Loop, nullptr) << Source;
  LoopFlowGraph Graph(*Loop);
  FrameworkInstance FW(Graph, P, Spec);
  Solved S;
  S.NumNodes = Graph.getNumNodes();
  S.Result = solveDataFlow(FW, Opts);
  return S;
}

/// PaperSchedule must hit the bound exactly -- not "at most": the
/// schedule is fixed, so any deviation means the accounting (or the
/// pass loop) changed.
void expectExactBound(const std::string &Source, SolverOptions Opts) {
  for (const ProblemSpec &Spec : mustSpecs) {
    Solved S = solveFirstLoop(Source, Spec, Opts);
    EXPECT_EQ(S.Result.NodeVisits, 3 * S.NumNodes)
        << Spec.Name << " on: " << Source;
    EXPECT_EQ(S.Result.Passes, 2u) << Spec.Name;
  }
  for (const ProblemSpec &Spec : maySpecs) {
    Solved S = solveFirstLoop(Source, Spec, Opts);
    EXPECT_EQ(S.Result.NodeVisits, 2 * S.NumNodes)
        << Spec.Name << " on: " << Source;
    EXPECT_EQ(S.Result.Passes, 2u) << Spec.Name;
  }
}

/// IterateToFixpoint runs the same passes with change tracking plus one
/// confirming pass, but its initialization is identical -- so it can
/// undercut the schedule by at most the init pass's N visits (a must
/// problem converging after one iteration pass), and must always
/// converge on these single-loop graphs.
void expectFixpointWithinInitOfSchedule(const std::string &Source) {
  SolverOptions Fixp;
  Fixp.Strat = SolverOptions::Strategy::IterateToFixpoint;
  auto CheckOne = [&](const ProblemSpec &Spec) {
    Solved Paper = solveFirstLoop(Source, Spec, SolverOptions());
    Solved Fix = solveFirstLoop(Source, Spec, Fixp);
    EXPECT_TRUE(Fix.Result.Converged) << Spec.Name << " on: " << Source;
    EXPECT_GE(Fix.Result.NodeVisits + Fix.NumNodes, Paper.Result.NodeVisits)
        << Spec.Name << " on: " << Source;
  };
  for (const ProblemSpec &Spec : mustSpecs)
    CheckOne(Spec);
  for (const ProblemSpec &Spec : maySpecs)
    CheckOne(Spec);
}

std::string corpusLoop(unsigned Stmts, int Cond, uint64_t Seed) {
  return ardfbench::makeSyntheticLoop(Stmts, 4, Cond,
                                      Seed * 7919 + Stmts * 31 + Cond, 1000);
}

} // namespace

TEST(CostBoundTest, ReferenceEngineMeetsBoundExactly) {
  for (unsigned Stmts : {4u, 9u, 17u, 33u})
    for (int Cond : {0, 25, 60})
      for (uint64_t Seed : {1u, 2u, 3u})
        expectExactBound(corpusLoop(Stmts, Cond, Seed), SolverOptions());
}

TEST(CostBoundTest, PackedEngineMeetsBoundExactly) {
  SolverOptions Opts;
  Opts.Eng = SolverOptions::Engine::PackedKernel;
  for (unsigned Stmts : {4u, 9u, 17u, 33u})
    for (int Cond : {0, 25, 60})
      for (uint64_t Seed : {1u, 2u, 3u})
        expectExactBound(corpusLoop(Stmts, Cond, Seed), Opts);
}

TEST(CostBoundTest, FixpointNeverBeatsScheduleByMoreThanInit) {
  for (unsigned Stmts : {4u, 17u})
    for (int Cond : {0, 60})
      for (uint64_t Seed : {1u, 2u})
        expectFixpointWithinInitOfSchedule(corpusLoop(Stmts, Cond, Seed));
}

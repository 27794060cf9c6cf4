//===- tests/dataflow/SolverTest.cpp - Solver strategies ------------------===//

#include "dataflow/Framework.h"
#include "frontend/Parser.h"

#include <gtest/gtest.h>

using namespace ardf;

namespace {

const char *Corpus[] = {
    "do i = 1, 100 { A[i+2] = A[i] + X; }",
    "do i = 1, 1000 { A[i] = i; if (A[i] > 0) { A[i+1] = 99; } }",
    "do i = 1, 50 { if (B[i] > 0) { A[i+1] = B[i]; } else { A[i+1] = 0; } "
    "C[i] = A[i] + B[i-2]; }",
    "do i = 1, 10 { A[i] = B[i] + B[i-1]; B[i+3] = A[i-1]; "
    "if (A[i-2] > 5) { B[i] = 0; } }",
};

ProblemSpec Specs[] = {
    ProblemSpec::mustReachingDefs(),
    ProblemSpec::availableValues(),
    ProblemSpec::busyStores(),
    ProblemSpec::reachingReferences(),
};

struct Built {
  Program Prog;
  std::unique_ptr<LoopFlowGraph> Graph;
  std::unique_ptr<FrameworkInstance> FW;
};

Built build(const char *Source, ProblemSpec Spec) {
  Built B{parseOrDie(Source), nullptr, nullptr};
  const DoLoopStmt *Loop = B.Prog.getFirstLoop();
  EXPECT_NE(Loop, nullptr);
  B.Graph = std::make_unique<LoopFlowGraph>(*Loop);
  B.FW = std::make_unique<FrameworkInstance>(*B.Graph, B.Prog, Spec);
  return B;
}

} // namespace

TEST(SolverTest, NonConvergenceIsReported) {
  // The loop-carried reuse needs the exit increment to wrap around the
  // back edge, so the first iterate pass after initialization always
  // changes values; a budget of one pass cannot confirm stability.
  Built B = build(Corpus[0], ProblemSpec::mustReachingDefs());
  SolverOptions Opts;
  Opts.Strat = SolverOptions::Strategy::IterateToFixpoint;
  Opts.MaxPasses = 1;
  SolveResult R = solveDataFlow(*B.FW, Opts);
  EXPECT_FALSE(R.Converged);
  EXPECT_EQ(R.Passes, 1u);
}

TEST(SolverTest, FixpointWithBudgetMatchesPaperSchedule) {
  for (const char *Source : Corpus)
    for (const ProblemSpec &Spec : Specs) {
      Built B = build(Source, Spec);
      SolveResult Paper = solveDataFlow(*B.FW);
      SolverOptions Opts;
      Opts.Strat = SolverOptions::Strategy::IterateToFixpoint;
      SolveResult Fix = solveDataFlow(*B.FW, Opts);
      EXPECT_TRUE(Fix.Converged) << Source << " / " << Spec.Name;
      EXPECT_EQ(Fix.In, Paper.In) << Source << " / " << Spec.Name;
      EXPECT_EQ(Fix.Out, Paper.Out) << Source << " / " << Spec.Name;
    }
}

//===- tests/dataflow/BudgetTest.cpp - Resource-governed solves ----------===//
//
// SolverBudget behavior on both engines: a breached ceiling (node
// visits, matrix cells, injected fault, non-convergence) must produce a
// degraded-but-sound result -- every cell at the conservative fill --
// tagged with the outcome and reason, identically across engines, and
// session caches must never serve a result computed under a different
// budget.
//
//===----------------------------------------------------------------------===//

#include "analysis/LoopAnalysisSession.h"
#include "frontend/Parser.h"
#include "support/Deadline.h"
#include "support/FailPoint.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <limits>

using namespace ardf;

namespace {

const char *Fig1 = "array A[100]; array B[200]; array C[102];\n"
                   "do i = 1, 100 {\n"
                   "  C[i+2] = C[i] * 2;\n"
                   "  B[2*i] = C[i] + X;\n"
                   "  if (C[i] == 0) { C[i] = B[i-1]; }\n"
                   "  B[i] = C[i+1];\n"
                   "}\n";

/// Solves \p Spec on Fig1 under \p Opts with the given engine.
SolveResult solveFig1(const ProblemSpec &Spec, SolverOptions Opts,
                      SolverOptions::Engine Eng) {
  Program P = parseOrDie(Fig1);
  LoopFlowGraph Graph(*P.getFirstLoop());
  FrameworkInstance FW(Graph, P, Spec);
  Opts.Eng = Eng;
  return solveDataFlow(FW, Opts);
}

/// Every cell of both matrices holds the conservative fill of the
/// problem: NoInstance for must, AllInstances for may.
void expectConservativeFill(const SolveResult &R, bool IsMust) {
  DistanceValue Fill =
      IsMust ? DistanceValue::noInstance() : DistanceValue::allInstances();
  ASSERT_FALSE(R.In.empty());
  for (unsigned N = 0; N != R.In.numNodes(); ++N)
    for (unsigned T = 0; T != R.In.numTracked(); ++T) {
      EXPECT_EQ(R.In[N][T], Fill) << "IN " << N << "," << T;
      EXPECT_EQ(R.Out[N][T], Fill) << "OUT " << N << "," << T;
    }
}

class BudgetTest : public ::testing::Test {
protected:
  void SetUp() override { failpoint::disarmAll(); }
  void TearDown() override { failpoint::disarmAll(); }
};

} // namespace

TEST_F(BudgetTest, DisabledBudgetChangesNothing) {
  SolverOptions Plain;
  SolverOptions Budgeted;
  Budgeted.Budget.VisitSlack = 1.0; // exactly the paper bound
  for (SolverOptions::Engine Eng :
       {SolverOptions::Engine::Reference,
        SolverOptions::Engine::PackedKernel})
    for (const ProblemSpec &Spec :
         {ProblemSpec::mustReachingDefs(), ProblemSpec::reachingReferences()}) {
      SolveResult A = solveFig1(Spec, Plain, Eng);
      SolveResult B = solveFig1(Spec, Budgeted, Eng);
      EXPECT_EQ(A.Outcome, SolveOutcome::Ok);
      EXPECT_EQ(B.Outcome, SolveOutcome::Ok);
      EXPECT_EQ(B.Breach, BreachReason::None);
      EXPECT_EQ(A.In, B.In) << Spec.Name;
      EXPECT_EQ(A.Out, B.Out) << Spec.Name;
      EXPECT_EQ(A.NodeVisits, B.NodeVisits) << Spec.Name;
    }
}

TEST_F(BudgetTest, VisitCapBreachDegradesBothEnginesIdentically) {
  SolverOptions Opts;
  Opts.Budget.MaxNodeVisits = 1; // breached right after initialization
  for (const ProblemSpec &Spec :
       {ProblemSpec::mustReachingDefs(), ProblemSpec::availableValues(),
        ProblemSpec::busyStores(), ProblemSpec::reachingReferences()}) {
    SolveResult Ref =
        solveFig1(Spec, Opts, SolverOptions::Engine::Reference);
    SolveResult Kern =
        solveFig1(Spec, Opts, SolverOptions::Engine::PackedKernel);
    for (const SolveResult *R : {&Ref, &Kern}) {
      EXPECT_EQ(R->Outcome, SolveOutcome::Degraded) << Spec.Name;
      EXPECT_EQ(R->Breach, BreachReason::NodeVisits) << Spec.Name;
      EXPECT_FALSE(R->ok());
      expectConservativeFill(*R, Spec.isMust());
    }
    EXPECT_EQ(Ref.In, Kern.In) << Spec.Name;
    EXPECT_EQ(Ref.Out, Kern.Out) << Spec.Name;
  }
}

TEST_F(BudgetTest, TightSlackDegradesUndersizedSchedule) {
  // Half the paper's visit budget cannot finish the schedule.
  SolverOptions Opts;
  Opts.Budget.VisitSlack = 0.5;
  SolveResult R = solveFig1(ProblemSpec::mustReachingDefs(), Opts,
                            SolverOptions::Engine::Reference);
  EXPECT_EQ(R.Outcome, SolveOutcome::Degraded);
  EXPECT_EQ(R.Breach, BreachReason::NodeVisits);
  expectConservativeFill(R, /*IsMust=*/true);
}

TEST_F(BudgetTest, HugeSlackCapsAtTheLargestCount) {
  // A slack whose visit cap lies past every uint64_t count admits the
  // whole schedule, as no slack does; an absolute cap still wins.
  for (double Slack : {1e300, std::numeric_limits<double>::infinity()})
    for (SolverOptions::Engine Eng :
         {SolverOptions::Engine::Reference,
          SolverOptions::Engine::PackedKernel}) {
      SolverOptions Huge;
      Huge.Budget.VisitSlack = Slack;
      SolveResult Plain =
          solveFig1(ProblemSpec::mustReachingDefs(), SolverOptions(), Eng);
      SolveResult R = solveFig1(ProblemSpec::mustReachingDefs(), Huge, Eng);
      EXPECT_EQ(R.Outcome, SolveOutcome::Ok) << Slack;
      EXPECT_EQ(R.In, Plain.In) << Slack;
      EXPECT_EQ(R.NodeVisits, Plain.NodeVisits) << Slack;
      Huge.Budget.MaxNodeVisits = 1;
      SolveResult Capped =
          solveFig1(ProblemSpec::mustReachingDefs(), Huge, Eng);
      EXPECT_EQ(Capped.Outcome, SolveOutcome::Degraded) << Slack;
      EXPECT_EQ(Capped.Breach, BreachReason::NodeVisits) << Slack;
    }
}

TEST_F(BudgetTest, MatrixCellCapDegradesWithoutSolving) {
  SolverOptions Opts;
  Opts.Budget.MaxMatrixCells = 2; // Fig1 needs far more
  for (SolverOptions::Engine Eng :
       {SolverOptions::Engine::Reference,
        SolverOptions::Engine::PackedKernel}) {
    SolveResult R = solveFig1(ProblemSpec::availableValues(), Opts, Eng);
    EXPECT_EQ(R.Outcome, SolveOutcome::Degraded);
    EXPECT_EQ(R.Breach, BreachReason::MatrixCells);
    // The result matrices are still fully shaped and filled: the API
    // stays total even when the solve itself was refused.
    expectConservativeFill(R, /*IsMust=*/true);
  }
}

TEST_F(BudgetTest, InjectedPassBreachDegradesBothEnginesIdentically) {
  for (SolverOptions::Engine Eng :
       {SolverOptions::Engine::Reference,
        SolverOptions::Engine::PackedKernel}) {
    failpoint::ScopedFailPoint FP("solver.pass", failpoint::Action::Breach,
                                  /*FireAt=*/2);
    SolveResult R =
        solveFig1(ProblemSpec::reachingReferences(), SolverOptions(), Eng);
    EXPECT_EQ(R.Outcome, SolveOutcome::Degraded);
    EXPECT_EQ(R.Breach, BreachReason::FaultInjected);
    expectConservativeFill(R, /*IsMust=*/false);
  }
}

TEST_F(BudgetTest, StalledPassMissesDeadline) {
  // A 25ms stall at the pass boundary against a 1ms deadline: the next
  // budget check deterministically reports Deadline.
  SolverOptions Opts;
  Opts.Budget.DeadlineNs = 1000000; // 1ms
  failpoint::ScopedFailPoint FP("solver.pass", failpoint::Action::Stall,
                                /*FireAt=*/1, /*StallMs=*/25);
  SolveResult R = solveFig1(ProblemSpec::mustReachingDefs(), Opts,
                            SolverOptions::Engine::Reference);
  EXPECT_EQ(R.Outcome, SolveOutcome::Degraded);
  EXPECT_EQ(R.Breach, BreachReason::Deadline);
  expectConservativeFill(R, /*IsMust=*/true);
}

TEST_F(BudgetTest, PassedRequestDeadlineDegradesBothEngines) {
  // The running request's deadline (support/Deadline.h) stops even an
  // unbudgeted solve at its first pass boundary once it has passed; a
  // deadline still ahead changes nothing.
  for (SolverOptions::Engine Eng :
       {SolverOptions::Engine::Reference,
        SolverOptions::Engine::PackedKernel}) {
    SolveResult Plain =
        solveFig1(ProblemSpec::reachingReferences(), SolverOptions(), Eng);
    {
      deadline::Scope Past(1); // 1 ns after the steady clock's epoch
      SolveResult R =
          solveFig1(ProblemSpec::reachingReferences(), SolverOptions(), Eng);
      EXPECT_EQ(R.Outcome, SolveOutcome::Degraded);
      EXPECT_EQ(R.Breach, BreachReason::Deadline);
      expectConservativeFill(R, /*IsMust=*/false);
    }
    deadline::Scope Ahead(deadline::afterMs(60000));
    SolveResult R =
        solveFig1(ProblemSpec::reachingReferences(), SolverOptions(), Eng);
    EXPECT_EQ(R.Outcome, SolveOutcome::Ok);
    EXPECT_EQ(R.Out, Plain.Out);
  }
}

TEST_F(BudgetTest, FixpointExhaustionIsDegradedNonConvergence) {
  // Satellite: SolveResult::Converged surfaced end to end. One pass is
  // never enough in fixpoint mode, and both engines must agree.
  SolverOptions Opts;
  Opts.Strat = SolverOptions::Strategy::IterateToFixpoint;
  Opts.MaxPasses = 1;
  for (SolverOptions::Engine Eng :
       {SolverOptions::Engine::Reference,
        SolverOptions::Engine::PackedKernel}) {
    SolveResult R = solveFig1(ProblemSpec::availableValues(), Opts, Eng);
    EXPECT_FALSE(R.Converged);
    EXPECT_EQ(R.Outcome, SolveOutcome::Degraded);
    EXPECT_EQ(R.Breach, BreachReason::NonConvergence);
  }
}

TEST_F(BudgetTest, SessionCacheIsKeyedByBudget) {
  Program P = parseOrDie(Fig1);
  LoopAnalysisSession Session(P, *P.getFirstLoop());

  SolverOptions Plain;
  SolverOptions Tight;
  Tight.Budget.MaxNodeVisits = 1;

  const SolveResult &Exact =
      Session.solve(ProblemSpec::mustReachingDefs(), Plain);
  EXPECT_EQ(Exact.Outcome, SolveOutcome::Ok);
  DistanceMatrix ExactIn = Exact.In;

  // The budgeted solve must not be served from the unbudgeted cache.
  const SolveResult &Degraded =
      Session.solve(ProblemSpec::mustReachingDefs(), Tight);
  EXPECT_EQ(Degraded.Outcome, SolveOutcome::Degraded);
  EXPECT_NE(Degraded.In, ExactIn);

  // And asking again without a budget returns the exact result.
  const SolveResult &Again =
      Session.solve(ProblemSpec::mustReachingDefs(), Plain);
  EXPECT_EQ(Again.Outcome, SolveOutcome::Ok);
  EXPECT_EQ(Again.In, ExactIn);
}

TEST_F(BudgetTest, TelemetryCountsBreachesAndExcludesDegradedFromBounds) {
  telem::Telemetry T;
  {
    telem::TelemetryScope Scope(T);
    SolverOptions Tight;
    Tight.Budget.MaxNodeVisits = 1;
    solveFig1(ProblemSpec::mustReachingDefs(), Tight,
              SolverOptions::Engine::Reference);
    solveFig1(ProblemSpec::mustReachingDefs(), SolverOptions(),
              SolverOptions::Engine::Reference);
  }
  EXPECT_EQ(T.get(telem::Counter::DegradedSolves), 1u);
  EXPECT_EQ(T.get(telem::Counter::BudgetBreaches), 1u);
  // The 3N bound-equality invariant stays exact because degraded solves
  // are excluded from the must-visit counters.
  EXPECT_EQ(T.get(telem::Counter::MustNodeVisits),
            T.get(telem::Counter::MustVisitBound));
}

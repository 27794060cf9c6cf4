//===- tests/lint/LintDegradeTest.cpp - Graceful check degradation -------===//
//
// The lint engine under budgets and injected faults: a check whose
// backing solve degrades is skipped with an explicit analysis-degraded
// diagnostic (never findings derived from the conservative fill), a
// throwing check is isolated to itself, and degraded solves are not
// misreported as engine divergence.
//
//===----------------------------------------------------------------------===//

#include "lint/Checks.h"
#include "lint/LintEngine.h"
#include "support/FailPoint.h"

#include <gtest/gtest.h>

using namespace ardf;

namespace {

const char *Fig1 = "array A[100]; array B[200]; array C[102];\n"
                   "do i = 1, 100 {\n"
                   "  C[i+2] = C[i] * 2;\n"
                   "  B[2*i] = C[i] + X;\n"
                   "  if (C[i] == 0) { C[i] = B[i-1]; }\n"
                   "  B[i] = C[i+1];\n"
                   "}\n";

unsigned countCheckId(const LintResult &R, const char *Id) {
  unsigned N = 0;
  for (const Diagnostic &D : R.Diags)
    N += D.CheckId == Id;
  return N;
}

class LintDegradeTest : public ::testing::Test {
protected:
  void SetUp() override { failpoint::disarmAll(); }
  void TearDown() override { failpoint::disarmAll(); }
};

} // namespace

TEST_F(LintDegradeTest, CleanRunHasNoDegradedChecks) {
  LintResult R = lintSource(Fig1, "fig1.arf");
  EXPECT_EQ(R.ChecksDegraded, 0u);
  EXPECT_EQ(countCheckId(R, checkid::AnalysisDegraded), 0u);
  EXPECT_EQ(R.EngineDivergences, 0u);
  EXPECT_GT(countCheckId(R, checkid::RedundantLoad), 0u);
}

TEST_F(LintDegradeTest, BudgetBreachSkipsEveryFrameworkCheck) {
  LintOptions Opts;
  Opts.Budget.MaxNodeVisits = 1;
  LintResult R = lintSource(Fig1, "fig1.arf");
  LintResult Tight = lintSource(Fig1, "fig1.arf", Opts);

  // Every framework check is skipped with its own diagnostic; none of
  // the clean run's findings survive (they would be derived from the
  // conservative fill).
  EXPECT_GE(Tight.ChecksDegraded, 4u);
  EXPECT_EQ(countCheckId(Tight, checkid::AnalysisDegraded),
            Tight.ChecksDegraded);
  EXPECT_EQ(countCheckId(Tight, checkid::RedundantLoad), 0u);
  EXPECT_EQ(countCheckId(Tight, checkid::DeadStore), 0u);
  EXPECT_EQ(countCheckId(Tight, checkid::LoopCarriedReuse), 0u);
  EXPECT_EQ(countCheckId(Tight, checkid::CrossIterationConflict), 0u);

  // Degraded solves must not be misreported as engine divergence.
  EXPECT_EQ(Tight.EngineDivergences, 0u);
  EXPECT_EQ(countCheckId(Tight, checkid::EngineDivergence), 0u);
  EXPECT_FALSE(Tight.hasErrors());

  // The degraded diagnostics point at the loop and name the reason.
  bool Found = false;
  for (const Diagnostic &D : Tight.Diags)
    if (D.CheckId == checkid::AnalysisDegraded) {
      Found = true;
      EXPECT_EQ(D.Severity, DiagSeverity::Warning);
      EXPECT_NE(D.message().find("node-visits"), std::string::npos)
          << D.message();
    }
  EXPECT_TRUE(Found);
  (void)R;
}

TEST_F(LintDegradeTest, SingleSolveBreachSkipsOnlyThatCheck) {
  LintOptions Opts;
  Opts.CrossCheck = false;
  // The first backing solve (redundant-load's delta-available problem)
  // breaches at its first pass boundary; every later solve is exact.
  failpoint::ScopedFailPoint FP("solver.pass", failpoint::Action::Breach,
                                /*FireAt=*/1);
  LintResult R = lintSource(Fig1, "fig1.arf", Opts);

  EXPECT_EQ(R.ChecksDegraded, 1u);
  ASSERT_EQ(countCheckId(R, checkid::AnalysisDegraded), 1u);
  for (const Diagnostic &D : R.Diags)
    if (D.CheckId == checkid::AnalysisDegraded) {
      EXPECT_NE(D.message().find("redundant-load"), std::string::npos)
          << D.message();
      EXPECT_NE(D.message().find("fault-injected"), std::string::npos)
          << D.message();
    }
  EXPECT_EQ(countCheckId(R, checkid::RedundantLoad), 0u);
  // The loop's other checks still ran and found their usual issues.
  EXPECT_GT(countCheckId(R, checkid::CrossIterationConflict), 0u);
  EXPECT_GT(countCheckId(R, checkid::LoopCarriedReuse), 0u);
}

TEST_F(LintDegradeTest, ThrowingCheckIsIsolated) {
  LintOptions Opts;
  Opts.CrossCheck = false;
  // The second check (dead-store) throws at entry; the other three
  // checks of the loop still run.
  failpoint::ScopedFailPoint FP("lint.check", failpoint::Action::Throw,
                                /*FireAt=*/2);
  LintResult R = lintSource(Fig1, "fig1.arf", Opts);

  EXPECT_EQ(R.LoopsAnalyzed, 1u);
  EXPECT_EQ(R.ChecksDegraded, 1u);
  bool Found = false;
  for (const Diagnostic &D : R.Diags)
    if (D.CheckId == checkid::AnalysisDegraded) {
      Found = true;
      EXPECT_NE(D.message().find("dead-store"), std::string::npos);
      EXPECT_NE(D.message().find("aborted"), std::string::npos);
    }
  EXPECT_TRUE(Found);
  EXPECT_GT(countCheckId(R, checkid::RedundantLoad), 0u);
  EXPECT_GT(countCheckId(R, checkid::CrossIterationConflict), 0u);
}

TEST_F(LintDegradeTest, CrossCheckGatesOnEitherEngineDegrading) {
  // An ordinal-armed breach can hit one engine's solve but not the
  // other's during the cross-check; that must surface as a degraded
  // cross-check, never as a (spurious) divergence error. Sweep the
  // ordinal so the breach lands at several different pass boundaries,
  // including inside the packed re-solves of the cross-check phase.
  for (uint64_t FireAt : {1u, 4u, 8u, 13u, 17u, 20u, 23u}) {
    failpoint::ScopedFailPoint FP("solver.pass", failpoint::Action::Breach,
                                  FireAt);
    LintResult R = lintSource(Fig1, "fig1.arf");
    EXPECT_EQ(R.EngineDivergences, 0u) << "FireAt=" << FireAt;
    EXPECT_EQ(countCheckId(R, checkid::EngineDivergence), 0u)
        << "FireAt=" << FireAt;
    EXPECT_FALSE(R.hasErrors()) << "FireAt=" << FireAt;
  }
}

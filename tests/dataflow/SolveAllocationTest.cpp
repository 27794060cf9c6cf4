//===- tests/dataflow/SolveAllocationTest.cpp - Zero-alloc solves --------===//
//
// Lives in its own test binary (alloc_tests): the global operator
// new/delete overrides below count every heap allocation in the
// process, which would add noise to unrelated suites.
//
//===----------------------------------------------------------------------===//

#include "dataflow/CompiledFlow.h"
#include "dataflow/Framework.h"
#include "frontend/Parser.h"
#include "support/FailPoint.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<size_t> GAllocCount{0};

size_t allocCount() { return GAllocCount.load(std::memory_order_relaxed); }

void *countedAlloc(size_t Size) {
  GAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

} // namespace

void *operator new(size_t Size) { return countedAlloc(Size); }
void *operator new[](size_t Size) { return countedAlloc(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }
// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// otherwise AddressSanitizer's own nothrow new pairs with the free()
// above and aborts on an alloc-dealloc mismatch.
void *operator new(size_t Size, const std::nothrow_t &) noexcept {
  GAllocCount.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}
void *operator new[](size_t Size, const std::nothrow_t &Tag) noexcept {
  return operator new(Size, Tag);
}
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

using namespace ardf;

namespace {

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

const char *Source =
    "do i = 1, 100 { A[i] = B[i] + B[i-1]; if (A[i-2] > 5) { B[i+3] = "
    "A[i-1]; } C[i] = A[i] + B[i-2]; }";

/// Repeated solves through a warmed-up workspace must not touch the
/// heap at all: the acceptance criterion of the flat-storage rework.
void expectAllocationFreeSolves(ProblemSpec Spec, SolverOptions Opts) {
  Built B = build(Source, Spec);
  SolveWorkspace WS;
  solveDataFlow(*B.FW, WS, Opts); // warm-up: matrices grow here
  size_t Before = allocCount();
  for (int I = 0; I != 10; ++I)
    solveDataFlow(*B.FW, WS, Opts);
  EXPECT_EQ(allocCount() - Before, 0u) << Spec.Name;
  EXPECT_EQ(WS.matrixGrowths(), 1u) << Spec.Name;
  EXPECT_EQ(WS.solves(), 11u) << Spec.Name;
}

/// Same invariant for the packed kernel engine: with the flow program
/// compiled up front, warm repeated kernel solves (scratch row and
/// result matrices both recycled) must be allocation-free.
void expectAllocationFreeKernelSolves(ProblemSpec Spec, SolverOptions Opts) {
  Built B = build(Source, Spec);
  CompiledFlowProgram CF = CompiledFlowProgram::compile(*B.FW);
  SolveWorkspace WS;
  solveCompiled(CF, WS, Opts); // warm-up: matrices and buffers grow here
  size_t Before = allocCount();
  for (int I = 0; I != 10; ++I)
    solveCompiled(CF, WS, Opts);
  EXPECT_EQ(allocCount() - Before, 0u) << Spec.Name;
  EXPECT_EQ(WS.matrixGrowths(), 1u) << Spec.Name;
  EXPECT_EQ(WS.solves(), 11u) << Spec.Name;
}

} // namespace

TEST(SolveAllocationTest, SanityCounterCounts) {
  size_t Before = allocCount();
  std::vector<int> *V = new std::vector<int>(1024, 7);
  EXPECT_GT(allocCount(), Before);
  delete V;
}

TEST(SolveAllocationTest, MustForwardSolvesAllocationFree) {
  expectAllocationFreeSolves(ProblemSpec::mustReachingDefs(),
                             SolverOptions());
  expectAllocationFreeSolves(ProblemSpec::availableValues(),
                             SolverOptions());
}

TEST(SolveAllocationTest, BackwardAndMaySolvesAllocationFree) {
  expectAllocationFreeSolves(ProblemSpec::busyStores(), SolverOptions());
  expectAllocationFreeSolves(ProblemSpec::reachingReferences(),
                             SolverOptions());
}

TEST(SolveAllocationTest, FixpointStrategyAllocationFree) {
  SolverOptions Opts;
  Opts.Strat = SolverOptions::Strategy::IterateToFixpoint;
  expectAllocationFreeSolves(ProblemSpec::availableValues(), Opts);
}

TEST(SolveAllocationTest, PackedKernelSolvesAllocationFree) {
  for (const ProblemSpec &Spec :
       {ProblemSpec::mustReachingDefs(), ProblemSpec::availableValues(),
        ProblemSpec::busyStores(), ProblemSpec::reachingReferences()})
    expectAllocationFreeKernelSolves(Spec, SolverOptions());
}

TEST(SolveAllocationTest, PackedKernelFixpointAllocationFree) {
  SolverOptions Opts;
  Opts.Strat = SolverOptions::Strategy::IterateToFixpoint;
  expectAllocationFreeKernelSolves(ProblemSpec::availableValues(), Opts);
  expectAllocationFreeKernelSolves(ProblemSpec::busyStores(), Opts);
}

/// The robustness layer's zero-overhead-off contract: an enabled (but
/// never breached) budget and the unarmed failpoint sites must keep
/// warm solves allocation-free on both engines -- the budget guard is a
/// handful of stack-resident integers, and an unarmed failpoint
/// evaluation is one relaxed atomic load.
TEST(SolveAllocationTest, ArmedButUnhitBudgetAllocationFree) {
  ASSERT_FALSE(failpoint::anyArmed());
  SolverOptions Opts;
  Opts.Budget.VisitSlack = 4.0;        // generous: never breached
  Opts.Budget.MaxNodeVisits = 1u << 30;
  Opts.Budget.MaxMatrixCells = 1u << 30;
  expectAllocationFreeSolves(ProblemSpec::mustReachingDefs(), Opts);
  expectAllocationFreeSolves(ProblemSpec::reachingReferences(), Opts);
  expectAllocationFreeKernelSolves(ProblemSpec::mustReachingDefs(), Opts);
  expectAllocationFreeKernelSolves(ProblemSpec::reachingReferences(), Opts);
}

/// Degraded solves stay allocation-free too once the workspace is warm:
/// the conservative fill writes into the recycled matrices.
TEST(SolveAllocationTest, DegradedSolvesAllocationFree) {
  SolverOptions Opts;
  Opts.Budget.MaxNodeVisits = 1;
  expectAllocationFreeSolves(ProblemSpec::mustReachingDefs(), Opts);
  expectAllocationFreeKernelSolves(ProblemSpec::reachingReferences(), Opts);
}

/// The provenance contract's off switch: recording allocates (the
/// derivation cells have to live somewhere), but with RecordProvenance
/// unset warm solves stay allocation-free even right after a recording
/// solve used the same workspace -- dropping the previous recording is
/// a shared_ptr release, not an allocation.
TEST(SolveAllocationTest, ProvenanceOffKeepsWarmSolvesAllocationFree) {
  Built B = build(Source, ProblemSpec::mustReachingDefs());
  SolveWorkspace WS;
  SolverOptions Prov;
  Prov.RecordProvenance = true;
  solveDataFlow(*B.FW, WS, Prov); // recording solve: allocations expected
  solveDataFlow(*B.FW, WS, SolverOptions()); // warm-up, drops recording
  size_t Before = allocCount();
  for (int I = 0; I != 10; ++I)
    solveDataFlow(*B.FW, WS, SolverOptions());
  EXPECT_EQ(allocCount() - Before, 0u);
}

/// The telemetry contract's middle tier: counters-only telemetry (a
/// context installed, no sink) must keep warm solves allocation-free on
/// both engines -- counter bumps are relaxed atomic adds, and spans
/// without a sink never build events.
TEST(SolveAllocationTest, CountersOnlyTelemetryAllocationFree) {
  telem::Telemetry T;
  telem::TelemetryScope Scope(T);
  expectAllocationFreeSolves(ProblemSpec::availableValues(),
                             SolverOptions());
  expectAllocationFreeKernelSolves(ProblemSpec::busyStores(),
                                   SolverOptions());
  EXPECT_GT(T.get(telem::Counter::SolverNodeVisits), 0u);
  EXPECT_EQ(T.get(telem::Counter::SolverRunsReference), 11u);
  EXPECT_EQ(T.get(telem::Counter::SolverRunsPacked), 11u);
}

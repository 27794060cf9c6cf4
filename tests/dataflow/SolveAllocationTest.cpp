//===- tests/dataflow/SolveAllocationTest.cpp - Solve allocations ---------===//
//
// Lives in its own test binary (alloc_tests): the global operator
// new/delete overrides below count every heap allocation in the
// process, which would add noise to unrelated suites. Besides the
// solves, it pins the allocation-free affine arithmetic the framework
// tables are built from.
//
//===----------------------------------------------------------------------===//

#include "affine/AffineAccess.h"
#include "dataflow/CompiledFlow.h"
#include "dataflow/Framework.h"
#include "dataflow/PreserveConstant.h"
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

/// The pass loops of both engines never allocate, and neither do the
/// unarmed failpoint sites at every pass boundary: a one-shot solve's
/// only heap blocks are its two result matrices.
constexpr size_t ResultBlocks = 2;

/// Heap blocks one call of \p Fn allocates.
template <typename Fn> size_t allocsOf(Fn &&F) {
  size_t Before = allocCount();
  F();
  return allocCount() - Before;
}

/// A one-shot Reference solve of \p B's instance (through solveDataFlow,
/// so a packed request the kernel does not serve lands here too).
size_t solveAllocs(const Built &B, const SolverOptions &Opts) {
  return allocsOf([&] { solveDataFlow(*B.FW, Opts); });
}

/// A one-shot kernel solve over \p CF, lowered up front as a session
/// memoizes it.
size_t kernelAllocs(const CompiledFlowProgram &CF, const SolverOptions &Opts) {
  return allocsOf([&] { solveCompiled(CF, Opts.Budget); });
}

/// The instrumentation contract on both engines: a one-shot solve under
/// \p Instrumented allocates exactly as many blocks as the plain
/// one-shot solve of the same instance.
void expectPlainBlocks(ProblemSpec Spec, const SolverOptions &Instrumented) {
  Built B = build(Source, Spec);
  CompiledFlowProgram CF = CompiledFlowProgram::compile(*B.FW);
  EXPECT_EQ(solveAllocs(B, Instrumented), solveAllocs(B, SolverOptions()))
      << Spec.Name;
  EXPECT_EQ(kernelAllocs(CF, Instrumented), kernelAllocs(CF, SolverOptions()))
      << Spec.Name;
}

} // namespace

TEST(SolveAllocationTest, SanityCounterCounts) {
  size_t Before = allocCount();
  std::vector<int> *V = new std::vector<int>(1024, 7);
  EXPECT_GT(allocCount(), Before);
  delete V;
}

TEST(SolveAllocationTest, MustForwardSolvesAllocationFree) {
  for (const ProblemSpec &Spec :
       {ProblemSpec::mustReachingDefs(), ProblemSpec::availableValues()})
    EXPECT_EQ(solveAllocs(build(Source, Spec), SolverOptions()),
              ResultBlocks)
        << Spec.Name;
}

TEST(SolveAllocationTest, BackwardAndMaySolvesAllocationFree) {
  for (const ProblemSpec &Spec :
       {ProblemSpec::busyStores(), ProblemSpec::reachingReferences()})
    EXPECT_EQ(solveAllocs(build(Source, Spec), SolverOptions()),
              ResultBlocks)
        << Spec.Name;
}

TEST(SolveAllocationTest, FixpointStrategyAllocationFree) {
  SolverOptions Opts;
  Opts.Strat = SolverOptions::Strategy::IterateToFixpoint;
  EXPECT_EQ(solveAllocs(build(Source, ProblemSpec::availableValues()), Opts),
            ResultBlocks);
}

TEST(SolveAllocationTest, PackedKernelSolvesAllocationFree) {
  for (const ProblemSpec &Spec :
       {ProblemSpec::mustReachingDefs(), ProblemSpec::availableValues(),
        ProblemSpec::busyStores(), ProblemSpec::reachingReferences()}) {
    Built B = build(Source, Spec);
    EXPECT_EQ(kernelAllocs(CompiledFlowProgram::compile(*B.FW),
                           SolverOptions()),
              ResultBlocks)
        << Spec.Name;
  }
}

/// A packed fixpoint request runs on the Reference: nothing is lowered,
/// so it allocates only the result matrices.
TEST(SolveAllocationTest, PackedKernelFixpointAllocationFree) {
  SolverOptions Opts;
  Opts.Eng = SolverOptions::Engine::PackedKernel;
  Opts.Strat = SolverOptions::Strategy::IterateToFixpoint;
  for (const ProblemSpec &Spec :
       {ProblemSpec::availableValues(), ProblemSpec::busyStores()})
    EXPECT_EQ(solveAllocs(build(Source, Spec), Opts), ResultBlocks)
        << Spec.Name;
}

/// The robustness layer's zero-overhead-off contract: an enabled (but
/// never breached) budget with the failpoint sites unarmed allocates
/// nothing beyond the plain solve on either engine -- the budget guard
/// is a handful of stack-resident integers, and an unarmed failpoint
/// evaluation is one relaxed atomic load.
TEST(SolveAllocationTest, ArmedButUnhitBudgetAllocationFree) {
  ASSERT_FALSE(failpoint::anyArmed());
  SolverOptions Opts;
  Opts.Budget.VisitSlack = 4.0;        // generous: never breached
  Opts.Budget.MaxNodeVisits = 1u << 30;
  Opts.Budget.MaxMatrixCells = 1u << 30;
  expectPlainBlocks(ProblemSpec::mustReachingDefs(), Opts);
  expectPlainBlocks(ProblemSpec::reachingReferences(), Opts);
}

/// Degraded solves allocate like plain ones: the conservative fill
/// writes into the result matrices.
TEST(SolveAllocationTest, DegradedSolvesAllocationFree) {
  SolverOptions Opts;
  Opts.Budget.MaxNodeVisits = 1;
  expectPlainBlocks(ProblemSpec::mustReachingDefs(), Opts);
  expectPlainBlocks(ProblemSpec::reachingReferences(), Opts);
}

/// The provenance contract's off switch: recording allocates (the
/// derivation cells have to live somewhere), but with RecordProvenance
/// unset a solve right after a recording solve allocates exactly like
/// the plain one on both engines -- the recording leaves nothing behind.
TEST(SolveAllocationTest, ProvenanceOffKeepsWarmSolvesAllocationFree) {
  Built B = build(Source, ProblemSpec::mustReachingDefs());
  CompiledFlowProgram CF = CompiledFlowProgram::compile(*B.FW);
  size_t Plain = solveAllocs(B, SolverOptions());
  size_t PlainKernel = kernelAllocs(CF, SolverOptions());
  SolverOptions Prov;
  Prov.RecordProvenance = true;
  EXPECT_GT(solveAllocs(B, Prov), Plain);
  EXPECT_EQ(solveAllocs(B, SolverOptions()), Plain);
  EXPECT_EQ(kernelAllocs(CF, SolverOptions()), PlainKernel);
}

/// The telemetry contract's middle tier: counters-only telemetry (a
/// context installed, no sink) allocates nothing beyond the plain solve
/// on either engine -- counter bumps are relaxed atomic adds, and spans
/// without a sink never build events.
TEST(SolveAllocationTest, CountersOnlyTelemetryAllocationFree) {
  Built Avail = build(Source, ProblemSpec::availableValues());
  Built Busy = build(Source, ProblemSpec::busyStores());
  CompiledFlowProgram CF = CompiledFlowProgram::compile(*Busy.FW);
  size_t Plain = solveAllocs(Avail, SolverOptions());
  size_t PlainKernel = kernelAllocs(CF, SolverOptions());

  telem::Telemetry T;
  telem::TelemetryScope Scope(T);
  EXPECT_EQ(solveAllocs(Avail, SolverOptions()), Plain);
  EXPECT_EQ(kernelAllocs(CF, SolverOptions()), PlainKernel);
  EXPECT_GT(T.get(telem::Counter::SolverNodeVisits), 0u);
  EXPECT_EQ(T.get(telem::Counter::SolverRunsReference), 1u);
  EXPECT_EQ(T.get(telem::Counter::SolverRunsPacked), 1u);
}

/// Constant-coefficient subscripts, the forms of every generated
/// perfbench subscript, split into constant A and B: the preserve
/// constant, reuse and overlap distances and form equality over them
/// allocate nothing, and neither does splitting an existing 2*i + 3.
TEST(SolveAllocationTest, ConstantCoefficientAffineArithmeticAllocationFree) {
  Program P = parseOrDie("A[2 * i + 3] = 0; A[2 * i - 1] = 0;");
  auto Target = [&](size_t K) {
    return cast<AssignStmt>(P.getStmts()[K].get())->getArrayTarget();
  };
  std::optional<AffineAccess> X = makeAffineAccess(*Target(0), P, "i");
  std::optional<AffineAccess> Y = makeAffineAccess(*Target(1), P, "i");
  std::optional<Poly> Linear = linearizeSubscripts(*Target(0), P);
  ASSERT_TRUE(X && Y && Linear);

  uint64_t PreserveBits = 0;
  int64_t Overlaps = 0;
  std::optional<Rational> Forward, Backward;
  bool SameA = false, SameB = true;
  size_t Allocs = allocsOf([&] {
    for (ProblemMode Mode : {ProblemMode::Must, ProblemMode::May})
      for (FlowDirection Dir :
           {FlowDirection::Forward, FlowDirection::Backward})
        for (int64_t Pr : {0, 1}) {
          PreserveQuery Q;
          Q.Pr = Pr;
          Q.TripCount = 100;
          Q.Mode = Mode;
          Q.Direction = Dir;
          Q.Preserved = &*X;
          Q.Killer = &*Y;
          PreserveBits += computePreserveConstant(Q).bits();
          Q.Preserved = &*Y;
          Q.Killer = &*X;
          PreserveBits += computePreserveConstant(Q).bits();
          Overlaps += minOverlapDistance(*X, *Y, Pr, 100).value_or(-1);
          Overlaps +=
              minOverlapDistance(*Y, *X, Pr, UnknownTripCount).value_or(-1);
        }
    Forward = constantReuseDistance(*X, *Y);
    Backward = constantReuseDistance(*Y, *X);
    SameA = X->A == Y->A;
    SameB = X->B == Y->B;
  });
  EXPECT_EQ(Allocs, 0u);
  EXPECT_GT(PreserveBits, 0u);
  EXPECT_NE(Overlaps, 0);
  EXPECT_EQ(Forward, Rational(2)); // A[2(i - 2) + 3] == A[2i - 1]
  EXPECT_EQ(Backward, Rational(-2));
  EXPECT_TRUE(SameA);
  EXPECT_FALSE(SameB);

  std::optional<std::pair<Poly, Poly>> Split;
  EXPECT_EQ(allocsOf([&] { Split = Linear->splitAffine("i"); }), 0u);
  ASSERT_TRUE(Split);
  EXPECT_EQ(Split->first, Poly::constant(2));
  EXPECT_EQ(Split->second, Poly::constant(3));
}

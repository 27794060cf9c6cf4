//===- tests/dataflow/KernelSolverTest.cpp - Kernel vs reference oracle --===//
//
// The solver half of the packed-kernel guarantee: over a randomized
// loop corpus (the bench generator) and hand-picked boundary shapes,
// the PackedKernel engine must produce bit-identical SolveResult
// matrices to the Reference engine for all four paper problems (plus
// the per-occurrence variants), must and may, forward and backward.
// The kernel runs only the paper schedule; packed requests for the
// verification modes (iterate-to-fixpoint, history, provenance) run on
// the Reference. The algebraic half (operator agreement of the packed
// encoding) lives in tests/lattice/PackedDistanceTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "analysis/LoopAnalysisSession.h"
#include "dataflow/CompiledFlow.h"
#include "frontend/Parser.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

using namespace ardf;

namespace {

ProblemSpec allSpecs[] = {
    ProblemSpec::mustReachingDefs(),
    ProblemSpec::availableValues(),
    ProblemSpec::busyStores(),
    ProblemSpec::reachingReferences(),
    ProblemSpec::availableValuesPerOccurrence(),
    ProblemSpec::busyStoresPerOccurrence(),
};

/// Hand shapes covering the corners the generator rarely hits: if/else
/// joins, nested-loop summaries, unknown trip counts, same-statement
/// kills, and a reference-free body.
const char *HandCorpus[] = {
    "do i = 1, 100 { A[i+2] = A[i] + X; }",
    "do i = 1, 5 { A[i+1] = A[i]; }", // tiny trip: saturation everywhere
    "do i = 1, N { A[i+1] = A[i] + A[i-1]; }", // unknown trip count
    "do i = 1, 50 { if (B[i] > 0) { A[i+1] = B[i]; } else { A[i+1] = 0; } "
    "C[i] = A[i] + B[i-2]; }",
    "do i = 1, 20 { A[i] = B[i] + B[i-1]; do j = 1, 5 { C[j] = A[i]; } "
    "B[i+2] = A[i-1]; }",
    "do i = 1, 100 { A[i] = A[i] + 1; }", // same-statement use and def
    "do i = 1, 10 { X = X + 1; }",        // nothing trackable
};

SolverOptions referenceOpts() { return SolverOptions(); }

SolverOptions packedOpts() {
  SolverOptions Opts;
  Opts.Eng = SolverOptions::Engine::PackedKernel;
  return Opts;
}

/// Solves \p Spec on the first loop of \p Source with both engines and
/// asserts bit-identical results.
void expectEnginesAgree(const std::string &Source, const ProblemSpec &Spec,
                        SolverOptions Opts) {
  Program P = parseOrDie(Source);
  const DoLoopStmt *Loop = P.getFirstLoop();
  ASSERT_NE(Loop, nullptr) << Source;
  LoopFlowGraph Graph(*Loop);
  FrameworkInstance FW(Graph, P, Spec);

  SolveResult Ref = solveDataFlow(FW, Opts);
  SolverOptions Packed = Opts;
  Packed.Eng = SolverOptions::Engine::PackedKernel;
  SolveResult Kern = solveDataFlow(FW, Packed);

  EXPECT_EQ(Kern.In, Ref.In) << Spec.Name << " on: " << Source;
  EXPECT_EQ(Kern.Out, Ref.Out) << Spec.Name << " on: " << Source;
  EXPECT_EQ(Kern.NodeVisits, Ref.NodeVisits) << Spec.Name;
  EXPECT_EQ(Kern.Passes, Ref.Passes) << Spec.Name;
  EXPECT_EQ(Kern.MeetOps, Ref.MeetOps) << Spec.Name;
  EXPECT_EQ(Kern.ApplyOps, Ref.ApplyOps) << Spec.Name;
  EXPECT_EQ(Kern.Converged, Ref.Converged) << Spec.Name;
}

} // namespace

TEST(KernelSolverTest, HandCorpusAllProblemsBothEngines) {
  for (const char *Source : HandCorpus)
    for (const ProblemSpec &Spec : allSpecs)
      expectEnginesAgree(Source, Spec, referenceOpts());
}

TEST(KernelSolverTest, RandomizedCorpusPaperSchedule) {
  for (unsigned Stmts : {4u, 9u, 17u, 33u})
    for (int Cond : {0, 25, 60})
      for (uint64_t Seed : {1u, 2u, 3u}) {
        std::string Source = ardfbench::makeSyntheticLoop(
            Stmts, 4, Cond, Seed * 7919 + Stmts * 31 + Cond, 1000);
        for (const ProblemSpec &Spec : allSpecs)
          expectEnginesAgree(Source, Spec, referenceOpts());
      }
}

TEST(KernelSolverTest, RandomizedCorpusIterateToFixpoint) {
  SolverOptions Opts;
  Opts.Strat = SolverOptions::Strategy::IterateToFixpoint;
  for (unsigned Stmts : {6u, 21u})
    for (uint64_t Seed : {11u, 12u}) {
      std::string Source =
          ardfbench::makeSyntheticLoop(Stmts, 3, 30, Seed * 131 + Stmts, 500);
      for (const ProblemSpec &Spec : allSpecs)
        expectEnginesAgree(Source, Spec, Opts);
    }
}

TEST(KernelSolverTest, HistoryMatchesReference) {
  SolverOptions Opts;
  Opts.RecordHistory = true;
  Program P = parseOrDie(HandCorpus[3]);
  LoopFlowGraph Graph(*P.getFirstLoop());
  FrameworkInstance FW(Graph, P, ProblemSpec::availableValues());

  SolveResult Ref = solveDataFlow(FW, Opts);
  Opts.Eng = SolverOptions::Engine::PackedKernel;
  SolveResult Kern = solveDataFlow(FW, Opts);

  ASSERT_EQ(Kern.History.size(), Ref.History.size());
  for (size_t I = 0; I != Ref.History.size(); ++I) {
    EXPECT_EQ(Kern.History[I].Label, Ref.History[I].Label);
    EXPECT_EQ(Kern.History[I].In, Ref.History[I].In);
    EXPECT_EQ(Kern.History[I].Out, Ref.History[I].Out);
  }
}

TEST(KernelSolverTest, SessionMemoizesCompiledProgramsPerInstance) {
  Program P = parseOrDie(HandCorpus[3]);
  LoopAnalysisSession Session(P, *P.getFirstLoop());

  const CompiledFlowProgram &CF =
      Session.compiledFlow(ProblemSpec::availableValues());
  EXPECT_EQ(&CF, &Session.compiledFlow(ProblemSpec::availableValues()));
  EXPECT_NE(&CF, &Session.compiledFlow(ProblemSpec::busyStores()));

  // Engine-tagged solves are distinct cache entries with equal matrices.
  const SolveResult &Ref =
      Session.solve(ProblemSpec::availableValues(), referenceOpts());
  const SolveResult &Kern =
      Session.solve(ProblemSpec::availableValues(), packedOpts());
  EXPECT_NE(&Ref, &Kern);
  EXPECT_EQ(Session.solvesPerformed(), 2u);
  EXPECT_EQ(Kern.In, Ref.In);
  EXPECT_EQ(Kern.Out, Ref.Out);
  // Memoized: re-asking for the packed solve is free.
  EXPECT_EQ(&Kern, &Session.solve(ProblemSpec::availableValues(),
                                  packedOpts()));
  EXPECT_EQ(Session.solvesPerformed(), 2u);
}

TEST(KernelSolverTest, VerificationModesRunOnReference) {
  // The kernel runs only the paper schedule: a packed request for
  // IterateToFixpoint, RecordHistory or RecordProvenance is served by
  // the Reference, through solveDataFlow and through a session alike,
  // and nothing is lowered or solved by the kernel.
  Program P = parseOrDie(HandCorpus[3]);
  LoopAnalysisSession Session(P, *P.getFirstLoop());
  const ProblemSpec Spec = ProblemSpec::availableValues();
  const FrameworkInstance &FW = Session.instance(Spec);
  SolverOptions Fixpoint = packedOpts(), History = packedOpts(),
                Prov = packedOpts();
  Fixpoint.Strat = SolverOptions::Strategy::IterateToFixpoint;
  History.RecordHistory = true;
  Prov.RecordProvenance = true;

  telem::Telemetry T;
  telem::TelemetryScope Scope(T);
  for (const SolverOptions &Opts : {Fixpoint, History, Prov}) {
    EXPECT_FALSE(Opts.usesPackedKernel());
    SolverOptions RefOpts = Opts;
    RefOpts.Eng = SolverOptions::Engine::Reference;
    SolveResult Ref = solveDataFlow(FW, RefOpts);
    const SolveResult Direct = solveDataFlow(FW, Opts);
    const SolveResult &Cached = Session.solve(Spec, Opts);
    for (const SolveResult *R : {&Direct, &Cached}) {
      EXPECT_EQ(R->In, Ref.In);
      EXPECT_EQ(R->Out, Ref.Out);
      EXPECT_EQ(R->Passes, Ref.Passes);
      EXPECT_EQ(R->History.size(), Ref.History.size());
      EXPECT_EQ(R->Provenance != nullptr, Ref.Provenance != nullptr);
    }
  }
  EXPECT_TRUE(packedOpts().usesPackedKernel());
  EXPECT_EQ(T.get(telem::Counter::SolverRunsReference), 9u);
  EXPECT_EQ(T.get(telem::Counter::SolverRunsPacked), 0u);
  EXPECT_EQ(T.get(telem::Counter::FlowCompiles), 0u);
}

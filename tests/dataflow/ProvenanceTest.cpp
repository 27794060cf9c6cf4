//===- tests/dataflow/ProvenanceTest.cpp - Provenance replay oracle ------===//
//
// The provenance guarantee, in three parts. (1) Replay oracle: a
// recorded derivation re-applied step by step from its own constants
// and meet operands must reproduce every recorded cell bit-for-bit --
// over a randomized corpus, for all paper problems (plus the
// per-occurrence variants) and both pass strategies. (2) Engine
// forcing: a provenance solve runs the reference engine no matter which
// engine was requested, and its solution is bit-identical to every fast
// engine's. (3) The off switch: without RecordProvenance no recording
// exists, so the fast paths stay untouched.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "dataflow/Framework.h"
#include "dataflow/Provenance.h"
#include "frontend/Parser.h"

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

const char *HandCorpus[] = {
    "do i = 1, 100 { A[i+2] = A[i] + X; }",
    "do i = 1, 5 { A[i+1] = A[i]; }",
    "do i = 1, N { A[i+1] = A[i] + A[i-1]; }",
    "do i = 1, 50 { if (B[i] > 0) { A[i+1] = B[i]; } else { A[i+1] = 0; } "
    "C[i] = A[i] + B[i-2]; }",
    "do i = 1, 20 { A[i] = B[i] + B[i-1]; do j = 1, 5 { C[j] = A[i]; } "
    "B[i+2] = A[i-1]; }",
    "do i = 1, 100 { A[i] = A[i] + 1; }",
    "do i = 1, 10 { X = X + 1; }",
};

SolverOptions provenanceOpts() {
  SolverOptions Opts;
  Opts.RecordProvenance = true;
  return Opts;
}

/// Solves \p Spec with recording and replays the full derivation.
void expectReplays(const std::string &Source, const ProblemSpec &Spec,
                   SolverOptions Opts) {
  Program P = parseOrDie(Source);
  const DoLoopStmt *Loop = P.getFirstLoop();
  ASSERT_NE(Loop, nullptr) << Source;
  LoopFlowGraph Graph(*Loop);
  FrameworkInstance FW(Graph, P, Spec);
  Opts.RecordProvenance = true;
  SolveResult R = solveDataFlow(FW, Opts);
  ASSERT_NE(R.Provenance, nullptr) << Spec.Name;
  std::string WhyNot;
  EXPECT_TRUE(replayProvenance(*R.Provenance, &WhyNot))
      << Spec.Name << ": " << WhyNot << "\n"
      << Source;
}

} // namespace

TEST(ProvenanceTest, ReplayOracleHandCorpus) {
  for (const char *Source : HandCorpus)
    for (const ProblemSpec &Spec : allSpecs)
      expectReplays(Source, Spec, SolverOptions());
}

TEST(ProvenanceTest, ReplayOracleRandomizedCorpus) {
  for (unsigned Stmts : {3u, 11u, 26u})
    for (int Cond : {0, 35})
      for (uint64_t Seed : {1u, 5u, 9u}) {
        std::string Source = ardfbench::makeSyntheticLoop(
            Stmts, 4, Cond, Seed * 6151 + Stmts * 17 + Cond, 1000);
        for (const ProblemSpec &Spec : allSpecs)
          expectReplays(Source, Spec, SolverOptions());
      }
}

TEST(ProvenanceTest, ReplayOracleFixpointStrategy) {
  SolverOptions Opts;
  Opts.Strat = SolverOptions::Strategy::IterateToFixpoint;
  for (unsigned Stmts : {5u, 14u}) {
    std::string Source =
        ardfbench::makeSyntheticLoop(Stmts, 3, 25, 271u + Stmts, 500);
    for (const ProblemSpec &Spec : allSpecs)
      expectReplays(Source, Spec, Opts);
  }
}

TEST(ProvenanceTest, RecordingForcesReferenceEngineBitIdentical) {
  // A provenance solve must land on the reference path regardless of
  // the requested engine, and the result must equal the packed
  // engine's -- the cross-check contract explain flows rely on.
  std::string Source = ardfbench::makeSyntheticLoop(19, 4, 30, 977, 800);
  Program P = parseOrDie(Source);
  LoopFlowGraph Graph(*P.getFirstLoop());
  for (const ProblemSpec &Spec : allSpecs) {
    FrameworkInstance FW(Graph, P, Spec);
    for (SolverOptions::Engine Eng : {SolverOptions::Engine::Reference,
                                      SolverOptions::Engine::PackedKernel}) {
      SolverOptions Prov = provenanceOpts();
      Prov.Eng = Eng;
      SolveResult Recorded = solveDataFlow(FW, Prov);
      ASSERT_NE(Recorded.Provenance, nullptr) << Spec.Name;
      EXPECT_FALSE(Recorded.Provenance->Degraded);

      SolverOptions Fast;
      Fast.Eng = Eng;
      SolveResult Plain = solveDataFlow(FW, Fast);
      EXPECT_EQ(Recorded.In, Plain.In) << Spec.Name;
      EXPECT_EQ(Recorded.Out, Plain.Out) << Spec.Name;
    }
  }
}

TEST(ProvenanceTest, NoRecordingWithoutTheFlag) {
  Program P = parseOrDie(HandCorpus[0]);
  LoopFlowGraph Graph(*P.getFirstLoop());
  for (const ProblemSpec &Spec : allSpecs) {
    FrameworkInstance FW(Graph, P, Spec);
    for (SolverOptions::Engine Eng :
         {SolverOptions::Engine::Reference,
          SolverOptions::Engine::PackedKernel}) {
      SolverOptions Opts;
      Opts.Eng = Eng;
      SolveResult R = solveDataFlow(FW, Opts);
      EXPECT_EQ(R.Provenance, nullptr) << Spec.Name;
    }
  }
}

TEST(ProvenanceTest, RecordedCellsMatchTheSolution) {
  // The last recorded layer IS the returned solution.
  Program P = parseOrDie(HandCorpus[3]);
  LoopFlowGraph Graph(*P.getFirstLoop());
  for (const ProblemSpec &Spec : allSpecs) {
    FrameworkInstance FW(Graph, P, Spec);
    SolveResult R = solveDataFlow(FW, provenanceOpts());
    ASSERT_NE(R.Provenance, nullptr);
    const SolveProvenance &Prov = *R.Provenance;
    ASSERT_EQ(Prov.Passes + 1,
              static_cast<unsigned>(Prov.CellIn.size() /
                                    (Prov.NumNodes * Prov.NumTracked == 0
                                         ? 1
                                         : Prov.NumNodes * Prov.NumTracked)))
        << Spec.Name;
    for (unsigned N = 0; N != Prov.NumNodes; ++N)
      for (unsigned D = 0; D != Prov.NumTracked; ++D) {
        EXPECT_EQ(Prov.in(Prov.Passes, N, D), R.In[N][D]) << Spec.Name;
        EXPECT_EQ(Prov.out(Prov.Passes, N, D), R.Out[N][D]) << Spec.Name;
      }
  }
}

TEST(ProvenanceTest, DerivationBuildsForEveryCell) {
  // Building the derivation DAG of every (node, tracked, side) cell
  // must succeed, the root's value must equal the recorded cell, and
  // the trail and JSON serializations must be well-formed.
  std::string Source = ardfbench::makeSyntheticLoop(9, 3, 30, 31337, 400);
  Program P = parseOrDie(Source);
  LoopFlowGraph Graph(*P.getFirstLoop());
  for (const ProblemSpec &Spec : allSpecs) {
    FrameworkInstance FW(Graph, P, Spec);
    SolveResult R = solveDataFlow(FW, provenanceOpts());
    ASSERT_NE(R.Provenance, nullptr);
    const SolveProvenance &Prov = *R.Provenance;
    for (unsigned N = 0; N != Prov.NumNodes; ++N)
      for (unsigned D = 0; D != Prov.NumTracked; ++D)
        for (bool IsIn : {true, false}) {
          DerivationGraph G = buildDerivation(Prov, N, D, IsIn);
          ASSERT_FALSE(G.Nodes.empty());
          DistanceValue Expected =
              IsIn ? Prov.in(Prov.Passes, N, D) : Prov.out(Prov.Passes, N, D);
          EXPECT_EQ(G.root().Value, Expected) << Spec.Name;
          EXPECT_FALSE(derivationTrail(Prov, G).empty()) << Spec.Name;
          std::string Json = derivationToJson(Prov, G);
          ASSERT_FALSE(Json.empty());
          EXPECT_EQ(Json.front(), '{');
          EXPECT_EQ(Json.back(), '}');
        }
  }
}

TEST(ProvenanceTest, DegradedRecordingIsMarkedAndReplaysVacuously) {
  // A budget breach mid-solve leaves a partial recording; it must be
  // flagged Degraded and replay must not crash (vacuous pass).
  std::string Source = ardfbench::makeSyntheticLoop(20, 4, 30, 555, 900);
  Program P = parseOrDie(Source);
  LoopFlowGraph Graph(*P.getFirstLoop());
  FrameworkInstance FW(Graph, P, ProblemSpec::mustReachingDefs());
  SolverOptions Opts = provenanceOpts();
  Opts.Budget.MaxNodeVisits = 2;
  SolveResult R = solveDataFlow(FW, Opts);
  ASSERT_FALSE(R.ok());
  ASSERT_NE(R.Provenance, nullptr);
  EXPECT_TRUE(R.Provenance->Degraded);
  EXPECT_TRUE(replayProvenance(*R.Provenance));
}

TEST(ProvenanceTest, TamperedRecordingFailsReplay) {
  // The oracle is not vacuous: corrupting one recorded cell must be
  // caught by replay.
  Program P = parseOrDie(HandCorpus[0]);
  LoopFlowGraph Graph(*P.getFirstLoop());
  FrameworkInstance FW(Graph, P, ProblemSpec::mustReachingDefs());
  SolveResult R = solveDataFlow(FW, provenanceOpts());
  ASSERT_NE(R.Provenance, nullptr);
  ASSERT_FALSE(R.Provenance->CellOut.empty());
  SolveProvenance Tampered = *R.Provenance;
  size_t Last = Tampered.CellOut.size() - 1;
  Tampered.CellOut[Last] = Tampered.CellOut[Last].isAllInstances()
                               ? DistanceValue::finite(7)
                               : DistanceValue::allInstances();
  std::string WhyNot;
  EXPECT_FALSE(replayProvenance(Tampered, &WhyNot));
  EXPECT_FALSE(WhyNot.empty());
}

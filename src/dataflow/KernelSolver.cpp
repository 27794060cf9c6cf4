//===- dataflow/KernelSolver.cpp - Branch-free packed pass loop ----------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
// The packed kernel engine: runs the paper's pass schedule over the flat
// tables of a CompiledFlowProgram. Whole-row meets and flow applications
// are tight min/max loops on DistanceValue's unsigned encoding with no
// data-dependent branches, and the generate side is a sparse per-node
// patch. The kernel sweeps the caller's DistanceMatrix SolveResult
// directly, so every client of solveDataFlow works unchanged. Results
// are bit-identical to the reference solver (the row operations are the
// DistanceValue operators, whose encoding is order isomorphic to the
// chain; see lattice/Distance.h), which the kernel-vs-reference oracle
// tests assert.
//
// The engine exists to win the memory-bandwidth game the reference
// solver loses at large shapes, so the pass loop is frugal with bytes:
// the IN rows of non-final passes live in a one-row scratch buffer
// (nothing ever reads them again), and the result matrices are reshaped
// without refilling between warm solves (every cell the result exposes
// is written before it is read).
//
//===----------------------------------------------------------------------===//

#include "dataflow/CompiledFlow.h"
#include "dataflow/SolverTelemetry.h"
#include "dataflow/VectorOps.h"

#include <algorithm>
#include <cassert>
#include <string>

using namespace ardf;

namespace {

/// Overwrites both result matrices with the conservative lattice value
/// (must: NoInstance, may: AllInstances) and tags \p Result degraded.
void fillDegraded(SolveResult &Result, const CompiledFlowProgram &CF,
                  BreachReason Reason) {
  DistanceValue Fill = CF.IsMust ? DistanceValue::noInstance()
                                 : DistanceValue::allInstances();
  std::fill(Result.In.data(), Result.In.data() + CF.cells(), Fill);
  std::fill(Result.Out.data(), Result.Out.data() + CF.cells(), Fill);
  Result.Converged = true;
  Result.Outcome = SolveOutcome::Degraded;
  Result.Breach = Reason;
}

class KernelSolver {
public:
  KernelSolver(const CompiledFlowProgram &CF, const SolverOptions &Opts,
               SolveResult &Result, std::vector<DistanceValue> &ScratchBuf)
      : CF(CF), Opts(Opts), Result(Result), In(Result.In.data()),
        Out(Result.Out.data()), Scratch(ScratchBuf.data()),
        T(CF.NumTracked),
        // Change-tracked passes diff against the previous IN rows and
        // history snapshots copy the IN matrix after every pass, so
        // both modes keep IN real throughout; the plain paper schedule
        // only needs the IN matrix of the final pass.
        RealIn(Opts.RecordHistory ||
               Opts.Strat == SolverOptions::Strategy::IterateToFixpoint) {}

  void run(const detail::BudgetGuard &Guard) {
    if (CF.IsMust)
      initMust();
    else
      initMay();
    snapshot("init");
    if (degradeIfBreached(Guard.check(Result.NodeVisits)))
      return;

    if (Opts.Strat == SolverOptions::Strategy::PaperSchedule) {
      for (unsigned P = 0; P != 2; ++P) {
        passFast(/*Final=*/P == 1);
        ++Result.Passes;
        if (Opts.RecordHistory)
          snapshot("pass " + std::to_string(Result.Passes));
        if (degradeIfBreached(Guard.check(Result.NodeVisits)))
          return;
      }
    } else {
      Result.Converged = false;
      for (unsigned P = 0; P != Opts.MaxPasses; ++P) {
        bool Changed = passTracked();
        ++Result.Passes;
        if (Opts.RecordHistory)
          snapshot("pass " + std::to_string(Result.Passes));
        if (degradeIfBreached(Guard.check(Result.NodeVisits)))
          return;
        if (!Changed) {
          Result.Converged = true;
          break;
        }
      }
    }
  }

private:
  /// Budget breach: skip the remaining passes and expose the
  /// conservative fill in the result matrices. Checked at the same pass
  /// boundaries as the reference solver, so under identical
  /// deterministic breaches (visits, failpoints) both engines degrade at
  /// the same point to the same bits.
  bool degradeIfBreached(BreachReason Reason) {
    if (Reason == BreachReason::None)
      return false;
    fillDegraded(Result, CF, Reason);
    return true;
  }

  /// The must-problem initialization pass: optimistic AllInstances at
  /// generating cells along the meet-over-all-paths, with the working
  /// source pinned to bottom.
  void initMust() {
    for (unsigned Node : CF.Order) {
      DistanceValue *InRow =
          RealIn ? In + static_cast<size_t>(Node) * T : Scratch;
      DistanceValue *OutRow = Out + static_cast<size_t>(Node) * T;
      if (Node == CF.SourceNode)
        std::fill(InRow, InRow + T, DistanceValue::noInstance());
      else
        meetRow(Node, InRow);
      std::copy(InRow, InRow + T, OutRow);
      for (unsigned K = CF.GenOffsets[Node]; K != CF.GenOffsets[Node + 1];
           ++K)
        OutRow[CF.GenCols[K]] = DistanceValue::allInstances();
    }
    Result.NodeVisits += static_cast<unsigned>(CF.Order.size());
  }

  /// The may-problem initial guess: bottom (= all instances) everywhere.
  /// The IN matrix only needs the guess when the pass loop will read it
  /// (change tracking) or expose it (history).
  void initMay() {
    std::fill(Out, Out + CF.cells(), DistanceValue::allInstances());
    if (RealIn)
      std::fill(In, In + CF.cells(), DistanceValue::allInstances());
  }

  /// Whole-row meet over the working predecessors into \p Dst.
  void meetRow(unsigned Node, DistanceValue *Dst) {
    const unsigned *P = CF.Preds.data() + CF.PredOffsets[Node];
    unsigned K = CF.PredOffsets[Node + 1] - CF.PredOffsets[Node];
    assert(K != 0 && "flow graph node without predecessors");
    const DistanceValue *First = Out + static_cast<size_t>(P[0]) * T;
    std::copy(First, First + T, Dst);
    for (unsigned I = 1; I != K; ++I) {
      const DistanceValue *S = Out + static_cast<size_t>(P[I]) * T;
      if (CF.IsMust)
        simd::minInto(Dst, S, T);
      else
        simd::maxInto(Dst, S, T);
    }
  }

  /// Whole-row flow application into \p OutRow: the dense preserve
  /// sweep plus the sparse generate patch for body nodes, the
  /// saturating increment at the exit node. Exactly applyNode's
  /// case analysis: min(in, p), then max with finite(0) and min with
  /// the post-generation constant at generating cells only.
  void applyRow(unsigned Node, const DistanceValue *InRow,
                DistanceValue *OutRow) {
    if (Node == CF.ExitNode) {
      simd::increment(OutRow, InRow, T, CF.IncBound);
      return;
    }
    simd::minRows(OutRow, InRow,
                  CF.Preserve.data() + static_cast<size_t>(Node) * T, T);
    const DistanceValue Zero = DistanceValue::finite(0);
    for (unsigned K = CF.GenOffsets[Node]; K != CF.GenOffsets[Node + 1];
         ++K) {
      unsigned C = CF.GenCols[K];
      OutRow[C] =
          DistanceValue::min(DistanceValue::max(OutRow[C], Zero), CF.GenQ[K]);
    }
  }

  /// One pass of the paper schedule: no change tracking, maximal
  /// vectorizability. Without RealIn only the final pass writes the IN
  /// matrix: earlier meets land in the one-row scratch, or are the
  /// single predecessor's OUT row itself, untouched.
  void passFast(bool Final) {
    for (unsigned Node : CF.Order) {
      const DistanceValue *InRow;
      unsigned K = CF.PredOffsets[Node + 1] - CF.PredOffsets[Node];
      if (RealIn || Final) {
        DistanceValue *Dst = In + static_cast<size_t>(Node) * T;
        meetRow(Node, Dst);
        InRow = Dst;
      } else if (K == 1) {
        // A one-predecessor meet is that row; skip the copy. Exact
        // self-aliasing in applyRow is safe: every row op loads its
        // lane before storing it.
        InRow = Out + static_cast<size_t>(CF.Preds[CF.PredOffsets[Node]]) * T;
      } else {
        meetRow(Node, Scratch);
        InRow = Scratch;
      }
      applyRow(Node, InRow, Out + static_cast<size_t>(Node) * T);
    }
    Result.NodeVisits += static_cast<unsigned>(CF.Order.size());
  }

  /// One IterateToFixpoint pass with an XOR change accumulator (encoding
  /// equality is value equality). The scratch row holds each node's
  /// previous OUT so the diff can be taken after the sparse patch.
  bool passTracked() {
    uint64_t Diff = 0;
    for (unsigned Node : CF.Order) {
      DistanceValue *InRow = In + static_cast<size_t>(Node) * T;
      DistanceValue *OutRow = Out + static_cast<size_t>(Node) * T;
      std::copy(InRow, InRow + T, Scratch);
      meetRow(Node, InRow);
      Diff |= simd::xorAccum(InRow, Scratch, T);
      std::copy(OutRow, OutRow + T, Scratch);
      applyRow(Node, InRow, OutRow);
      Diff |= simd::xorAccum(OutRow, Scratch, T);
    }
    Result.NodeVisits += static_cast<unsigned>(CF.Order.size());
    return Diff != 0;
  }

  void snapshot(std::string Label) {
    if (!Opts.RecordHistory)
      return;
    PassSnapshot S;
    S.Label = std::move(Label);
    S.In = Result.In;
    S.Out = Result.Out;
    Result.History.push_back(std::move(S));
  }

  const CompiledFlowProgram &CF;
  const SolverOptions &Opts;
  SolveResult &Result;
  DistanceValue *In;
  DistanceValue *Out;
  DistanceValue *Scratch;
  const unsigned T;
  const bool RealIn;
};

/// Mirrors resetResult in Framework.cpp and additionally shapes the
/// scratch row, reusing every allocation; true when anything grew.
/// Shaping never refills retained cells: the kernel writes every cell
/// of both result matrices, and every row it reads, before reading it,
/// so a refill would only stream stale megabytes through cache.
bool resetKernel(SolveResult &Result, std::vector<DistanceValue> &ScratchBuf,
                 const CompiledFlowProgram &CF) {
  bool GrewIn = Result.In.reshape(CF.NumNodes, CF.NumTracked);
  bool GrewOut = Result.Out.reshape(CF.NumNodes, CF.NumTracked);
  Result.NodeVisits = 0;
  Result.Passes = 0;
  Result.MeetOps = 0;
  Result.ApplyOps = 0;
  Result.Converged = true;
  Result.Outcome = SolveOutcome::Ok;
  Result.Breach = BreachReason::None;
  Result.History.clear();
  size_t CapScratch = ScratchBuf.capacity();
  ScratchBuf.resize(CF.NumTracked);
  return GrewIn || GrewOut || ScratchBuf.capacity() != CapScratch;
}

/// Runs the packed kernel over \p CF into \p Result, with per-solve
/// span and counter telemetry (inert when no context is installed).
void runKernel(const CompiledFlowProgram &CF, const SolverOptions &Opts,
               SolveResult &Result, std::vector<DistanceValue> &ScratchBuf) {
  telem::Span S("solve", "solver", CF.ProblemName.c_str());
  telem::LatencyTimer LT(telem::Histo::SolveNs);
  detail::BudgetGuard Guard(Opts.Budget, CF.IsMust, CF.NumNodes,
                            CF.NumTracked);
  if (BreachReason Cells = Guard.checkCells();
      Cells != BreachReason::None)
    fillDegraded(Result, CF, Cells);
  else
    KernelSolver(CF, Opts, Result, ScratchBuf).run(Guard);
  detail::finishSolveCounts(Result, CF.IsMust, CF.NumNodes, CF.NumTracked,
                            CF.MeetEdgesAll, CF.MeetEdgesNoSource);
  detail::recordSolveTelemetry(Result, CF.IsMust, CF.NumNodes,
                               /*PackedEngine=*/true);
  if (S.active()) {
    S.arg("nodes", CF.NumNodes);
    S.arg("tracked", CF.NumTracked);
    S.arg("node_visits", Result.NodeVisits);
    S.arg("passes", Result.Passes);
  }
}

} // namespace

SolveResult ardf::solveCompiled(const CompiledFlowProgram &CF,
                                const SolverOptions &Opts) {
  SolveResult Result;
  std::vector<DistanceValue> ScratchBuf;
  resetKernel(Result, ScratchBuf, CF);
  runKernel(CF, Opts, Result, ScratchBuf);
  return Result;
}

const SolveResult &ardf::solveCompiled(const CompiledFlowProgram &CF,
                                       SolveWorkspace &WS,
                                       const SolverOptions &Opts) {
  if (resetKernel(WS.Result, WS.Scratch, CF))
    ++WS.Growths;
  ++WS.Solves;
  runKernel(CF, Opts, WS.Result, WS.Scratch);
  return WS.Result;
}

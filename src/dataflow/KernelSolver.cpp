//===- dataflow/KernelSolver.cpp - Branch-free packed pass loop ----------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
// The packed kernel engine: runs the paper's pass schedule over the flat
// packed matrices of a CompiledFlowProgram. Whole-row meets and flow
// applications are tight min/max loops with no data-dependent branches,
// the generate side is a sparse per-node patch, and the fixed point is
// unpacked into the caller's DistanceMatrix SolveResult so every client
// of solveDataFlow works unchanged. Results are bit-identical to the
// reference solver (the packed operators are the image of the
// DistanceValue operators under the order isomorphism of
// PackedDistance.h), which the kernel-vs-reference oracle tests assert.
//
// The engine exists to win the memory-bandwidth game the reference
// solver loses at large shapes, so the pass loop is frugal with bytes:
// cells are 8B instead of 16B, the IN rows of non-final passes live in
// a one-row scratch buffer (nothing ever reads them again), and the
// buffers are reshaped without refilling between warm solves (every
// cell the result exposes is written before it is read).
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
  DistanceValue *DI = Result.In.data();
  DistanceValue *DO = Result.Out.data();
  for (size_t C = 0; C != CF.cells(); ++C) {
    DI[C] = Fill;
    DO[C] = Fill;
  }
  Result.Converged = true;
  Result.Outcome = SolveOutcome::Degraded;
  Result.Breach = Reason;
}

class KernelSolver {
public:
  KernelSolver(const CompiledFlowProgram &CF, const SolverOptions &Opts,
               SolveResult &Result, std::vector<uint64_t> &InBuf,
               std::vector<uint64_t> &OutBuf,
               std::vector<uint64_t> &ScratchBuf)
      : CF(CF), Opts(Opts), Result(Result), In(InBuf.data()),
        Out(OutBuf.data()), Scratch(ScratchBuf.data()), T(CF.NumTracked),
        // Change-tracked passes diff against the previous IN rows and
        // history snapshots unpack the IN matrix after every pass, so
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
    // Without RealIn the final fast pass already exported both
    // matrices row by row; nothing is left to unpack.
    if (RealIn)
      unpackInto(Result.In, Result.Out);
  }

private:
  /// Budget breach: skip the remaining passes (and the unpack) and
  /// expose the conservative fill directly in the result matrices.
  /// Checked at the same pass boundaries as the reference solver, so
  /// under identical deterministic breaches (visits, failpoints) both
  /// engines degrade at the same point to the same bits.
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
      uint64_t *InRow = RealIn ? In + static_cast<size_t>(Node) * T : Scratch;
      uint64_t *OutRow = Out + static_cast<size_t>(Node) * T;
      if (Node == CF.SourceNode)
        std::fill(InRow, InRow + T, packed::NoInstance);
      else
        meetRow(Node, InRow);
      std::copy(InRow, InRow + T, OutRow);
      for (uint32_t K = CF.GenOffsets[Node]; K != CF.GenOffsets[Node + 1];
           ++K)
        OutRow[CF.GenCols[K]] = packed::AllInstances;
    }
    Result.NodeVisits += static_cast<unsigned>(CF.Order.size());
  }

  /// The may-problem initial guess: bottom (= all instances) everywhere.
  /// The IN matrix only needs the guess when the pass loop will read it
  /// (change tracking) or expose it (history).
  void initMay() {
    std::fill(Out, Out + CF.cells(), packed::AllInstances);
    if (RealIn)
      std::fill(In, In + CF.cells(), packed::AllInstances);
  }

  /// Whole-row meet over the working predecessors into \p Dst.
  void meetRow(unsigned Node, uint64_t *Dst) {
    const uint32_t *P = CF.Preds.data() + CF.PredOffsets[Node];
    unsigned K = CF.PredOffsets[Node + 1] - CF.PredOffsets[Node];
    assert(K != 0 && "flow graph node without predecessors");
    const uint64_t *First = Out + static_cast<size_t>(P[0]) * T;
    std::copy(First, First + T, Dst);
    for (unsigned I = 1; I != K; ++I) {
      const uint64_t *S = Out + static_cast<size_t>(P[I]) * T;
      if (CF.IsMust)
        simd::minInto(Dst, S, T);
      else
        simd::maxInto(Dst, S, T);
    }
  }

  /// Whole-row flow application into \p OutRow: the dense preserve
  /// sweep plus the sparse generate patch for body nodes, the
  /// saturating increment at the exit node. Exactly applyNode's
  /// case analysis: min(in, p), then max with pack(0) and min with the
  /// post-generation constant at generating cells only.
  void applyRow(unsigned Node, const uint64_t *InRow, uint64_t *OutRow) {
    if (Node == CF.ExitNode) {
      simd::increment(OutRow, InRow, T, CF.IncBound);
      return;
    }
    simd::minRows(OutRow, InRow,
                  CF.Preserve.data() + static_cast<size_t>(Node) * T, T);
    for (uint32_t K = CF.GenOffsets[Node]; K != CF.GenOffsets[Node + 1];
         ++K) {
      uint32_t C = CF.GenCols[K];
      OutRow[C] = std::min(std::max(OutRow[C], packed::Zero), CF.GenQ[K]);
    }
  }

  /// One pass of the paper schedule: no change tracking, maximal
  /// vectorizability. Without RealIn the packed IN matrix is never
  /// materialized at all: non-final meets land in the one-row scratch
  /// (or are the single predecessor's OUT row itself, untouched), and
  /// the final pass unpacks each meet row straight into the result's
  /// IN matrix -- the row is in cache right here, so the fused unpack
  /// replaces a full packed-IN write plus a cold re-read at the end.
  void passFast(bool Final) {
    for (unsigned Node : CF.Order) {
      const uint64_t *InRow;
      if (RealIn) {
        uint64_t *Dst = In + static_cast<size_t>(Node) * T;
        meetRow(Node, Dst);
        InRow = Dst;
      } else {
        unsigned K = CF.PredOffsets[Node + 1] - CF.PredOffsets[Node];
        if (K == 1) {
          // A one-predecessor meet is that row; skip the copy. Exact
          // self-aliasing in applyRow is safe: every row op loads its
          // lane before storing it.
          const uint32_t *P = CF.Preds.data() + CF.PredOffsets[Node];
          InRow = Out + static_cast<size_t>(P[0]) * T;
        } else {
          meetRow(Node, Scratch);
          InRow = Scratch;
        }
        if (Final)
          simd::unpack(Result.In.data() + static_cast<size_t>(Node) * T,
                       InRow, T);
      }
      uint64_t *OutRow = Out + static_cast<size_t>(Node) * T;
      applyRow(Node, InRow, OutRow);
      // Each node is applied exactly once per pass, so its OUT row is
      // final right here -- export it while it is still hot instead of
      // re-streaming the whole matrix afterwards.
      if (Final && !RealIn)
        simd::unpack(Result.Out.data() + static_cast<size_t>(Node) * T,
                     OutRow, T);
    }
    Result.NodeVisits += static_cast<unsigned>(CF.Order.size());
  }

  /// One IterateToFixpoint pass with an XOR change accumulator (packed
  /// equality is value equality). The scratch row holds each node's
  /// previous OUT so the diff can be taken after the sparse patch.
  bool passTracked() {
    uint64_t Diff = 0;
    for (unsigned Node : CF.Order) {
      uint64_t *InRow = In + static_cast<size_t>(Node) * T;
      uint64_t *OutRow = Out + static_cast<size_t>(Node) * T;
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

  void unpackInto(DistanceMatrix &MIn, DistanceMatrix &MOut) const {
    simd::unpack(MIn.data(), In, CF.cells());
    simd::unpack(MOut.data(), Out, CF.cells());
  }

  void snapshot(std::string Label) {
    if (!Opts.RecordHistory)
      return;
    PassSnapshot S;
    S.Label = std::move(Label);
    S.In.reset(CF.NumNodes, T);
    S.Out.reset(CF.NumNodes, T);
    unpackInto(S.In, S.Out);
    Result.History.push_back(std::move(S));
  }

  const CompiledFlowProgram &CF;
  const SolverOptions &Opts;
  SolveResult &Result;
  uint64_t *In;
  uint64_t *Out;
  uint64_t *Scratch;
  const unsigned T;
  const bool RealIn;
};

/// Mirrors resetResult in Framework.cpp and additionally shapes the
/// packed buffers, reusing every allocation; true when anything grew.
/// Shaping never refills retained cells: the kernel writes every cell
/// of both result matrices (unpackInto) and of every packed row it ever
/// reads, so a refill would only stream stale megabytes through cache.
bool resetKernel(SolveResult &Result, std::vector<uint64_t> &InBuf,
                 std::vector<uint64_t> &OutBuf,
                 std::vector<uint64_t> &ScratchBuf,
                 const CompiledFlowProgram &CF, const SolverOptions &Opts) {
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
  // A matrix-cell breach skips all solving, so the packed working set
  // is never materialized -- the point of the cap.
  if (Opts.Budget.MaxMatrixCells != 0 &&
      CF.cells() > Opts.Budget.MaxMatrixCells)
    return GrewIn || GrewOut;
  size_t CapIn = InBuf.capacity();
  size_t CapOut = OutBuf.capacity();
  size_t CapScratch = ScratchBuf.capacity();
  // The plain paper schedule unpacks IN rows straight out of the final
  // pass (see passFast), so the packed IN matrix exists only for modes
  // that read or snapshot it.
  if (Opts.RecordHistory ||
      Opts.Strat == SolverOptions::Strategy::IterateToFixpoint)
    InBuf.resize(CF.cells());
  OutBuf.resize(CF.cells());
  ScratchBuf.resize(CF.NumTracked);
  return GrewIn || GrewOut || InBuf.capacity() != CapIn ||
         OutBuf.capacity() != CapOut || ScratchBuf.capacity() != CapScratch;
}

/// Runs the packed kernel over \p CF into \p Result, with per-solve
/// span and counter telemetry (inert when no context is installed).
void runKernel(const CompiledFlowProgram &CF, const SolverOptions &Opts,
               SolveResult &Result, std::vector<uint64_t> &InBuf,
               std::vector<uint64_t> &OutBuf,
               std::vector<uint64_t> &ScratchBuf) {
  telem::Span S("solve", "solver", CF.ProblemName.c_str());
  telem::LatencyTimer LT(telem::Histo::SolveNs);
  detail::BudgetGuard Guard(Opts.Budget, CF.IsMust, CF.NumNodes,
                            CF.NumTracked);
  if (BreachReason Cells = Guard.checkCells();
      Cells != BreachReason::None)
    fillDegraded(Result, CF, Cells);
  else
    KernelSolver(CF, Opts, Result, InBuf, OutBuf, ScratchBuf).run(Guard);
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
  std::vector<uint64_t> InBuf, OutBuf, ScratchBuf;
  resetKernel(Result, InBuf, OutBuf, ScratchBuf, CF, Opts);
  runKernel(CF, Opts, Result, InBuf, OutBuf, ScratchBuf);
  return Result;
}

const SolveResult &ardf::solveCompiled(const CompiledFlowProgram &CF,
                                       SolveWorkspace &WS,
                                       const SolverOptions &Opts) {
  if (resetKernel(WS.Result, WS.PackedIn, WS.PackedOut, WS.PackedScratch, CF,
                  Opts))
    ++WS.Growths;
  ++WS.Solves;
  runKernel(CF, Opts, WS.Result, WS.PackedIn, WS.PackedOut,
            WS.PackedScratch);
  return WS.Result;
}

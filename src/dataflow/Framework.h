//===- dataflow/Framework.h - Flow functions and solver --------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FrameworkInstance materializes the equation system of Section 3.2 for
/// one loop and one (G, K) problem: the tracked reference tuple, the pr
/// predicate, and per-node flow functions (generate f(x) = max(x, 0),
/// preserve f(x) = min(x, p), exit f(x) = x++). solveDataFlow computes
/// the greatest fixed point with the paper's pass schedule:
///
///   must: one initialization pass plus two reverse-postorder passes
///         (3 * N node visits),
///   may:  two reverse-postorder passes from the all-instances initial
///         guess (2 * N node visits).
///
/// Backward problems run the same machinery over the reversed graph; the
/// IN tuple of a backward solution describes node *exit* information
/// (Section 3.4, footnote in Section 4.2.1).
///
/// IN/OUT tuples are stored flat (DistanceMatrix); the pass loops of
/// both engines perform no heap allocation, so a solve's only blocks are
/// its two result matrices. The problem-independent inputs (reference
/// universe, traversal order, predecessor lists) can be borrowed from a
/// LoopAnalysisSession instead of recomputed per instance.
///
/// Two solver engines share this interface (SolverOptions::Engine): the
/// scalar Reference solver below, which implements every mode, and the
/// branch-free PackedKernel solver over a lowered CompiledFlowProgram
/// (CompiledFlow.h), which runs the paper schedule only and produces
/// bit-identical results.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_DATAFLOW_FRAMEWORK_H
#define ARDF_DATAFLOW_FRAMEWORK_H

#include "dataflow/DistanceMatrix.h"
#include "dataflow/PreserveConstant.h"
#include "dataflow/Problem.h"
#include "dataflow/SolverBudget.h"
#include "lattice/Distance.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ardf {

/// A data flow value tuple indexed by tracked-reference position (the
/// owning flavor; solutions store rows inside a DistanceMatrix).
using DistanceTuple = std::vector<DistanceValue>;

/// Snapshot of all IN/OUT tuples after one solver pass (used to
/// regenerate the paper's Table 1).
struct PassSnapshot {
  std::string Label;
  DistanceMatrix In;
  DistanceMatrix Out;
};

struct SolveProvenance;

/// Result of a data flow solve.
struct SolveResult {
  /// IN/OUT tuples per flow graph node (original node ids). For backward
  /// problems IN[n] holds node-exit information.
  DistanceMatrix In;
  DistanceMatrix Out;

  /// Total node visits performed (the paper's cost metric; 3*N resp.
  /// 2*N for the prescribed schedules).
  unsigned NodeVisits = 0;

  /// Iteration passes performed after initialization.
  unsigned Passes = 0;

  /// Lattice meet operations the solve performed: one per extra working
  /// predecessor per tracked component per meet evaluation (identical
  /// across engines; derived from the orientation's meet-edge counts).
  uint64_t MeetOps = 0;

  /// Flow function applications: node visits of the iteration passes
  /// times tracked components (initialization applies no flow function).
  uint64_t ApplyOps = 0;

  /// False only in IterateToFixpoint mode when MaxPasses was exhausted.
  bool Converged = true;

  /// How the solve ended. Degraded results are sound but imprecise: on
  /// a budget breach or injected fault every cell holds the conservative
  /// fill (NoInstance for must, AllInstances for may); on
  /// NonConvergence the matrices hold the last iterate, which for these
  /// descending chains is likewise conservative.
  SolveOutcome Outcome = SolveOutcome::Ok;

  /// Why the solve degraded (None when Outcome is Ok).
  BreachReason Breach = BreachReason::None;

  bool ok() const { return Outcome == SolveOutcome::Ok; }

  /// Per-pass snapshots when SolverOptions::RecordHistory is set.
  std::vector<PassSnapshot> History;

  /// Full derivation recording when SolverOptions::RecordProvenance is
  /// set (reference engine only); null otherwise. Shared so the session
  /// solution cache and explain consumers can hold it past the solve.
  std::shared_ptr<const SolveProvenance> Provenance;
};

/// Solver configuration.
struct SolverOptions {
  enum class Strategy {
    /// The paper's schedule: fixed pass counts guaranteed by (weak)
    /// idempotence of the flow functions.
    PaperSchedule,
    /// Iterate reverse-postorder passes until stable (used to verify the
    /// pass-count claims empirically and by the naive baseline bench).
    IterateToFixpoint
  };

  enum class Engine {
    /// The scalar DistanceValue solver (the executable specification):
    /// every strategy, history and provenance.
    Reference,
    /// The branch-free packed kernel over a CompiledFlowProgram
    /// (bit-identical results; see CompiledFlow.h). It runs only the
    /// paper schedule with no history and no provenance; a request for
    /// any verification mode runs on the Reference instead (see
    /// usesPackedKernel). Through a LoopAnalysisSession the compiled
    /// program is memoized per instance; a direct solveDataFlow call
    /// compiles on the fly.
    PackedKernel
  };

  Strategy Strat = Strategy::PaperSchedule;
  Engine Eng = Engine::Reference;
  unsigned MaxPasses = 64;
  bool RecordHistory = false;

  /// Records a full derivation (dataflow/Provenance.h) into
  /// SolveResult::Provenance. Runs on the scalar reference path under
  /// either engine -- the packed kernel stays untouched and fast -- so
  /// explain flows re-solve on demand and cross-check against the
  /// cached packed result. Off on every hot path.
  bool RecordProvenance = false;

  /// Resource ceilings for each solve (default: nothing enforced). Part
  /// of the options identity below, so session solution caches never
  /// serve a result computed under a different budget.
  SolverBudget Budget;

  friend bool operator==(const SolverOptions &A, const SolverOptions &B) {
    return A.Strat == B.Strat && A.Eng == B.Eng &&
           A.MaxPasses == B.MaxPasses &&
           A.RecordHistory == B.RecordHistory &&
           A.RecordProvenance == B.RecordProvenance &&
           A.Budget == B.Budget;
  }
  friend bool operator!=(const SolverOptions &A, const SolverOptions &B) {
    return !(A == B);
  }

  /// True when solves run the packed kernel over a compiled program:
  /// the packed engine with the paper schedule, no history and no
  /// provenance. Every other combination runs on the Reference, whose
  /// result is bit-identical by the engines' oracle contract. The one
  /// predicate solveDataFlow and LoopAnalysisSession::solve dispatch on.
  bool usesPackedKernel() const {
    return Eng == Engine::PackedKernel &&
           Strat == Strategy::PaperSchedule && !RecordHistory &&
           !RecordProvenance;
  }
};

/// CLI name of \p E: "reference", "packed".
const char *engineName(SolverOptions::Engine E);

/// Parses a CLI engine name into \p Out; false when \p Name is not a
/// known engine (callers turn that into a usage error rather than
/// silently falling back).
bool parseEngineName(std::string_view Name, SolverOptions::Engine &Out);

/// Every engine name parseEngineName accepts, comma-separated (e.g. for
/// usage text and unknown-name diagnostics): the single authority the
/// CLI tools share, so a new engine shows up everywhere at once.
const char *engineNameList();

class FrameworkInstance;
struct CompiledFlowProgram;
struct SolveProvenance;

/// Memoized preserve constants. The p constant of Section 3.1.2 depends
/// only on the (preserved, killer) access-class pair, the pr value, the
/// problem mode and direction, and the trip count -- not on which
/// problem asked. One dense table per (mode, direction), indexed by
/// ReferenceUniverse::classPairIndex and pr, serves every killer
/// occurrence of a class and every instance sharing the cache (a
/// LoopAnalysisSession passes its cache to all of its instances; trip
/// count is fixed per loop, so it stays out of the key). A table is
/// allocated on the first instance of its (mode, direction). Not
/// thread-safe: shared only within one session, which is
/// single-threaded by contract.
class PreserveCache {
public:
  /// Lookup hits and misses observed since construction (a hit means the
  /// rational preserve arithmetic was skipped; the cross-instance
  /// sharing metric the telemetry layer reports).
  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }

private:
  friend class FrameworkInstance;
  /// Entry (classPairIndex * 2 + pr) of one (mode, direction): the
  /// constant, valid once Known is set.
  struct Table {
    std::vector<DistanceValue> Values;
    std::vector<char> Known;
  };
  Table Tables[4];
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

/// Problem-independent traversal tables of one loop graph in one working
/// orientation: the node order (forward: reverse postorder; backward:
/// the reversed sequence) and the working predecessor lists. Computed
/// once per (loop, direction) and shared across framework instances by
/// LoopAnalysisSession.
struct LoopOrientation {
  FlowDirection Direction = FlowDirection::Forward;
  std::vector<unsigned> Order;
  std::vector<std::vector<unsigned>> Preds;

  /// Meet operations one tracked component costs per full pass: the sum
  /// over nodes of (working predecessors - 1). NoSource excludes the
  /// working source (the must-initialization pass skips it). Computed
  /// once here so per-solve operation accounting is O(1).
  unsigned MeetEdgesAll = 0;
  unsigned MeetEdgesNoSource = 0;

  /// Intra-iteration reachability in the working orientation as bit
  /// rows of ReachWords words: bit n of row m is set when m reaches n
  /// (forward) or n reaches m (backward) within one iteration. The pr
  /// predicate of a tracked reference is the complement of the OR of
  /// its generating nodes' rows.
  unsigned ReachWords = 0;
  std::vector<uint64_t> Reach;
  const uint64_t *reachRow(unsigned Node) const {
    return Reach.data() + size_t(Node) * ReachWords;
  }

  static LoopOrientation compute(const LoopFlowGraph &Graph,
                                 FlowDirection Dir);
};

/// A fully instantiated framework: loop graph + problem + flow functions.
class FrameworkInstance {
public:
  /// Instantiates the problem over \p Graph. A non-empty \p IVOverride
  /// analyzes the body with respect to an enclosing loop's induction
  /// variable (Section 3.6); the local one becomes a symbolic constant
  /// and the trip count is taken from \p TripOverride (the enclosing
  /// loop's, unknown by default).
  FrameworkInstance(const LoopFlowGraph &Graph, const Program &P,
                    ProblemSpec Spec, const std::string &IVOverride = "",
                    int64_t TripOverride = UnknownTripCount);

  /// Batched form: borrows the memoized problem-independent tables of a
  /// LoopAnalysisSession instead of recomputing them. \p Universe and
  /// \p Orient must outlive the instance and \p Orient's direction must
  /// match the problem's. \p TripCount is the lattice saturation bound.
  /// A non-null \p SharedCache memoizes preserve constants across all
  /// instances built against it; it must have been used only with the
  /// same universe and trip count.
  FrameworkInstance(const ReferenceUniverse &Universe,
                    const LoopOrientation &Orient, ProblemSpec Spec,
                    int64_t TripCount, PreserveCache *SharedCache = nullptr);

  /// The trip count the lattice saturates at.
  int64_t getTripCount() const { return TripCount; }

  const LoopFlowGraph &getGraph() const { return *Graph; }
  const ReferenceUniverse &getUniverse() const { return *Universe; }
  const ProblemSpec &getSpec() const { return Spec; }

  /// The tracked (generating) references, in tuple order. Without
  /// GroupByAccess every tuple element is a single occurrence; with it,
  /// an element is an equivalence class of same-access occurrences and
  /// getTracked returns the first member as representative.
  unsigned getNumTracked() const { return Groups.size(); }
  const RefOccurrence &getTracked(unsigned Idx) const {
    return Universe->occurrence(Groups[Idx].front());
  }

  /// All member occurrence ids of tuple element \p Idx.
  const std::vector<unsigned> &trackedMembers(unsigned Idx) const {
    return Groups[Idx];
  }

  /// Maps an occurrence id to its tuple position, or -1 if untracked.
  int trackedIndexOf(unsigned OccId) const { return OccToTracked[OccId]; }

  /// The tracked indices whose references name array \p Array
  /// (ReferenceUniverse::arrayId), ascending. Kills and reuse only
  /// connect same-array references, so a killer or a sink visits this
  /// bucket instead of the whole tuple.
  std::span<const unsigned> trackedOfArray(unsigned Array) const {
    return {ByArray.data() + ArrayBegin[Array],
            ByArray.data() + ArrayBegin[Array + 1]};
  }

  /// The distinct access classes of trackedOfArray(\p Array), in order
  /// of first appearance. Extraction resolves a sink's class-pair
  /// distances for these classes once, then reads them per element.
  std::span<const unsigned> trackedClassesOfArray(unsigned Array) const {
    return {ClassesByArray.data() + ArrayClassBegin[Array],
            ClassesByArray.data() + ArrayClassBegin[Array + 1]};
  }

  /// Access class shared by every member of tuple element \p Idx.
  unsigned trackedClass(unsigned Idx) const { return TrackedClass[Idx]; }

  /// pr(d, n) for tracked index \p Idx at node \p Node, evaluated in the
  /// working orientation (Section 3.1.2; successors for backward
  /// problems). For a grouped element, 0 when any member's node reaches
  /// \p Node intra-iteration.
  int64_t pr(unsigned Idx, unsigned Node) const {
    return Pr[size_t(Node) * Groups.size() + Idx];
  }

  /// True if tracked reference \p Idx is generated in node \p Node.
  bool generatesAt(unsigned Idx, unsigned Node) const {
    return GenAt[Node * Groups.size() + Idx];
  }

  /// The preserve constant applied to tracked reference \p Idx at node
  /// \p Node (AllInstances when the node contains no killer for it).
  /// At the generating node itself this is the pre-generation phase; see
  /// preserveAfterGen.
  DistanceValue preserveAt(unsigned Idx, unsigned Node) const {
    return Preserve[Node * Groups.size() + Idx];
  }

  /// Within one statement, uses execute before the definition. A killer
  /// positioned after the generation point of tracked reference \p Idx
  /// in a generating node (e.g. the def killing a same-statement use's
  /// value in a forward problem, or a same-statement use killing the
  /// store's busyness in a backward problem) must apply after the
  /// generate function, with the fresh distance-0 instance in range.
  /// Kept for generating cells only: pre generatesAt(Idx, Node).
  DistanceValue preserveAfterGen(unsigned Idx, unsigned Node) const {
    return PreserveAfter[genSlot(Idx, Node)];
  }

  /// The constant reuse distance delta with From(i - delta) == To(i)
  /// for all i, between same-array access classes \p FromClass and
  /// \p ToClass, when one exists and is an integer (constantReuseDistance
  /// of the classes' affine views). Memoized per class pair on first
  /// use, so reuse-pair extraction does no affine arithmetic per
  /// occurrence pair.
  std::optional<int64_t> reuseDistance(unsigned FromClass,
                                       unsigned ToClass) const;

  /// minOverlapDistance of the same-array access classes \p FromClass
  /// and \p ToClass at pr value \p Pr over this instance's iteration
  /// space (getTripCount(): the enclosing loop's in a with-respect-to
  /// instance). Memoized per (class pair, pr) on first use.
  std::optional<int64_t> overlapDistance(unsigned FromClass,
                                         unsigned ToClass, int64_t Pr) const;

  /// Applies the node flow function f_n to one tuple component.
  DistanceValue applyNode(unsigned Node, unsigned Idx,
                          DistanceValue In) const;

  /// Node order of the working orientation (forward: RPO; backward:
  /// reversed RPO). The first node is the working source.
  const std::vector<unsigned> &workingOrder() const { return Orient->Order; }

  /// Predecessors in the working orientation.
  const std::vector<unsigned> &workingPreds(unsigned Node) const {
    return Orient->Preds[Node];
  }

  /// Meet operations one tracked component costs per pass (see
  /// LoopOrientation::MeetEdgesAll/MeetEdgesNoSource).
  unsigned meetEdges(bool ExcludeSource) const {
    return ExcludeSource ? Orient->MeetEdgesNoSource
                         : Orient->MeetEdgesAll;
  }

  /// The meet of the problem: min for must, max for may.
  DistanceValue meet(DistanceValue A, DistanceValue B) const {
    return Spec.isMust() ? DistanceValue::min(A, B)
                         : DistanceValue::max(A, B);
  }

  /// Renders the tracked tuple header, e.g. "(C[i+2], B[2*i], C[i], B[i])".
  std::string tupleHeader() const;

private:
  /// Lowering points the packed kernel at the node-major cell tables
  /// below; it reads them in place.
  friend struct CompiledFlowProgram;

  void selectTracked();
  void computePr();
  void computePreserves();

  /// Position of generating cell (\p Idx, \p Node) in GenCols.
  size_t genSlot(unsigned Idx, unsigned Node) const;

  const LoopFlowGraph *Graph;
  ProblemSpec Spec;
  int64_t TripCount;
  /// Owned in the standalone constructor, borrowed in the batched one.
  std::unique_ptr<ReferenceUniverse> OwnedUniverse;
  const ReferenceUniverse *Universe;
  std::unique_ptr<LoopOrientation> OwnedOrient;
  const LoopOrientation *Orient;
  std::unique_ptr<PreserveCache> OwnedCache;
  PreserveCache *Cache;
  std::vector<std::vector<unsigned>> Groups;
  std::vector<int> OccToTracked;
  std::vector<unsigned> TrackedClass;
  /// trackedOfArray buckets: ByArray[ArrayBegin[a], ArrayBegin[a+1]);
  /// trackedClassesOfArray likewise over ClassesByArray.
  std::vector<unsigned> ArrayBegin;
  std::vector<unsigned> ByArray;
  std::vector<unsigned> ArrayClassBegin;
  std::vector<unsigned> ClassesByArray;
  /// Node-major (Node * getNumTracked() + Idx) cell tables.
  std::vector<char> GenAt;
  std::vector<uint8_t> Pr;
  std::vector<DistanceValue> Preserve;
  /// The generating cells, node-major: node n's tracked indices are
  /// GenCols[GenBegin[n], GenBegin[n+1]), ascending; PreserveAfter runs
  /// parallel to GenCols.
  std::vector<unsigned> GenBegin;
  std::vector<unsigned> GenCols;
  std::vector<DistanceValue> PreserveAfter;
  /// Extraction memos, filled on first use: per class pair, resp. per
  /// (class pair, pr); an empty outer optional means not yet computed.
  mutable std::vector<std::optional<std::optional<int64_t>>> ReuseMemo;
  mutable std::vector<std::optional<std::optional<int64_t>>> OverlapMemo;
};

/// Solves the equation system of \p FW (Section 3.2): on the packed
/// kernel when Opts.usesPackedKernel(), otherwise on the Reference.
SolveResult solveDataFlow(const FrameworkInstance &FW,
                          const SolverOptions &Opts = SolverOptions());

/// Formats one tuple like the paper's Table 1 rows: "(2, 1, _, T)".
std::string tupleToString(const DistanceTuple &T);
std::string tupleToString(DistanceMatrix::ConstRow Row);

} // namespace ardf

#endif // ARDF_DATAFLOW_FRAMEWORK_H

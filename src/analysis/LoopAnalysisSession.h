//===- analysis/LoopAnalysisSession.h - Cached per-loop analysis -*- C++ -*-==//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A LoopAnalysisSession is constructed once per loop and then hands out
/// framework instances and solutions for any number of (G, K) problems
/// without re-parsing the loop body: the flow graph, reference universe,
/// and both traversal orientations are built once and shared, so the
/// four paper problems (register pipelining runs delta-available values;
/// load/store elimination adds the per-occurrence variants and delta-busy
/// stores; unrolling adds delta-reaching references) pay the
/// problem-independent preprocessing exactly once. Instances and
/// solutions are memoized by problem parameters, so clients can ask
/// repeatedly for free.
///
/// \code
///   LoopAnalysisSession S(P, *P.getFirstLoop());
///   const SolveResult &Avail = S.solve(ProblemSpec::availableValues());
///   const SolveResult &Busy = S.solve(ProblemSpec::busyStores());
/// \endcode
///
/// Sessions on distinct loops share no mutable state, which is the
/// invariant the parallel ProgramAnalysisDriver builds on. One session
/// must only be used from one thread at a time.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_ANALYSIS_LOOPANALYSISSESSION_H
#define ARDF_ANALYSIS_LOOPANALYSISSESSION_H

#include "dataflow/CompiledFlow.h"
#include "dataflow/Framework.h"

#include <memory>
#include <string>
#include <vector>

namespace ardf {

struct NestLoop;

/// A discovered recurrent access pattern: the instance of \p SourceId
/// generated \p Distance iterations earlier is guaranteed (must-problems)
/// or possible (may-problems) to be the one \p SinkId touches.
struct ReusePair {
  /// Occurrence id of the generating reference (tracked).
  unsigned SourceId;

  /// Occurrence id of the consuming reference.
  unsigned SinkId;

  /// Iteration distance between generation and reuse (>= 0; 0 means the
  /// same iteration).
  int64_t Distance;
};

/// Enumerates reuse pairs from a solved instance: for every occurrence
/// matching \p SinkSel and every tracked reference, reports a pair when
/// a constant iteration distance exists and lies within the solved range
/// [pr(d, n), IN[n, d]]. The sink's own generation site is skipped.
std::vector<ReusePair> collectReusePairs(const FrameworkInstance &FW,
                                         const SolveResult &Result,
                                         RefSelector SinkSel);

/// Hit/miss tallies of every cache a session keeps, one pair per cache:
/// framework instances, solutions, compiled flow programs, and the
/// shared preserve-constant cache. A hit means the memoized object was
/// returned; a miss means it was built (so misses equal the counts the
/// old hits-excluded accessors reported). Mirrored into the telemetry
/// counters when a telemetry context is installed.
struct SessionCacheStats {
  uint64_t InstanceHits = 0;
  uint64_t InstanceMisses = 0;
  uint64_t SolutionHits = 0;
  uint64_t SolutionMisses = 0;
  uint64_t CompiledHits = 0;
  uint64_t CompiledMisses = 0;
  uint64_t PreserveHits = 0;
  uint64_t PreserveMisses = 0;
};

/// Cached per-loop analysis state: owns the problem-independent tables
/// of one loop and memoizes framework instances and solutions per
/// problem.
class LoopAnalysisSession {
public:
  /// Builds the session for \p Loop. A non-empty \p WithRespectTo
  /// analyzes the body with respect to an enclosing loop's induction
  /// variable (Section 3.6); the local one becomes a symbolic constant
  /// and the trip count is taken from \p EnclosingTripCount. Such a
  /// session knows only the scalars \p Loop writes, not those the
  /// enclosing loop writes around it; a level of a loop nest is built
  /// with the NestLoop constructor below, which knows both.
  LoopAnalysisSession(const Program &P, const DoLoopStmt &Loop,
                      const std::string &WithRespectTo = "",
                      int64_t EnclosingTripCount = UnknownTripCount);

  /// Builds nest level \p Level of \p Loop (Section 3.6): \p Loop's
  /// analyzed form with respect to \p Level's induction variable over
  /// \p Level's trip count, where a subscript over a scalar that varies
  /// between \p Level's iterations (NestLoop::writtenAtLevel) is
  /// untrackable. \p Level is a supported ancestor of \p Loop.
  LoopAnalysisSession(const Program &P, const NestLoop &Loop,
                      const NestLoop &Level);

  const Program &program() const { return *Prog; }
  const DoLoopStmt &loop() const { return *TheLoop; }
  const LoopFlowGraph &graph() const { return *Graph; }
  const ReferenceUniverse &universe() const { return *Universe; }

  /// The trip count instances of this session saturate at.
  int64_t tripCount() const { return TripCount; }

  /// False for a reuse at least the known trip count after its source:
  /// it only reads the preheader fill, which the fact does not cover
  /// (the exit increment saturates trip - 2 or more, hiding a kill).
  bool reuseWithinTrip(int64_t Distance) const {
    return TripCount == UnknownTripCount || Distance < TripCount;
  }

  /// The memoized framework instance for \p Spec (built on first use;
  /// problems are identified by their (G, K, mode, direction, grouping)
  /// parameters, not their name).
  const FrameworkInstance &instance(const ProblemSpec &Spec);

  /// The memoized solution for (\p Spec, \p Opts). The reference stays
  /// valid for the lifetime of the session. When Opts.usesPackedKernel()
  /// the solve runs the packed kernel over the memoized compiled flow
  /// program (bit-identical results; distinct cache entry from the
  /// reference engine's); every other request runs on the Reference.
  const SolveResult &solve(const ProblemSpec &Spec,
                           const SolverOptions &Opts = SolverOptions());

  /// The memoized compiled flow program of \p Spec's instance (lowered
  /// on first use; what the packed engine solves against). It reads the
  /// instance's cell tables in place; the session owns both.
  const CompiledFlowProgram &compiledFlow(const ProblemSpec &Spec);

  /// Reuse pairs of \p Spec's solution (solving first if needed).
  std::vector<ReusePair> reusePairs(const ProblemSpec &Spec,
                                    RefSelector SinkSel,
                                    const SolverOptions &Opts =
                                        SolverOptions());

  /// Source text of occurrence \p OccId's array reference ("A[i + 1]"),
  /// printed on first request and memoized for the session's lifetime.
  const std::string &occurrenceText(unsigned OccId);

  /// Distinct framework instances built so far.
  unsigned instancesBuilt() const { return Instances.size(); }

  /// Preserve constants memoized across this session's instances.
  const PreserveCache &preserveCache() const { return Cache; }

  /// Hit/miss tallies of every session cache (the preserve pair is read
  /// from the shared cache at call time).
  SessionCacheStats cacheStats() const {
    SessionCacheStats S = Stats;
    S.PreserveHits = Cache.hits();
    S.PreserveMisses = Cache.misses();
    return S;
  }

  /// Solver runs performed so far. Exactly the solution-cache misses of
  /// cacheStats(); kept for callers that only care about solve count.
  unsigned solvesPerformed() const {
    return static_cast<unsigned>(Stats.SolutionMisses);
  }

private:
  /// The constructors above: \p EnclosingWrites are the scalars that
  /// vary between the enclosing level's iterations.
  LoopAnalysisSession(const Program &P, const DoLoopStmt &Loop,
                      const std::string &WithRespectTo,
                      int64_t EnclosingTripCount,
                      const std::vector<std::string> &EnclosingWrites);

  const LoopOrientation &orientation(FlowDirection Dir);

  struct Instance {
    ProblemSpec Spec;
    FrameworkInstance FW;
    /// Lazily lowered packed flow program (Engine::PackedKernel). It
    /// borrows FW's tables, so it is declared after FW and destroyed
    /// first.
    std::unique_ptr<CompiledFlowProgram> Compiled;
  };

  Instance &instanceRecord(const ProblemSpec &Spec);
  struct Solution {
    ProblemSpec Spec;
    SolverOptions Opts;
    SolveResult Result;
  };

  const Program *Prog;
  const DoLoopStmt *TheLoop;
  std::unique_ptr<LoopFlowGraph> Graph;
  std::unique_ptr<ReferenceUniverse> Universe;
  int64_t TripCount;
  /// Lazily built per direction; stable addresses (instances point in).
  std::unique_ptr<LoopOrientation> Forward;
  std::unique_ptr<LoopOrientation> Backward;
  /// Preserve constants shared by every instance of this session.
  PreserveCache Cache;
  /// unique_ptr entries so handed-out references survive growth.
  std::vector<std::unique_ptr<Instance>> Instances;
  std::vector<std::unique_ptr<Solution>> Solutions;
  /// Per-cache hit/miss tallies (preserve pair lives in Cache).
  SessionCacheStats Stats;
  /// occurrenceText memo, indexed by occurrence id; empty = not printed
  /// yet (a reference never prints empty).
  std::vector<std::string> OccurrenceTexts;
};

} // namespace ardf

#endif // ARDF_ANALYSIS_LOOPANALYSISSESSION_H

//===- driver/ProgramAnalysisDriver.h - Batched program driver -*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ProgramAnalysisDriver runs a batch of data flow problems over every
/// analyzable loop of a Program. Each loop gets one LoopAnalysisSession
/// (so the problem-independent tables are built once no matter how many
/// problems run), and the per-loop work is distributed over a pool of
/// worker threads pulling loop indices from a shared queue.
///
/// Thread-safety invariant: loop analysis is embarrassingly parallel.
/// A session reads only the immutable Program and its own loop's
/// statements, and all mutable state (graph, universe, orientations,
/// memoized instances and solutions) lives inside the session. The
/// driver assigns each loop record to exactly one worker, so no two
/// threads ever touch the same mutable object; the only shared mutable
/// datum is the atomic queue cursor. Anything added to the per-loop
/// analysis must preserve this: no caches or counters global to the
/// driver may be written from analyzeLoop().
///
/// Telemetry follows the same rule locklessly: when the calling thread
/// has a telemetry context installed (telem::TelemetryScope), each
/// worker records into its own private Telemetry (and private trace
/// buffer, when the root has a sink) under a distinct thread id, and
/// run() merges counters and spans into the root context after join --
/// the workers share no telemetry state while analyzing. Workers
/// inherit the caller's request deadline (support/Deadline.h) too.
///
/// The default is Threads = 1, which runs inline on the calling thread
/// (deterministic, and what the tests use); benchmarks opt into more.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_DRIVER_PROGRAMANALYSISDRIVER_H
#define ARDF_DRIVER_PROGRAMANALYSISDRIVER_H

#include "analysis/LoopAnalysisSession.h"
#include "analysis/LoopNest.h"

#include <memory>
#include <string>
#include <vector>

namespace ardf {

/// The four problems of the paper's Section 4 clients, grouped by access:
/// must-reaching definitions, delta-available values, delta-busy stores,
/// and (may) delta-reaching references.
std::vector<ProblemSpec> paperProblems();

/// Driver configuration.
struct DriverOptions {
  /// Worker threads. 1 (the default) analyzes inline on the calling
  /// thread with no thread machinery at all.
  unsigned Threads = 1;

  /// Problems solved per loop; empty means paperProblems().
  std::vector<ProblemSpec> Problems;

  /// Also analyze nested loops (each with its own flow graph, the
  /// hierarchical process of Section 3.6). When false, only top-level
  /// loops are analyzed.
  bool IncludeNested = true;

  /// Solver options forwarded to every solve. This includes the engine:
  /// SolverOptions::Engine::PackedKernel makes every session run the
  /// compiled packed-kernel solver (bit-identical results; each session
  /// memoizes its compiled flow programs, so the invariant above holds
  /// unchanged).
  SolverOptions Solver;
};

/// One captured analysis failure inside the driver's per-loop fault
/// boundary: which phase threw and what it said. Failed solves record
/// one entry per problem; the loop's other problems still run.
struct LoopFailure {
  /// The phase that failed: "session" (building the loop's tables),
  /// "solve:<problem name>", or "deadline" (the running request's
  /// deadline, support/Deadline.h, passed before the loop was reached).
  std::string Phase;

  /// The exception's what() text.
  std::string Message;
};

/// Per-loop record of the driver.
struct AnalyzedLoop {
  /// The analyzed (reduced, normalized) form of the loop from the
  /// nesting tree -- what the session is built over. Null when the nest
  /// recognizer rejected the loop (see UnsupportedReason): no session is
  /// built and no solves run for it.
  const DoLoopStmt *Loop = nullptr;

  /// The source While/DoLoop statement the record describes.
  const Stmt *Source = nullptr;

  /// Nesting depth: 0 for top-level loops.
  unsigned Depth = 0;

  /// Slash-joined induction variables from the outermost enclosing loop
  /// down to this one ("i/j"); unsupported levels print "?".
  std::string NestPath;

  /// Why the loop was not analyzable; empty for supported loops.
  std::string UnsupportedReason;

  /// The loop's session; null until run() reaches it.
  std::unique_ptr<LoopAnalysisSession> Session;

  /// Node visits summed over this loop's solves.
  unsigned NodeVisits = 0;

  /// How this loop's analysis went: Ok, Degraded (at least one solve
  /// returned a conservative-fill result; the rest are exact), or
  /// Failed (an exception was captured -- see Failures; solves that did
  /// complete remain valid in the session cache).
  SolveOutcome Status = SolveOutcome::Ok;

  /// The first breach reason among this loop's degraded solves
  /// (None when Status is Ok).
  BreachReason Breach = BreachReason::None;

  /// Captured exceptions, in the order they occurred.
  std::vector<LoopFailure> Failures;
};

/// Batch totals by per-loop status (run() populates the records).
struct DriverReport {
  unsigned Ok = 0;
  unsigned Degraded = 0;
  unsigned Failed = 0;

  /// Loops the nest recognizer rejected (no analysis ran at all).
  unsigned Unsupported = 0;

  unsigned total() const { return Ok + Degraded + Failed + Unsupported; }
};

/// Outcome of one incremental re-analysis (see rerun()).
struct DriverRerun {
  /// Loops whose record -- session, memoized compiled programs, and
  /// solutions -- was carried over unchanged.
  unsigned Reused = 0;

  /// Loops analyzed from scratch (edited, new, or previously failed).
  unsigned Reanalyzed = 0;
};

/// Whole-program batched analysis over a worker pool.
class ProgramAnalysisDriver {
public:
  /// Enumerates the loops of \p P (innermost first, like the
  /// hierarchical analysis). No analysis runs until run().
  explicit ProgramAnalysisDriver(const Program &P,
                                 DriverOptions Opts = DriverOptions());

  /// Analyzes every enumerated loop: builds its session and solves the
  /// configured problems. Idempotent; the second call is a no-op.
  void run();

  /// Incremental re-analysis against an edited \p NewProgram (running
  /// the initial batch first if needed). Loops are diffed structurally:
  /// a new-program loop that matches a successfully analyzed old loop
  /// (equal nesting depth, DoLoopStmt::equals, and unchanged array
  /// declarations) keeps that loop's whole record -- its session with
  /// every memoized compiled program and solution stays warm, and no
  /// solver work runs for it at all. Only unmatched loops are
  /// (re)analyzed, through the same worker pool and fault boundaries as
  /// run(). This is the daemon-style warm path: with
  /// Engine::PackedKernel a small edit re-lowers exactly the touched
  /// loops' compiled programs.
  ///
  /// Lifetime: a reused session keeps referencing the program it was
  /// built against, so every program ever handed to the driver must
  /// outlive it (structural equality guarantees the retained analysis
  /// is valid for the new text). The loop records' pointers are
  /// re-anchored into \p NewProgram.
  DriverRerun rerun(const Program &NewProgram);

  const Program &program() const { return *Prog; }
  const DriverOptions &options() const { return Opts; }

  /// The current program's loop-nesting tree (reduced forms, nest
  /// paths, unsupported records).
  const LoopNestTree &nest() const { return *NestTrees.back(); }

  /// Per-loop records in analysis order (innermost before parents).
  const std::vector<AnalyzedLoop> &loops() const { return Loops; }

  /// Node visits summed over all analyzed loops (the whole-program cost
  /// metric of the paper).
  unsigned totalNodeVisits() const;

  /// Tallies loop statuses. The batch always completes: exceptions and
  /// budget breaches are captured per loop inside analyzeLoop's fault
  /// boundary and never cross the worker pool.
  DriverReport report() const;

private:
  void collectFromNest();
  void analyzeLoop(AnalyzedLoop &R) const;
  void analyzeAll(const std::vector<AnalyzedLoop *> &Work);

  const Program *Prog;
  DriverOptions Opts;
  std::vector<AnalyzedLoop> Loops;

  /// Every nesting tree the driver has built, oldest first; rerun()
  /// appends rather than replaces because reused sessions keep
  /// referencing the reduced loops owned by the tree they were built
  /// against (same lifetime rule as the programs themselves).
  std::vector<std::shared_ptr<const LoopNestTree>> NestTrees;

  bool Ran = false;
};

} // namespace ardf

#endif // ARDF_DRIVER_PROGRAMANALYSISDRIVER_H

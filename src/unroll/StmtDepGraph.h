//===- unroll/StmtDepGraph.h - Statement-level dependence DAG --*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statement-level dependence graph of a loop body, built from the
/// delta-reaching-references framework instance (array dependences,
/// Section 4.3) plus scalar flow dependences. criticalPathLength
/// computes the longest dependence chain over k replicated iterations —
/// the parallelism measure l driving controlled loop unrolling.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_UNROLL_STMTDEPGRAPH_H
#define ARDF_UNROLL_STMTDEPGRAPH_H

#include "analysis/Dependence.h"
#include "ir/Program.h"

#include <vector>

namespace ardf {

/// Dependence DAG over the assignment statements of one loop body.
struct StmtDepGraph {
  /// The assignment statements, in body order (conditional assignments
  /// included).
  std::vector<const Stmt *> Stmts;

  /// A dependence edge From -> To carried over Distance iterations
  /// (0 == loop independent).
  struct Edge {
    unsigned From;
    unsigned To;
    int64_t Distance;
  };
  std::vector<Edge> Edges;

  /// True if some edge has the given carried distance.
  bool hasCarriedDistance(int64_t Distance) const;
};

/// Builds the dependence graph for \p Loop, a loop of \p P. Returns
/// nullopt unless \p P's loop-nesting tree analyzes \p Loop as written
/// and it is innermost (the unrolling strategy's targets).
std::optional<StmtDepGraph> buildStmtDepGraph(const Program &P,
                                              const DoLoopStmt &Loop);

/// Length (number of statements) of the longest dependence chain when
/// the body is replicated over \p Copies consecutive iterations. With
/// \p MaxDistance >= 0, only edges with Distance <= MaxDistance
/// participate — passing 1 yields the paper's distance-1 predictor,
/// passing a negative value uses all edges (the exact value).
unsigned criticalPathLength(const StmtDepGraph &G, unsigned Copies,
                            int64_t MaxDistance = -1);

} // namespace ardf

#endif // ARDF_UNROLL_STMTDEPGRAPH_H

//===- analysis/LoopNest.h - Loop-nesting tree + reduction -----*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The loop-nesting tree: the program's natural loops, found by one walk
/// over the statement tree and reduced — bottom-up — to the paper's
/// analyzable form. The language is structured (`do`, `while`, `if`, and
/// a `break` that exits forward), so every natural loop is a syntactic
/// loop and its CFG is never built. The walk applies the natural-loop
/// rules directly:
///
///   - A statement can complete normally unless it is a `break`, or an
///     `if` whose two branches both cannot. A loop always can.
///   - Statements after one that cannot complete normally are
///     unreachable; loops there are not in the nest.
///   - A reachable loop is in the nest only if its body can complete
///     normally; otherwise its latch (the back edge) is unreachable.
///   - A loop's parent is the nest loop whose latch control reaches
///     after the loop. Usually that is the enclosing loop; a loop
///     followed by a `break` belongs to the loop the break leads to.
///
/// Loops come out in source pre-order.
///
/// Each supported nest level yields a normalized DoLoopStmt whose body
/// has inner loops replaced by their own reduced forms, so the existing
/// LoopFlowGraph / LoopAnalysisSession machinery (and both solver
/// engines) apply unchanged per level.
///
/// Induction-variable recognition turns the counted while pattern
///
///   i = lo;
///   while (i <= E) { body...; i = i + c; }
///
/// into `do i = lo, E, c` (with <, >=, > variants adjusting the bound
/// and step sign) before normalization. Loops the recognizer rejects —
/// a break (early exit), an unrecognized while shape, a rewritten
/// induction variable, a bound the body mutates — carry an explicit
/// human-readable reason so clients (driver, lint) can surface an
/// analysis-unsupported diagnostic instead of silently skipping them.
///
/// Per-level distance vectors: a supported loop at depth d has d
/// supported ancestors; analyzing its reduced form once per ancestor
/// induction variable (the session's WithRespectTo seam, Section 3.6)
/// yields one iteration distance per nest level.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_ANALYSIS_LOOPNEST_H
#define ARDF_ANALYSIS_LOOPNEST_H

#include "ir/Program.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace ardf {

/// One loop of the nesting tree.
struct NestLoop {
  /// The source While/DoLoop statement (never null).
  const Stmt *Source = nullptr;

  NestLoop *Parent = nullptr;
  std::vector<NestLoop *> Children;

  /// Nesting depth: 0 for outermost loops.
  unsigned Depth = 0;

  /// The standalone reduced form: a normalized DO loop whose body has
  /// every inner loop replaced by its reduced form. Null when the
  /// recognizer rejected this loop (see UnsupportedReason).
  std::unique_ptr<DoLoopStmt> Reduced;

  /// The copy of this loop embedded in the outermost supported
  /// ancestor's Reduced tree — the form analysis sessions should use,
  /// since ancestor normalization substitutes ancestor induction
  /// variables through it. Equals Reduced.get() for root loops; null
  /// when unsupported.
  const DoLoopStmt *Analyzed = nullptr;

  /// Why the recognizer rejected this loop; empty when supported.
  std::string UnsupportedReason;

  /// For a DO loop: the first statement of its body (pre-order, at any
  /// depth) that assigns its induction variable, a violated Section 1
  /// precondition (the loop is rejected for it); lint reports it as an
  /// error. Null otherwise.
  const Stmt *IVAssignment = nullptr;

  /// For a recognized while: the `i = lo` init statement preceding it
  /// (subsumed by the reduced DO loop's bounds). Null otherwise.
  const Stmt *ConsumedInit = nullptr;

  bool isSupported() const { return Analyzed != nullptr; }
  bool isWhile() const { return isa<WhileStmt>(Source); }

  /// Supported, with the source as analyzed form: a normalized `do` loop
  /// whose nested loops needed no reduction. The Section 4 transforms
  /// rewrite only such loops, analyzing the program's own statements.
  bool analyzedAsWritten() const {
    return Analyzed && Analyzed->equals(*Source);
  }

  /// The induction variable of the reduced form ("" when unsupported).
  const std::string &iv() const;

  /// Constant trip count of the reduced (normalized) form, or -1.
  int64_t tripCount() const;

  /// Source location of the loop statement.
  SourceLoc loc() const { return Source->getLoc(); }

  /// Ancestors outermost-first (empty for a root loop).
  std::vector<const NestLoop *> ancestors() const;

  /// Slash-joined induction variables from the outermost ancestor down
  /// to this loop, e.g. "i/j"; unsupported levels print "?".
  std::string path() const;
};

/// The loop-nesting forest of a whole program, with every loop reduced
/// (or rejected with a reason). Construction never throws for malformed
/// loops — a per-loop fault boundary turns internal failures into
/// unsupported records — but propagates resource exhaustion
/// (std::bad_alloc) like the rest of the pipeline.
///
/// The tree keeps the program pointer; the program must outlive it
/// (sessions hand out references into both).
class LoopNestTree {
public:
  explicit LoopNestTree(const Program &P);

  const Program &program() const { return *Prog; }

  /// Depth-0 loops in source order, loops inside a top-level `if` included.
  const std::vector<NestLoop *> &roots() const { return Roots; }

  /// All loops in source pre-order (each loop before its children and
  /// the loops inside it).
  const std::vector<std::unique_ptr<NestLoop>> &all() const { return Nodes; }

  unsigned size() const { return Nodes.size(); }
  unsigned supportedCount() const { return Supported; }
  unsigned unsupportedCount() const { return Nodes.size() - Supported; }

  /// Walks all() in order.
  void forEach(const std::function<void(const NestLoop &)> &Fn) const;

  /// The nest node for a source loop statement, or null.
  const NestLoop *nodeFor(const Stmt &SourceLoop) const;

private:
  /// Walks \p Stmts, a reachable statement list: adds its nest loops in
  /// source order and reduces each after its body. \p End is the nest
  /// loop whose latch the list's end leads to, \p Break the one a
  /// `break` in the list leads to (null: none).
  void discover(const StmtList &Stmts, NestLoop *End, NestLoop *Break);
  /// \p Prev is the statement before \p L in its list, a while loop's
  /// only candidate for the `iv = lo` initialization.
  void reduce(NestLoop &L, const Stmt *Prev);
  void reduceDoLoop(NestLoop &L, const DoLoopStmt &DL);
  void reduceWhile(NestLoop &L, const WhileStmt &WS, const Stmt *Prev);
  StmtList reduceBody(const NestLoop &L, const StmtList &Body);
  void assignAnalyzedForms(NestLoop &Root);

  const Program *Prog;
  std::vector<std::unique_ptr<NestLoop>> Nodes;
  std::vector<NestLoop *> Roots;
  unsigned Supported = 0;
};

} // namespace ardf

#endif // ARDF_ANALYSIS_LOOPNEST_H

//===- transform/LoadElimination.cpp - Redundant loads (4.2.2) -----------===//

#include "transform/LoadElimination.h"

#include "analysis/LoopAnalysisSession.h"
#include "analysis/LoopNest.h"
#include "ir/IRBuilder.h"
#include "ir/PrettyPrinter.h"
#include "transform/Rewrite.h"

#include <algorithm>
#include <map>
#include <set>

using namespace ardf;

namespace {

/// Name of pipeline stage \p K for generator occurrence \p SourceId.
std::string tempName(unsigned SourceId, int64_t K) {
  return "_t" + std::to_string(SourceId) + "_" + std::to_string(K);
}

void appendTo(std::map<const Stmt *, StmtList> &Map, const Stmt *Key,
              StmtPtr S) {
  Map[Key].push_back(std::move(S));
}

/// Plans scalar replacement for one loop the nest analyzes as written,
/// so the session's occurrences are the program's own expressions.
void planLoop(LoopAnalysisSession &Session, const LoadElimOptions &Opts,
              RewritePlan &Plan, LoadElimResult &Result) {
  const DoLoopStmt &Loop = Session.loop();
  const ReferenceUniverse &U = Session.universe();

  // Candidate pairs, grouped by sink.
  std::map<unsigned, std::vector<ReusePair>> BySink;
  std::set<unsigned> AllSinks;
  for (const ReusePair &Pair : Session.reusePairs(
           ProblemSpec::availableValuesPerOccurrence(), RefSelector::Uses)) {
    const RefOccurrence &Sink = U.occurrence(Pair.SinkId);
    const RefOccurrence &Source = U.occurrence(Pair.SourceId);
    if (Sink.InSummary || Source.InSummary)
      continue;
    if (Pair.Distance > Opts.MaxDistance)
      continue;
    if (!Session.reuseWithinTrip(Pair.Distance))
      continue;
    BySink[Pair.SinkId].push_back(Pair);
    AllSinks.insert(Pair.SinkId);
  }
  if (BySink.empty())
    return;

  // Choose one source per sink: prefer definitions (their value is
  // produced anyway); a use may serve as generator only when it is not
  // itself rerouted to a temporary.
  struct Chosen {
    std::vector<std::pair<unsigned, int64_t>> Sinks; // (sinkId, delta)
    int64_t MaxDelta = 0;
  };
  std::map<unsigned, Chosen> Generators;
  for (auto &[SinkId, Pairs] : BySink) {
    std::sort(Pairs.begin(), Pairs.end(),
              [&](const ReusePair &A, const ReusePair &B) {
                bool ADef = U.occurrence(A.SourceId).IsDef;
                bool BDef = U.occurrence(B.SourceId).IsDef;
                if (ADef != BDef)
                  return ADef;
                return A.Distance < B.Distance;
              });
    const ReusePair *Best = nullptr;
    for (const ReusePair &Pair : Pairs) {
      if (!U.occurrence(Pair.SourceId).IsDef && AllSinks.count(Pair.SourceId))
        continue;
      Best = &Pair;
      break;
    }
    if (!Best)
      continue;
    Chosen &C = Generators[Best->SourceId];
    C.Sinks.emplace_back(SinkId, Best->Distance);
    C.MaxDelta = std::max(C.MaxDelta, Best->Distance);
  }

  // Phase 1: reroute every sink to its pipeline stage. All replacements
  // must be registered before any generator statement is eagerly
  // rewritten below, since a sink may sit inside another generator's
  // right-hand side.
  for (auto &[SourceId, C] : Generators) {
    const RefOccurrence &Source = U.occurrence(SourceId);
    for (const auto &[SinkId, Delta] : C.Sinks) {
      const RefOccurrence &Sink = U.occurrence(SinkId);
      Plan.ReplaceExprs[Sink.Ref] = var(tempName(SourceId, Delta));
      ++Result.LoadsEliminated;
      Result.Notes.push_back("use " + exprToString(*Sink.Ref) + " reuses " +
                             exprToString(*Source.Ref) + " from " +
                             std::to_string(Delta) + " iteration(s) earlier");
    }
  }

  // Phase 2a: use generators load stage 0 once, in front of their
  // statement; the use itself becomes a stage-0 read. These replacements
  // are registered before any def generator's statement is eagerly
  // rewritten, since a use generator may sit inside a def generator's
  // right-hand side.
  for (auto &[SourceId, C] : Generators) {
    const RefOccurrence &Source = U.occurrence(SourceId);
    if (Source.IsDef)
      continue;
    appendTo(Plan.InsertBefore, Source.OwnerStmt,
             assign(var(tempName(SourceId, 0)), Source.Ref->clone()));
    Plan.ReplaceExprs[Source.Ref] = var(tempName(SourceId, 0));
    ++Result.TempsIntroduced;
  }

  // Phase 2b: def generators materialize their value in stage 0 before
  // the store consumes it: X[f] = rhs becomes _t_0 = rhs; X[f] = _t_0.
  // rewriteExpr is applied eagerly so replacements nested inside the
  // statement compose.
  for (auto &[SourceId, C] : Generators) {
    const RefOccurrence &Source = U.occurrence(SourceId);
    if (!Source.IsDef)
      continue;
    const auto *AS = cast<AssignStmt>(Source.OwnerStmt);
    appendTo(Plan.InsertBefore, Source.OwnerStmt,
             assign(var(tempName(SourceId, 0)),
                    rewriteExpr(*AS->getRHS(), Plan)));
    appendTo(Plan.InsertBefore, Source.OwnerStmt,
             assign(rewriteExpr(*AS->getLHS(), Plan),
                    var(tempName(SourceId, 0))));
    Plan.RemoveStmts.insert(Source.OwnerStmt);
    ++Result.TempsIntroduced;
  }

  // Phase 2c: pipeline shifts and preheader initialization.
  for (auto &[SourceId, C] : Generators) {
    const RefOccurrence &Source = U.occurrence(SourceId);
    if (C.MaxDelta == 0)
      continue;

    // Pipeline shifts at the end of the body: _t_d = _t_{d-1}.
    const Stmt *LastStmt = Loop.getBody().back().get();
    for (int64_t K = C.MaxDelta; K >= 1; --K)
      appendTo(Plan.InsertAfter, LastStmt,
               assign(var(tempName(SourceId, K)),
                      var(tempName(SourceId, K - 1))));

    // Preheader initialization: stage k holds the value the generator
    // would have produced k iterations before the first one, i.e. the
    // element X[f(lower - k)] as the loop begins.
    for (int64_t K = 1; K <= C.MaxDelta; ++K) {
      std::vector<ExprPtr> Subs;
      ExprPtr Shifted = sub(Loop.getLower()->clone(), lit(K));
      for (const ExprPtr &S : Source.Ref->subscripts())
        Subs.push_back(substituteScalar(*S, Loop.getIndVar(), *Shifted));
      appendTo(Plan.InsertBefore, &Loop,
               assign(var(tempName(SourceId, K)),
                      std::make_unique<ArrayRefExpr>(Source.Ref->getName(),
                                                     std::move(Subs))));
      ++Result.TempsIntroduced;
    }
  }
}

} // namespace

LoadElimResult ardf::eliminateRedundantLoads(const Program &P,
                                             const LoadElimOptions &Opts) {
  LoadElimResult Result;
  RewritePlan Plan;
  LoopNestTree Nest(P);
  for (const NestLoop *Root : Nest.roots())
    if (Root->analyzedAsWritten()) {
      LoopAnalysisSession Session(P, *cast<DoLoopStmt>(Root->Source));
      planLoop(Session, Opts, Plan, Result);
    }
  Result.Transformed = rewriteProgram(P, Plan);
  return Result;
}

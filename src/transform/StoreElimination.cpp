//===- transform/StoreElimination.cpp - Redundant stores (4.2.1) ---------===//

#include "transform/StoreElimination.h"

#include "analysis/LoopAnalysisSession.h"
#include "analysis/LoopNest.h"
#include "ir/IRBuilder.h"
#include "ir/PrettyPrinter.h"
#include "transform/Rewrite.h"

#include <algorithm>

using namespace ardf;

namespace {

/// Collects the redundant stores of one loop into \p Plan. Returns the
/// maximal redundancy distance (0 when nothing was eliminated with
/// delta >= 1).
int64_t planLoop(LoopAnalysisSession &Session, RewritePlan &Plan,
                 StoreElimResult &Result) {
  const DoLoopStmt &Loop = Session.loop();
  const ReferenceUniverse &U = Session.universe();

  // Sinks are candidate redundant stores; sources are the busy stores
  // overwriting them delta iterations later.
  struct Victim {
    const Stmt *Store;
    unsigned SinkId;
    unsigned SourceId;
    int64_t Delta;
  };
  std::vector<Victim> Victims;
  for (const ReusePair &Pair : Session.reusePairs(
           ProblemSpec::busyStoresPerOccurrence(), RefSelector::Defs)) {
    const RefOccurrence &Sink = U.occurrence(Pair.SinkId);
    const RefOccurrence &Source = U.occurrence(Pair.SourceId);
    if (Sink.InSummary || Source.InSummary)
      continue;
    Victims.push_back(
        Victim{Sink.OwnerStmt, Pair.SinkId, Pair.SourceId, Pair.Distance});
  }
  if (Victims.empty())
    return 0;

  // One statement may be redundant against several future stores; keep
  // the smallest distance per statement (fewest unpeeled iterations).
  std::sort(Victims.begin(), Victims.end(),
            [](const Victim &A, const Victim &B) {
              return A.Store != B.Store ? A.Store < B.Store
                                        : A.Delta < B.Delta;
            });
  Victims.erase(std::unique(Victims.begin(), Victims.end(),
                            [](const Victim &A, const Victim &B) {
                              return A.Store == B.Store;
                            }),
                Victims.end());

  int64_t MaxDelta = 0;
  for (const Victim &V : Victims)
    MaxDelta = std::max(MaxDelta, V.Delta);

  // The final MaxDelta iterations must still perform every store; with a
  // known trip count that small, the transformation cannot pay off.
  int64_t Trip = Loop.getConstantTripCount();
  if (Trip != UnknownTripCount && Trip <= MaxDelta)
    return 0;

  for (const Victim &V : Victims) {
    Plan.RemoveStmts.insert(V.Store);
    ++Result.StoresEliminated;
    Result.Notes.push_back(
        exprToString(*U.occurrence(V.SinkId).Ref) + " is " +
        std::to_string(V.Delta) + "-redundant (overwritten by " +
        exprToString(*U.occurrence(V.SourceId).Ref) + ")");
  }

  if (MaxDelta > 0) {
    // Shrink the main loop by MaxDelta iterations...
    ExprPtr NewUpper;
    if (const auto *UpperLit = dyn_cast<IntLit>(Loop.getUpper()))
      NewUpper = lit(UpperLit->getValue() - MaxDelta);
    else
      NewUpper = sub(Loop.getUpper()->clone(), lit(MaxDelta));
    Plan.ReplaceExprs[Loop.getUpper()] = std::move(NewUpper);

    // ... and unpeel them with the full original body:
    //   do i = UB - MaxDelta + 1, UB { <original body> }
    ExprPtr EpiLower;
    ExprPtr EpiUpper;
    if (const auto *UpperLit = dyn_cast<IntLit>(Loop.getUpper())) {
      EpiLower = lit(UpperLit->getValue() - MaxDelta + 1);
      EpiUpper = lit(UpperLit->getValue());
    } else {
      EpiLower = sub(Loop.getUpper()->clone(), lit(MaxDelta - 1));
      EpiUpper = Loop.getUpper()->clone();
    }
    StmtList Epilogue;
    Epilogue.push_back(std::make_unique<DoLoopStmt>(
        Loop.getIndVar(), std::move(EpiLower), std::move(EpiUpper),
        cloneStmts(Loop.getBody())));
    Plan.InsertAfter[&Loop] = std::move(Epilogue);
    Result.UnpeeledIterations += MaxDelta;
  }
  return MaxDelta;
}

} // namespace

StoreElimResult ardf::eliminateRedundantStores(const Program &P) {
  StoreElimResult Result;
  RewritePlan Plan;
  LoopNestTree Nest(P);
  for (const NestLoop *Root : Nest.roots())
    if (Root->analyzedAsWritten()) {
      LoopAnalysisSession Session(P, *cast<DoLoopStmt>(Root->Source));
      planLoop(Session, Plan, Result);
    }
  Result.Transformed = rewriteProgram(P, Plan);
  return Result;
}

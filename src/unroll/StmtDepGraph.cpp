//===- unroll/StmtDepGraph.cpp - Statement-level dependence DAG ----------===//

#include "unroll/StmtDepGraph.h"

#include "analysis/LoopDataFlow.h"
#include "analysis/LoopNest.h"

#include <algorithm>
#include <map>
#include <set>

using namespace ardf;

bool StmtDepGraph::hasCarriedDistance(int64_t Distance) const {
  return std::any_of(Edges.begin(), Edges.end(), [&](const Edge &E) {
    return E.Distance == Distance;
  });
}

namespace {

/// Collects the scalar names a statement defines and uses (the loop IV
/// is excluded: its recurrence is handled by address arithmetic, not the
/// dependence chain, matching the paper's assumption of a removed basic
/// induction variable).
void scalarDefsUses(const Stmt &S, const std::string &IV,
                    std::set<std::string> &Defs,
                    std::set<std::string> &Uses) {
  const auto *AS = dyn_cast<AssignStmt>(&S);
  if (!AS)
    return;
  if (const auto *V = dyn_cast<VarRef>(AS->getLHS()))
    Defs.insert(V->getName());
  forEachSubExpr(*AS->getRHS(), [&](const Expr &E) {
    if (const auto *V = dyn_cast<VarRef>(&E))
      if (V->getName() != IV)
        Uses.insert(V->getName());
  });
  if (const ArrayRefExpr *Target = AS->getArrayTarget())
    for (const ExprPtr &Sub : Target->subscripts())
      forEachSubExpr(*Sub, [&](const Expr &E) {
        if (const auto *V = dyn_cast<VarRef>(&E))
          if (V->getName() != IV)
            Uses.insert(V->getName());
      });
}

} // namespace

std::optional<StmtDepGraph> ardf::buildStmtDepGraph(const Program &P,
                                                    const DoLoopStmt &Loop) {
  // Innermost loops the nest analyzes as written only.
  LoopNestTree Nest(P);
  const NestLoop *Node = Nest.nodeFor(Loop);
  if (!Node || !Node->analyzedAsWritten() || !Node->Children.empty())
    return std::nullopt;

  StmtDepGraph G;
  std::map<const Stmt *, unsigned> Index;
  forEachStmt(Loop.getBody(), [&](const Stmt &S) {
    if (isa<AssignStmt>(&S)) {
      Index[&S] = G.Stmts.size();
      G.Stmts.push_back(&S);
    }
  });

  std::set<std::tuple<unsigned, unsigned, int64_t>> Seen;
  auto addEdge = [&](unsigned From, unsigned To, int64_t Distance) {
    if (Distance == 0 && From >= To)
      return; // intra-iteration order must be strictly forward
    if (Seen.insert({From, To, Distance}).second)
      G.Edges.push_back(StmtDepGraph::Edge{From, To, Distance});
  };

  // Array dependences from the may framework instance.
  LoopDataFlow DF(P, Loop, ProblemSpec::reachingReferences());
  DependenceInfo Deps = extractDependences(DF);
  const ReferenceUniverse &U = DF.universe();
  for (const Dependence &D : Deps.Deps) {
    const Stmt *FromStmt = U.occurrence(D.FromId).OwnerStmt;
    const Stmt *ToStmt = U.occurrence(D.ToId).OwnerStmt;
    auto FromIt = Index.find(FromStmt);
    auto ToIt = Index.find(ToStmt);
    if (FromIt == Index.end() || ToIt == Index.end())
      continue; // guard-condition uses carry no statement latency
    addEdge(FromIt->second, ToIt->second, D.Distance);
  }

  // Scalar flow dependences: def before use in body order is loop
  // independent; def after use is carried to the next iteration.
  const std::string &IV = Loop.getIndVar();
  std::vector<std::set<std::string>> Defs(G.Stmts.size());
  std::vector<std::set<std::string>> Uses(G.Stmts.size());
  for (unsigned I = 0; I != G.Stmts.size(); ++I)
    scalarDefsUses(*G.Stmts[I], IV, Defs[I], Uses[I]);
  for (unsigned From = 0; From != G.Stmts.size(); ++From)
    for (unsigned To = 0; To != G.Stmts.size(); ++To)
      for (const std::string &Name : Defs[From])
        if (Uses[To].count(Name))
          addEdge(From, To, From < To ? 0 : 1);

  return G;
}

unsigned ardf::criticalPathLength(const StmtDepGraph &G, unsigned Copies,
                                  int64_t MaxDistance) {
  if (G.Stmts.empty() || Copies == 0)
    return 0;
  unsigned N = G.Stmts.size();
  // Longest path counted in statements; nodes ordered topologically by
  // (copy, statement index) since distance-0 edges point strictly
  // forward in body order.
  std::vector<unsigned> Len(N * Copies, 1);
  unsigned Best = 1;
  for (unsigned C = 0; C != Copies; ++C) {
    for (unsigned I = 0; I != N; ++I) {
      unsigned Node = C * N + I;
      Best = std::max(Best, Len[Node]);
      for (const StmtDepGraph::Edge &E : G.Edges) {
        if (E.From != I)
          continue;
        if (MaxDistance >= 0 && E.Distance > MaxDistance)
          continue;
        uint64_t TargetCopy = C + static_cast<uint64_t>(E.Distance);
        if (TargetCopy >= Copies)
          continue;
        unsigned Target = TargetCopy * N + E.To;
        Len[Target] = std::max(Len[Target], Len[Node] + 1);
      }
    }
  }
  return Best;
}

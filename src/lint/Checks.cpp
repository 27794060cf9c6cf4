//===- lint/Checks.cpp - Framework-backed lint checks ---------------------===//

#include "lint/Checks.h"

#include "analysis/Dependence.h"
#include "analysis/LoopDataFlow.h"

#include <algorithm>
#include <map>
#include <tuple>

using namespace ardf;

namespace {

/// Per-nest-level distances for the reuse-pair checks: queries each
/// ancestor's with-respect-to session once, then answers
/// (SourceId, SinkId) lookups while diagnostics are built. Occurrence
/// ids are stable across the sessions because every level analyzes the
/// same reduced loop (only the framework's iteration space changes). A
/// level keeps only distances within its trip count; a pair beyond it
/// reads as unknown at that level, like an unsupported one.
class LevelDistances {
public:
  LevelDistances(const LintCheckContext &Ctx, const ProblemSpec &Spec,
                 RefSelector Sel) {
    for (const NestLevel &L : Ctx.Ancestors) {
      PerLevel.emplace_back();
      if (!L.Session ||
          L.Session->solve(Spec, Ctx.Solver).Outcome != SolveOutcome::Ok)
        continue; // unknown level: every lookup reports NoDistance
      for (const ReusePair &P : L.Session->reusePairs(Spec, Sel, Ctx.Solver))
        if (L.Session->reuseWithinTrip(P.Distance))
          PerLevel.back().insert({{P.SourceId, P.SinkId}, P.Distance});
    }
  }

  /// Stamps the nest path and the per-level distance vector (outermost
  /// first, the pair's own distance innermost) onto \p D.
  void attach(Diagnostic &D, const LintCheckContext &Ctx,
              const ReusePair &Pair) const {
    D.NestPath = Ctx.NestPath;
    if (PerLevel.empty())
      return;
    for (const auto &Level : PerLevel) {
      auto It = Level.find({Pair.SourceId, Pair.SinkId});
      D.Levels.push_back(It == Level.end() ? Diagnostic::NoDistance
                                           : It->second);
    }
    D.Levels.push_back(Pair.Distance);
  }

private:
  std::vector<std::map<std::pair<unsigned, unsigned>, int64_t>> PerLevel;
};

/// LevelDistances' counterpart for the dependence-based conflict check,
/// keyed by (FromId, ToId, Kind), with the same trip-count rule.
class LevelDependences {
public:
  explicit LevelDependences(const LintCheckContext &Ctx) {
    for (const NestLevel &L : Ctx.Ancestors) {
      PerLevel.emplace_back();
      if (!L.Session ||
          L.Session->solve(ProblemSpec::reachingReferences(), Ctx.Solver)
                  .Outcome != SolveOutcome::Ok)
        continue;
      LoopDataFlow DF(*L.Session, ProblemSpec::reachingReferences(),
                      Ctx.Solver);
      for (const Dependence &AD : extractDependences(DF).Deps)
        if (L.Session->reuseWithinTrip(AD.Distance))
          PerLevel.back().insert(
              {{AD.FromId, AD.ToId, static_cast<int>(AD.Kind)}, AD.Distance});
    }
  }

  void attach(Diagnostic &D, const LintCheckContext &Ctx,
              const Dependence &Dep) const {
    D.NestPath = Ctx.NestPath;
    if (PerLevel.empty())
      return;
    for (const auto &Level : PerLevel) {
      auto It =
          Level.find({Dep.FromId, Dep.ToId, static_cast<int>(Dep.Kind)});
      D.Levels.push_back(It == Level.end() ? Diagnostic::NoDistance
                                           : It->second);
    }
    D.Levels.push_back(Dep.Distance);
  }

private:
  std::vector<std::map<std::tuple<unsigned, unsigned, int>, int64_t>>
      PerLevel;
};

/// Emits an analysis-degraded diagnostic for \p Check on the
/// session's loop.
void emitDegraded(LoopAnalysisSession &Session, const LintCheckContext &Ctx,
                  const char *Check, BreachReason Reason,
                  std::vector<Diagnostic> &Out) {
  Diagnostic D;
  D.CheckId = checkid::AnalysisDegraded;
  D.Severity = DiagSeverity::Warning;
  D.File = Ctx.File;
  D.Loc = Session.loop().getLoc();
  D.Message = std::string("analysis degraded: check '") + Check +
              "' skipped for the loop over '" + Session.loop().getIndVar() +
              "' (" + breachReasonName(Reason) +
              "); its backing solve returned the conservative answer";
  D.FixHint = "raise the solver budget (or investigate the injected "
              "fault) to restore this check";
  Out.push_back(std::move(D));
}

/// Degradation gate at the head of each check: solves the check's
/// problem (a session cache hit when the check proceeds) and, when the
/// result is degraded, reports that instead of deriving findings from
/// the conservative fill. Returns true when the check must be skipped.
bool gateDegraded(LoopAnalysisSession &Session, const LintCheckContext &Ctx,
                  const ProblemSpec &Spec, const char *Check,
                  std::vector<Diagnostic> &Out) {
  const SolveResult &R = Session.solve(Spec, Ctx.Solver);
  if (R.Outcome == SolveOutcome::Ok)
    return false;
  emitDegraded(Session, Ctx, Check, R.Breach, Out);
  return true;
}

/// The compact record of one finding of \p Check: the sink occurrence
/// anchors it, the source occurrence is the other end of the pair. Text
/// is formatted from these fields only when read (lint/Diagnostic.h).
Diagnostic finding(LoopAnalysisSession &Session, const LintCheckContext &Ctx,
                   const char *Check, DiagSeverity Severity,
                   unsigned SourceId, unsigned SinkId, int64_t Distance) {
  const ReferenceUniverse &U = Session.universe();
  Diagnostic D;
  D.CheckId = Check;
  D.Severity = Severity;
  D.File = Ctx.File;
  D.Loc = U.occurrence(SinkId).Ref->getLoc();
  D.Distance = Distance;
  D.SinkText = Session.occurrenceText(SinkId);
  D.SourceText = Session.occurrenceText(SourceId);
  D.SourcePos = U.occurrence(SourceId).Ref->getLoc();
  D.EvidenceSourceId = SourceId;
  D.EvidenceSinkId = SinkId;
  return D;
}

/// Picks one reuse pair per sink: definitions are preferred as sources
/// (their value exists anyway), then the smallest distance. Pairs whose
/// endpoints sit inside summarized inner loops are dropped -- their
/// facts belong to the inner loop's own lint run.
std::vector<ReusePair> bestPairPerSink(const ReferenceUniverse &U,
                                       std::vector<ReusePair> Pairs) {
  Pairs.erase(std::remove_if(Pairs.begin(), Pairs.end(),
                             [&](const ReusePair &P) {
                               return U.occurrence(P.SinkId).InSummary ||
                                      U.occurrence(P.SourceId).InSummary;
                             }),
              Pairs.end());
  std::stable_sort(Pairs.begin(), Pairs.end(),
                   [&](const ReusePair &A, const ReusePair &B) {
                     if (A.SinkId != B.SinkId)
                       return A.SinkId < B.SinkId;
                     bool ADef = U.occurrence(A.SourceId).IsDef;
                     bool BDef = U.occurrence(B.SourceId).IsDef;
                     if (ADef != BDef)
                       return ADef;
                     return A.Distance < B.Distance;
                   });
  Pairs.erase(std::unique(Pairs.begin(), Pairs.end(),
                          [](const ReusePair &A, const ReusePair &B) {
                            return A.SinkId == B.SinkId;
                          }),
              Pairs.end());
  return Pairs;
}

} // namespace

std::vector<ProblemSpec> ardf::lintProblems() {
  return {ProblemSpec::availableValuesPerOccurrence(),
          ProblemSpec::busyStoresPerOccurrence(),
          ProblemSpec::mustReachingDefs(),
          ProblemSpec::reachingReferences()};
}

void ardf::checkRedundantLoad(LoopAnalysisSession &Session,
                              const LintCheckContext &Ctx,
                              std::vector<Diagnostic> &Out) {
  const ReferenceUniverse &U = Session.universe();
  if (gateDegraded(Session, Ctx, ProblemSpec::availableValuesPerOccurrence(),
                   checkid::RedundantLoad, Out))
    return;
  LevelDistances Levels(Ctx, ProblemSpec::availableValuesPerOccurrence(),
                        RefSelector::Uses);
  std::vector<ReusePair> Pairs =
      Session.reusePairs(ProblemSpec::availableValuesPerOccurrence(),
                         RefSelector::Uses, Ctx.Solver);
  std::erase_if(Pairs, [&](const ReusePair &P) {
    return !Session.reuseWithinTrip(P.Distance);
  });
  for (const ReusePair &Pair : bestPairPerSink(U, std::move(Pairs))) {
    Diagnostic D = finding(Session, Ctx, checkid::RedundantLoad,
                           DiagSeverity::Warning, Pair.SourceId, Pair.SinkId,
                           Pair.Distance);
    Levels.attach(D, Ctx, Pair);
    Out.push_back(std::move(D));
  }
}

void ardf::checkDeadStore(LoopAnalysisSession &Session,
                          const LintCheckContext &Ctx,
                          std::vector<Diagnostic> &Out) {
  const ReferenceUniverse &U = Session.universe();
  if (gateDegraded(Session, Ctx, ProblemSpec::busyStoresPerOccurrence(),
                   checkid::DeadStore, Out))
    return;
  LevelDistances Levels(Ctx, ProblemSpec::busyStoresPerOccurrence(),
                        RefSelector::Defs);
  for (const ReusePair &Pair : bestPairPerSink(
           U, Session.reusePairs(ProblemSpec::busyStoresPerOccurrence(),
                                 RefSelector::Defs, Ctx.Solver))) {
    Diagnostic D = finding(Session, Ctx, checkid::DeadStore,
                           DiagSeverity::Warning, Pair.SourceId, Pair.SinkId,
                           Pair.Distance);
    Levels.attach(D, Ctx, Pair);
    Out.push_back(std::move(D));
  }
}

void ardf::checkLoopCarriedReuse(LoopAnalysisSession &Session,
                                 const LintCheckContext &Ctx,
                                 std::vector<Diagnostic> &Out) {
  const ReferenceUniverse &U = Session.universe();
  if (gateDegraded(Session, Ctx, ProblemSpec::mustReachingDefs(),
                   checkid::LoopCarriedReuse, Out))
    return;
  LevelDistances Levels(Ctx, ProblemSpec::mustReachingDefs(),
                        RefSelector::Uses);
  std::vector<ReusePair> Pairs = Session.reusePairs(
      ProblemSpec::mustReachingDefs(), RefSelector::Uses, Ctx.Solver);
  // Same-iteration forwarding is redundant-load territory; this check
  // reports the loop-carried pipelining candidates only.
  Pairs.erase(std::remove_if(Pairs.begin(), Pairs.end(),
                             [](const ReusePair &P) {
                               return P.Distance < 1;
                             }),
              Pairs.end());
  for (const ReusePair &Pair : bestPairPerSink(U, std::move(Pairs))) {
    Diagnostic D = finding(Session, Ctx, checkid::LoopCarriedReuse,
                           DiagSeverity::Note, Pair.SourceId, Pair.SinkId,
                           Pair.Distance);
    Levels.attach(D, Ctx, Pair);
    Out.push_back(std::move(D));
  }
}

void ardf::checkCrossIterationConflict(LoopAnalysisSession &Session,
                                       const LintCheckContext &Ctx,
                                       std::vector<Diagnostic> &Out) {
  if (gateDegraded(Session, Ctx, ProblemSpec::reachingReferences(),
                   checkid::CrossIterationConflict, Out))
    return;
  LevelDependences Levels(Ctx);
  LoopDataFlow DF(Session, ProblemSpec::reachingReferences(), Ctx.Solver);
  const ReferenceUniverse &U = Session.universe();
  for (const Dependence &Dep : extractDependences(DF).Deps) {
    if (!Dep.isLoopCarried())
      continue;
    const RefOccurrence &From = U.occurrence(Dep.FromId);
    const RefOccurrence &To = U.occurrence(Dep.ToId);
    if (From.InSummary || To.InSummary)
      continue;
    Diagnostic D = finding(Session, Ctx, checkid::CrossIterationConflict,
                           DiagSeverity::Note, Dep.FromId, Dep.ToId,
                           Dep.Distance);
    D.Kind = Dep.Kind;
    Levels.attach(D, Ctx, Dep);
    Out.push_back(std::move(D));
  }
}

unsigned ardf::checkEngineDivergence(LoopAnalysisSession &Session,
                                     const LintCheckContext &Ctx,
                                     std::vector<Diagnostic> &Out) {
  unsigned Divergences = 0;
  for (const ProblemSpec &Spec : lintProblems()) {
    SolverOptions Ref = Ctx.Solver;
    Ref.Eng = SolverOptions::Engine::Reference;
    SolverOptions Packed = Ctx.Solver;
    Packed.Eng = SolverOptions::Engine::PackedKernel;
    const SolveResult &A = Session.solve(Spec, Ref);
    const SolveResult &B = Session.solve(Spec, Packed);
    // A degraded solve is a budget/fault artifact, not an engine
    // divergence (an ordinal-armed failpoint can even degrade one
    // engine's solve and not the other's); report it as degraded and
    // skip the comparison.
    if (A.Outcome != SolveOutcome::Ok || B.Outcome != SolveOutcome::Ok) {
      emitDegraded(Session, Ctx, "engine-cross-check",
                   A.Outcome != SolveOutcome::Ok ? A.Breach : B.Breach,
                   Out);
      continue;
    }
    if (A.In == B.In && A.Out == B.Out)
      continue;
    ++Divergences;
    Diagnostic D;
    D.CheckId = checkid::EngineDivergence;
    D.Severity = DiagSeverity::Error;
    D.File = Ctx.File;
    D.Loc = Session.loop().getLoc();
    D.Message = std::string("internal consistency: reference and packed "
                            "kernel solvers diverge on problem '") +
                Spec.Name + "' for the loop over '" +
                Session.loop().getIndVar() + "'";
    D.FixHint = "this is an ardf bug, not a program issue; please report "
                "it with the input program";
    Out.push_back(std::move(D));
  }
  return Divergences;
}

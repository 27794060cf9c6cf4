//===- lint/Remarks.cpp - Derivation evidence for diagnostics -------------===//

#include "lint/Remarks.h"

#include "analysis/LoopAnalysisSession.h"
#include "dataflow/Provenance.h"

using namespace ardf;

unsigned ardf::attachRemarks(LoopAnalysisSession &Session,
                             const LintCheckContext &Ctx,
                             std::vector<Diagnostic> &Diags, size_t FirstIdx,
                             const RemarkOptions &Opts) {
  std::vector<ProblemSpec> Problems = lintProblems();
  const ReferenceUniverse &U = Session.universe();
  unsigned Attached = 0;
  for (size_t I = FirstIdx; I < Diags.size(); ++I) {
    Diagnostic &D = Diags[I];
    // Findings are the explainable diagnostics; lintProblems() lists
    // each check's backing problem in check order.
    FindingCheck Check = findingCheck(D.CheckId);
    if (Check == FindingCheck::None)
      continue;
    if (!Opts.CheckFilter.empty() && D.CheckId != Opts.CheckFilter)
      continue;
    const ProblemSpec &Spec = Problems[static_cast<size_t>(Check)];
    if (D.EvidenceSinkId >= U.size())
      continue;

    // Reference re-solve with recording. RecordProvenance participates
    // in the solution-cache key, so this neither evicts nor aliases the
    // configured engine's cached result; one re-solve serves every
    // diagnostic of the same problem.
    SolverOptions ProvOpts = Ctx.Solver;
    ProvOpts.RecordProvenance = true;
    const SolveResult &Recorded = Session.solve(Spec, ProvOpts);
    if (!Recorded.ok() || !Recorded.Provenance ||
        Recorded.Provenance->Degraded)
      continue; // degraded analysis: no explanation, no crash
    const SolveProvenance &Prov = *Recorded.Provenance;

    // The recording must derive exactly the solution the check read:
    // cross-check the re-solve bit-identical against the cached result
    // of the configured engine before interpreting it.
    const SolveResult &Fast = Session.solve(Spec, Ctx.Solver);
    if (Fast.ok() &&
        !(Recorded.In == Fast.In && Recorded.Out == Fast.Out))
      continue; // engine divergence is checkEngineDivergence's report

    // The explained cell: IN at the sink's flow node, tracked slot of
    // the generating reference. All four lint problems are ungrouped,
    // so the source occurrence maps to exactly one tracked element.
    int Idx = -1;
    for (unsigned T = 0; T != Prov.Tracked.size(); ++T)
      if (Prov.Tracked[T].OccId == D.EvidenceSourceId)
        Idx = static_cast<int>(T);
    if (Idx < 0)
      continue;
    unsigned SinkNode = U.occurrence(D.EvidenceSinkId).Node;
    if (SinkNode >= Prov.NumNodes)
      continue;

    DerivationGraph G =
        buildDerivation(Prov, SinkNode, static_cast<unsigned>(Idx));
    for (ProvenanceStep &Step : derivationTrail(Prov, G))
      D.Evidence.push_back(
          RelatedLoc{Step.Loc, std::move(Step.Message)});
    D.DerivationJson = derivationToJson(Prov, G);
    ++Attached;
  }
  return Attached;
}

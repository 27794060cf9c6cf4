//===- analysis/Dependence.cpp - Dependence detection --------------------===//

#include "analysis/Dependence.h"

#include "ir/PrettyPrinter.h"

#include <algorithm>
#include <ostream>

using namespace ardf;

const char *ardf::depKindName(DepKind K) {
  switch (K) {
  case DepKind::Flow:
    return "flow";
  case DepKind::Anti:
    return "anti";
  case DepKind::Output:
    return "output";
  case DepKind::Input:
    return "input";
  }
  return "?";
}

bool DependenceInfo::hasCarriedDistance(int64_t Distance) const {
  return std::any_of(Deps.begin(), Deps.end(), [&](const Dependence &D) {
    return D.Distance == Distance;
  });
}

std::vector<Dependence> DependenceInfo::distanceOne() const {
  std::vector<Dependence> Result;
  for (const Dependence &D : Deps)
    if (D.Distance == 1)
      Result.push_back(D);
  return Result;
}

namespace {

DepKind kindOf(bool FromIsDef, bool ToIsDef) {
  if (FromIsDef)
    return ToIsDef ? DepKind::Output : DepKind::Flow;
  return ToIsDef ? DepKind::Anti : DepKind::Input;
}

} // namespace

DependenceInfo ardf::extractDependences(const LoopDataFlow &DF,
                                        bool IncludeInput) {
  DependenceInfo Info;
  const FrameworkInstance &FW = DF.framework();
  const ReferenceUniverse &U = DF.universe();
  unsigned NumTracked = FW.getNumTracked();

  // Per tuple element: its representative and its class's slot among
  // the array's classes. Per sink: the overlap distance from each
  // tracked class of the sink's array at pr 0 and 1, -1 when overlap is
  // impossible. The overlap search spans the instance's iteration space:
  // the enclosing loop's in a with-respect-to session.
  std::vector<unsigned> SourceId(NumTracked);
  std::vector<char> SourceIsDef(NumTracked);
  std::vector<unsigned> SlotOf(NumTracked);
  for (unsigned Idx = 0; Idx != NumTracked; ++Idx) {
    SourceId[Idx] = FW.getTracked(Idx).Id;
    SourceIsDef[Idx] = FW.getTracked(Idx).IsDef;
    SlotOf[Idx] = U.classSlot(FW.trackedClass(Idx));
  }
  std::vector<int64_t> OverlapOfSlot;

  for (const RefOccurrence &To : U.occurrences()) {
    if (!To.isTrackable())
      continue;
    unsigned Array = U.arrayId(To.Id);
    unsigned ToClass = U.accessClass(To.Id);
    OverlapOfSlot.resize(2 * U.numArrayClasses(Array));
    for (unsigned FromClass : FW.trackedClassesOfArray(Array))
      for (int64_t Pr = 0; Pr != 2; ++Pr) {
        std::optional<int64_t> D = FW.overlapDistance(FromClass, ToClass, Pr);
        OverlapOfSlot[U.classSlot(FromClass) * 2 + Pr] = D ? *D : -1;
      }
    for (unsigned Idx : FW.trackedOfArray(Array)) {
      if (SourceId[Idx] == To.Id)
        continue;
      DepKind Kind = kindOf(SourceIsDef[Idx], To.IsDef);
      if (Kind == DepKind::Input && !IncludeInput)
        continue;
      int64_t D = OverlapOfSlot[SlotOf[Idx] * 2 + FW.pr(Idx, To.Node)];
      if (D < 0)
        continue;
      if (!DF.valueAt(To.Node, Idx).covers(D))
        continue;
      Info.Deps.push_back(Dependence{SourceId[Idx], To.Id, Kind, D});
    }
  }
  return Info;
}

DependenceInfo ardf::computeDependences(const Program &P,
                                        const DoLoopStmt &Loop,
                                        bool IncludeInput) {
  LoopDataFlow DF(P, Loop, ProblemSpec::reachingReferences());
  return extractDependences(DF, IncludeInput);
}

void ardf::printDependences(std::ostream &OS, const DependenceInfo &Info,
                            const LoopDataFlow &DF) {
  const ReferenceUniverse &U = DF.universe();
  for (const Dependence &D : Info.Deps) {
    OS << depKindName(D.Kind) << ' '
       << exprToString(*U.occurrence(D.FromId).Ref) << " -> "
       << exprToString(*U.occurrence(D.ToId).Ref) << " distance "
       << D.Distance << (D.isLoopCarried() ? " (carried)" : " (independent)")
       << '\n';
  }
}

//===- examples/multidim.cpp - Fig. 4: multi-dimensional references ------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
// Section 3.6 on the Fig. 4 loop nest: multi-dimensional references are
// linearized with symbolic dimension sizes; a separate analysis per
// enclosing loop discovers the recurrences of X (w.r.t. i) and Y
// (w.r.t. j), while the subscript-coupled Z recurrence is out of reach
// of any single-loop analysis (the paper's noted future work).
//
//===----------------------------------------------------------------------===//

#include "analysis/DistanceVector.h"
#include "analysis/LoopDataFlow.h"
#include "analysis/LoopNest.h"
#include "frontend/Parser.h"
#include "ir/PrettyPrinter.h"

#include <iostream>

using namespace ardf;

namespace {

void analyzeWrt(const LoopDataFlow &DF) {
  const ReferenceUniverse &U = DF.universe();
  const std::string &IV = U.getIV();
  std::cout << "--- analysis of the loop body with respect to '" << IV
            << "' (other induction variables symbolic) ---\n";

  std::cout << "Linearized affine views:\n";
  for (const RefOccurrence &Occ : U.occurrences()) {
    std::cout << "  " << exprToString(*Occ.Ref) << " -> ";
    if (Occ.Affine)
      std::cout << Occ.Affine->toString(IV);
    else
      std::cout << "(not affine in " << IV << ")";
    std::cout << (Occ.IsDef ? "  [def]" : "  [use]")
              << (Occ.InSummary ? " [summary]" : "") << '\n';
  }

  std::vector<ReusePair> Pairs = DF.reusePairs(RefSelector::Uses);
  if (Pairs.empty()) {
    std::cout << "No recurrent accesses found with respect to '" << IV
              << "'.\n\n";
    return;
  }
  std::cout << "Recurrences:\n";
  for (const ReusePair &Pair : Pairs)
    std::cout << "  " << exprToString(*U.occurrence(Pair.SinkId).Ref)
              << " reuses " << exprToString(*U.occurrence(Pair.SourceId).Ref)
              << " at distance " << Pair.Distance << '\n';
  std::cout << '\n';
}

} // namespace

int main() {
  // Fig. 4, inner loop body analyzed with respect to each level.
  const char *Source = R"(
    array X[N, N];
    array Y[N, N];
    array Z[N, N];
    do j = 1, UB2 {
      do i = 1, UB1 {
        X[i+1, j] = X[i, j];
        Y[i, j+1] = Y[i, j-1];
        Z[i+1, j] = Z[i, j-1];
      }
    }
  )";
  Program P = parseOrDie(Source);
  std::cout << "Input nest (Fig. 4):\n" << programToString(P) << '\n';

  const auto *Outer = P.getFirstLoop();
  LoopNestTree Nest(P);
  const NestLoop &J = *Nest.roots()[0];
  const NestLoop &I = *J.Children[0];

  // The X recurrence (distance 1 in i) appears in the inner analysis;
  // the Y recurrence (distance 2 in j) when the same body is analyzed
  // with respect to j; Z in neither.
  analyzeWrt(LoopDataFlow(P, *I.Analyzed, ProblemSpec::mustReachingDefs()));
  analyzeWrt(LoopDataFlow(P, I, J, ProblemSpec::mustReachingDefs()));

  std::cout << "The Z recurrence couples both induction variables "
               "simultaneously;\nno single-loop analysis can see it "
               "(Section 3.6). The distance-vector\nextension the paper "
               "sketches as future work (Section 6) finds it:\n\n";
  NestAnalysis NA = analyzeTightNest(P, *Outer);
  for (const VectorReuse &R : NA.Reuses)
    std::cout << "  " << exprToString(*R.Sink) << " reuses "
              << exprToString(*R.Source) << " at vector (outer "
              << R.OuterDistance << ", inner " << R.InnerDistance
              << ")\n";
  return 0;
}

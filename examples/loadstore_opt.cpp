//===- examples/loadstore_opt.cpp - Figs. 6 and 7 transformations --------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
// Redundant store elimination (Section 4.2.1, Fig. 6) and redundant load
// elimination (Section 4.2.2, Fig. 7), both validated by interpreting
// the original and transformed loops on identical inputs and comparing
// final memory plus access counts. Exits 1 unless both transforms
// rewrite their figure and keep its final memory.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "ir/PrettyPrinter.h"
#include "transform/LoadElimination.h"
#include "transform/StoreElimination.h"

#include <iostream>

using namespace ardf;

namespace {

ExecStats measure(const Program &P, int64_t X) {
  Interpreter I(P);
  I.setScalar("x", X);
  I.seedArray("A", 1100, 17);
  I.run();
  return I.stats();
}

bool equivalent(const Program &A, const Program &B, int64_t X) {
  Interpreter IA(A), IB(B);
  IA.setScalar("x", X);
  IB.setScalar("x", X);
  IA.seedArray("A", 1100, 17);
  IB.seedArray("A", 1100, 17);
  IA.run();
  IB.run();
  return IA.state().Arrays == IB.state().Arrays;
}

} // namespace

int main() {
  // --- Fig. 6: the conditional store A[i+1] is 1-redundant. ---
  Program Fig6 = parseOrDie(R"(
    do i = 1, 1000 {
      A[i] = i + x;
      if (x == 0) { A[i+1] = 99; }
    }
  )");
  std::cout << "Fig. 6 input:\n" << programToString(Fig6) << '\n';

  StoreElimResult SR = eliminateRedundantStores(Fig6);
  bool Ok = !SR.Transformed.equals(Fig6);
  for (const std::string &Note : SR.Notes)
    std::cout << "  " << Note << '\n';
  std::cout << "Transformed (store removed, final " << SR.UnpeeledIterations
            << " iteration(s) unpeeled):\n"
            << programToString(SR.Transformed) << '\n';

  for (int64_t X : {0, 1}) {
    ExecStats Before = measure(Fig6, X);
    ExecStats After = measure(SR.Transformed, X);
    bool Same = equivalent(Fig6, SR.Transformed, X);
    Ok &= Same;
    std::cout << "  x=" << X << ": stores " << Before.ArrayStores << " -> "
              << After.ArrayStores << ", state "
              << (Same ? "identical" : "DIVERGED!") << '\n';
  }

  // --- Fig. 7: the conditional load A[i] is 1-redundant. ---
  Program Fig7 = parseOrDie(R"(
    do i = 1, 1000 {
      if (A[i] > 0) { y = y + A[i]; }
      A[i+1] = i * x;
    }
  )");
  std::cout << "\nFig. 7 input:\n" << programToString(Fig7) << '\n';

  LoadElimResult LR = eliminateRedundantLoads(Fig7);
  Ok &= !LR.Transformed.equals(Fig7);
  for (const std::string &Note : LR.Notes)
    std::cout << "  " << Note << '\n';
  std::cout << "Transformed (" << LR.TempsIntroduced
            << " temporaries introduced):\n"
            << programToString(LR.Transformed) << '\n';

  for (int64_t X : {0, 3}) {
    ExecStats Before = measure(Fig7, X);
    ExecStats After = measure(LR.Transformed, X);
    bool Same = equivalent(Fig7, LR.Transformed, X);
    Ok &= Same;
    std::cout << "  x=" << X << ": loads " << Before.ArrayLoads << " -> "
              << After.ArrayLoads << ", state "
              << (Same ? "identical" : "DIVERGED!") << '\n';
  }
  return Ok ? 0 : 1;
}

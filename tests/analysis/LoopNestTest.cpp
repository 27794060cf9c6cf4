//===- tests/analysis/LoopNestTest.cpp - Nesting tree + reduction --------===//
//
// Oracle tests for analysis/LoopNest.h: the nesting forest is checked
// against hand-built expectations, while reduction against the exact DO
// loop it must produce, every rejection reason against the program shape
// that triggers it, and the reduced forms against all four solver
// engines (which must stay bit-identical on them).
//
//===----------------------------------------------------------------------===//

#include "analysis/LoopNest.h"

#include "analysis/LoopAnalysisSession.h"
#include "driver/ProgramAnalysisDriver.h"
#include "frontend/Parser.h"
#include "ir/IRBuilder.h"
#include "ir/PrettyPrinter.h"

#include <gtest/gtest.h>

using namespace ardf;

namespace {

/// The unique node whose reduced induction variable is \p Iv.
const NestLoop *nodeWithIv(const LoopNestTree &T, const std::string &Iv) {
  const NestLoop *Found = nullptr;
  T.forEach([&](const NestLoop &N) {
    if (N.isSupported() && N.iv() == Iv)
      Found = &N;
  });
  return Found;
}

} // namespace

//===----------------------------------------------------------------------===//
// Forest shape
//===----------------------------------------------------------------------===//

TEST(LoopNestTest, ForestMatchesSyntax) {
  Program P = parseOrDie("do i = 1, 8 {\n"
                         "  do j = 1, 8 {\n"
                         "    do k = 1, 8 { x = x + 1; }\n"
                         "  }\n"
                         "  do m = 1, 8 { y = y + 1; }\n"
                         "}\n"
                         "do n = 1, 8 { z = z + 1; }\n");
  LoopNestTree T(P);
  ASSERT_EQ(T.size(), 5u);
  EXPECT_EQ(T.supportedCount(), 5u);
  EXPECT_EQ(T.unsupportedCount(), 0u);
  ASSERT_EQ(T.roots().size(), 2u);

  const NestLoop *I = nodeWithIv(T, "i"), *J = nodeWithIv(T, "j");
  const NestLoop *K = nodeWithIv(T, "k"), *M = nodeWithIv(T, "m");
  const NestLoop *N = nodeWithIv(T, "n");
  ASSERT_TRUE(I && J && K && M && N);

  // Parent/child links and depths.
  EXPECT_EQ(I->Parent, nullptr);
  EXPECT_EQ(J->Parent, I);
  EXPECT_EQ(K->Parent, J);
  EXPECT_EQ(M->Parent, I);
  EXPECT_EQ(N->Parent, nullptr);
  EXPECT_EQ(I->Depth, 0u);
  EXPECT_EQ(J->Depth, 1u);
  EXPECT_EQ(K->Depth, 2u);
  EXPECT_EQ(M->Depth, 1u);
  ASSERT_EQ(I->Children.size(), 2u);
  EXPECT_EQ(I->Children[0], J);
  EXPECT_EQ(I->Children[1], M);

  // Roots in source order.
  EXPECT_EQ(T.roots()[0], I);
  EXPECT_EQ(T.roots()[1], N);

  // Paths and ancestors.
  EXPECT_EQ(K->path(), "i/j/k");
  EXPECT_EQ(M->path(), "i/m");
  EXPECT_EQ(N->path(), "n");
  std::vector<const NestLoop *> Anc = K->ancestors();
  ASSERT_EQ(Anc.size(), 2u);
  EXPECT_EQ(Anc[0], I);
  EXPECT_EQ(Anc[1], J);

  // Pre-order: each node precedes its children.
  EXPECT_EQ(T.all()[0].get(), I);
  EXPECT_EQ(T.nodeFor(*I->Source), I);
  EXPECT_EQ(T.nodeFor(*K->Source), K);
  EXPECT_EQ(T.nodeFor(*P.getStmts()[0]->clone()), nullptr);
}

TEST(LoopNestTest, NestedLoopsFormAForest) {
  Program P = parseOrDie("do i = 1, 4 {\n"
                         "  do j = 1, 4 {\n"
                         "    do k = 1, 4 { x = x + 1; }\n"
                         "  }\n"
                         "  do m = 1, 4 { y = y + 1; }\n"
                         "}\n"
                         "do n = 1, 4 { z = z + 1; }\n");
  LoopNestTree T(P);
  ASSERT_EQ(T.size(), 5u);
  const NestLoop *I = nodeWithIv(T, "i"), *J = nodeWithIv(T, "j");
  const NestLoop *K = nodeWithIv(T, "k"), *M = nodeWithIv(T, "m");
  const NestLoop *N = nodeWithIv(T, "n");
  ASSERT_TRUE(I && J && K && M && N);

  // Source pre-order, so a loop never precedes its parent.
  ASSERT_EQ(T.all().size(), 5u);
  EXPECT_EQ(T.all()[0].get(), I);
  EXPECT_EQ(T.all()[1].get(), J);
  EXPECT_EQ(T.all()[2].get(), K);
  EXPECT_EQ(T.all()[3].get(), M);
  EXPECT_EQ(T.all()[4].get(), N);

  // Containment follows nesting: a loop's source statement lies inside
  // every ancestor's body, and sibling bodies share no statement.
  auto Inside = [](const NestLoop &Outer, const Stmt &S) {
    bool Found = false;
    forEachStmt(cast<DoLoopStmt>(Outer.Source)->getBody(),
                [&](const Stmt &Inner) { Found |= &Inner == &S; });
    return Found;
  };
  EXPECT_TRUE(Inside(*J, *K->Source));
  EXPECT_TRUE(Inside(*I, *J->Source));
  EXPECT_TRUE(Inside(*I, *K->Source));
  EXPECT_TRUE(Inside(*I, *M->Source));
  EXPECT_FALSE(Inside(*J, *M->Source));
  EXPECT_FALSE(Inside(*M, *K->Source));
  EXPECT_FALSE(Inside(*I, *N->Source));

  // nodeFor reports each loop's own node, never an enclosing one.
  T.forEach([&](const NestLoop &L) { EXPECT_EQ(T.nodeFor(*L.Source), &L); });
}

TEST(LoopNestTest, SiblingNestsComeOutInSourceOrder) {
  Program P = parseOrDie("do a = 1, 4 {\n"
                         "  do b = 1, 4 { B[b] = B[b - 1]; }\n"
                         "}\n"
                         "do c = 1, 4 {\n"
                         "  do d = 1, 4 { D[d] = D[d - 1]; }\n"
                         "}\n");
  LoopNestTree T(P);
  ASSERT_EQ(T.size(), 4u);
  std::vector<std::string> Order;
  for (const std::unique_ptr<NestLoop> &N : T.all())
    Order.push_back(N->iv());
  EXPECT_EQ(Order, (std::vector<std::string>{"a", "b", "c", "d"}));
  EXPECT_EQ(T.all()[1]->Parent, T.all()[0].get());
  EXPECT_EQ(T.all()[3]->Parent, T.all()[2].get());
}

TEST(LoopNestTest, BranchLoopsKeepSourceOrderAndTheirOwnForms) {
  // Loops in both branches of an if: the then-branch loop comes first,
  // and each child's analyzed form is its own embedded copy. In the
  // second program the children's embedded copies differ in shape, so
  // pairing them out of source order would read past an embedded list.
  for (const char *Source : {"do i = 1, 6 {\n"
                             "  if (x > 0) {\n"
                             "    do j = 1, 4 { A[j] = 1; }\n"
                             "  } else {\n"
                             "    do k = 1, 9 { A[k] = 2; }\n"
                             "  }\n"
                             "}\n",
                             "do i = 1, 6 {\n"
                             "  if (x > 0) {\n"
                             "    if (x > 0) { do j = 1, 4 { y = B[j]; } }\n"
                             "    do m = 1, 5 {\n"
                             "      do n = 1, 4 { y = B[n]; }\n"
                             "    }\n"
                             "  } else {\n"
                             "    if (y > 0) { do k = 1, 9 { y = B[k]; } }\n"
                             "  }\n"
                             "}\n"}) {
    Program P = parseOrDie(Source);
    LoopNestTree T(P);
    ASSERT_EQ(T.supportedCount(), T.size()) << Source;
    const NestLoop &I = *T.roots()[0];
    std::vector<std::string> Kids;
    for (const NestLoop *C : I.Children)
      Kids.push_back(C->iv());
    EXPECT_EQ(Kids.front(), "j") << Source;
    EXPECT_EQ(Kids.back(), "k") << Source;
    // Every loop's analyzed form is its own: same induction variable
    // as its source loop, structurally equal to its standalone form.
    T.forEach([&](const NestLoop &N) {
      EXPECT_EQ(N.iv(), cast<DoLoopStmt>(N.Source)->getIndVar()) << Source;
      EXPECT_TRUE(N.Analyzed->equals(*N.Reduced)) << N.path();
    });
  }
}

//===----------------------------------------------------------------------===//
// Discovery: which loops are natural loops, and who encloses them
//===----------------------------------------------------------------------===//

TEST(LoopNestTest, WhileLoopIsDiscoveredWithSource) {
  Program P = parseOrDie("i = 1; while (i <= 5) { x = x + i; i = i + 1; }");
  LoopNestTree T(P);
  ASSERT_EQ(T.size(), 1u);
  EXPECT_EQ(T.roots()[0]->Source, P.getStmts()[1].get());
  EXPECT_TRUE(T.roots()[0]->isWhile());
  EXPECT_EQ(T.roots()[0]->ConsumedInit, P.getStmts()[0].get());
}

TEST(LoopNestTest, BreakInInnerLoopExitsOnlyTheInnerLoop) {
  // The break leaves j but stays inside i: i keeps j as its child and
  // is rejected for the unsupported child, not for an early exit.
  Program P = parseOrDie("do i = 1, 10 {\n"
                         "  do j = 1, 10 {\n"
                         "    if (A[j] > 0) { break; }\n"
                         "    A[j] = 1;\n"
                         "  }\n"
                         "  x = x + 1;\n"
                         "}\n");
  LoopNestTree T(P);
  ASSERT_EQ(T.size(), 2u);
  const NestLoop &I = *T.all()[0], &J = *T.all()[1];
  EXPECT_EQ(J.Parent, &I);
  EXPECT_NE(J.UnsupportedReason.find("early exit"), std::string::npos);
  EXPECT_NE(I.UnsupportedReason.find("unsupported inner loop"),
            std::string::npos)
      << I.UnsupportedReason;
}

TEST(LoopNestTest, LoopAfterUnconditionalBreakIsAbsent) {
  // j follows a break in its branch, so it never runs; i's body still
  // completes through the branch-less path.
  Program P = parseOrDie("do i = 1, 10 {\n"
                         "  if (A[i] > 0) {\n"
                         "    break;\n"
                         "    do j = 1, 10 { A[j] = 1; }\n"
                         "  }\n"
                         "  A[i] = 2;\n"
                         "}\n");
  LoopNestTree T(P);
  ASSERT_EQ(T.size(), 1u);
  EXPECT_EQ(T.roots()[0]->Source, P.getStmts()[0].get());
  EXPECT_TRUE(T.roots()[0]->Children.empty());
}

TEST(LoopNestTest, LoopWhoseBodyAlwaysBreaksIsAbsent) {
  // o's latch is unreachable (both branches of the if break), so o is
  // no natural loop; the loops inside it still are, as roots.
  Program P = parseOrDie("do o = 1, 10 {\n"
                         "  do p = 1, 4 { A[p] = 1; }\n"
                         "  if (x > 0) {\n"
                         "    do q = 1, 4 { B[q] = 1; }\n"
                         "    break;\n"
                         "  } else {\n"
                         "    break;\n"
                         "  }\n"
                         "}\n");
  LoopNestTree T(P);
  ASSERT_EQ(T.size(), 2u);
  ASSERT_EQ(T.roots().size(), 2u);
  EXPECT_EQ(T.roots()[0]->iv(), "p");
  EXPECT_EQ(T.roots()[1]->iv(), "q");
  EXPECT_EQ(T.supportedCount(), 2u);
}

TEST(LoopNestTest, LoopBeforeABreakBelongsToTheLoopTheBreakLeadsTo) {
  // After q, control breaks out of p straight to o's latch: q's parent
  // is o, the loop p's continuation leads to, not p.
  Program P = parseOrDie("do o = 1, 10 {\n"
                         "  do p = 1, 10 {\n"
                         "    if (x > 0) {\n"
                         "      do q = 1, 4 { B[q] = 1; }\n"
                         "      break;\n"
                         "    }\n"
                         "    A[p] = 1;\n"
                         "  }\n"
                         "}\n");
  LoopNestTree T(P);
  ASSERT_EQ(T.size(), 3u);
  const NestLoop &O = *T.all()[0], &Pl = *T.all()[1], &Q = *T.all()[2];
  EXPECT_EQ(Pl.Parent, &O);
  EXPECT_EQ(Q.Parent, &O);
  EXPECT_EQ(Q.Depth, 1u);
  ASSERT_EQ(O.Children.size(), 2u);
  EXPECT_EQ(O.Children[0], &Pl);
  EXPECT_EQ(O.Children[1], &Q);
  EXPECT_TRUE(Pl.Children.empty());
}

//===----------------------------------------------------------------------===//
// While recognition
//===----------------------------------------------------------------------===//

TEST(LoopNestTest, CountedWhileReducesToTheExactDoLoop) {
  Program P = parseOrDie("i = 1;\n"
                         "while (i <= 10) {\n"
                         "  A[i] = A[i] + 1;\n"
                         "  i = i + 1;\n"
                         "}\n");
  LoopNestTree T(P);
  ASSERT_EQ(T.size(), 1u);
  const NestLoop &N = *T.roots()[0];
  ASSERT_TRUE(N.isSupported());
  EXPECT_TRUE(N.isWhile());
  EXPECT_EQ(N.iv(), "i");
  EXPECT_EQ(N.tripCount(), 10);
  EXPECT_EQ(N.ConsumedInit, P.getStmts()[0].get());
  EXPECT_EQ(N.Analyzed, N.Reduced.get());

  // The reduced form is exactly the hand-normalized DO loop: the
  // trailing increment is consumed, the bounds come from init + guard.
  Program Expected = parseOrDie("do i = 1, 10 { A[i] = A[i] + 1; }");
  EXPECT_TRUE(N.Reduced->equals(*Expected.getFirstLoop()))
      << programToString(P);
}

TEST(LoopNestTest, StrictLessThanAdjustsTheUpperBound) {
  Program P = parseOrDie("i = 1; while (i < 10) { x = x + i; i = i + 1; }");
  LoopNestTree T(P);
  ASSERT_TRUE(T.roots()[0]->isSupported());
  EXPECT_EQ(T.roots()[0]->tripCount(), 9);
}

TEST(LoopNestTest, NonUnitWhileStepIsNormalized) {
  // i = 1, 3, ..., 9: five iterations after normalization.
  Program P = parseOrDie("i = 1; while (i <= 10) { A[i] = 0; i = i + 2; }");
  LoopNestTree T(P);
  ASSERT_TRUE(T.roots()[0]->isSupported());
  EXPECT_EQ(T.roots()[0]->tripCount(), 5);
  EXPECT_TRUE(T.roots()[0]->Reduced->isNormalized());
}

TEST(LoopNestTest, DowncountingWhileIsRecognized) {
  Program P = parseOrDie("i = 10; while (i >= 1) { A[i] = 0; i = i - 1; }");
  LoopNestTree T(P);
  ASSERT_TRUE(T.roots()[0]->isSupported());
  EXPECT_EQ(T.roots()[0]->tripCount(), 10);
}

//===----------------------------------------------------------------------===//
// Rejections: every reason has a concrete trigger
//===----------------------------------------------------------------------===//

namespace {

/// Builds the nest of \p Source and expects its only root to be
/// rejected with a reason containing \p ReasonPart.
void expectRejected(const std::string &Source,
                    const std::string &ReasonPart) {
  Program P = parseOrDie(Source);
  LoopNestTree T(P);
  ASSERT_GE(T.size(), 1u) << Source;
  const NestLoop &N = *T.roots()[0];
  EXPECT_FALSE(N.isSupported()) << Source;
  EXPECT_EQ(N.Reduced, nullptr);
  EXPECT_NE(N.UnsupportedReason.find(ReasonPart), std::string::npos)
      << "reason was: " << N.UnsupportedReason << "\nfor:\n" << Source;
}

} // namespace

TEST(LoopNestRejectTest, BreakMeansEarlyExit) {
  expectRejected("do i = 1, 10 { if (A[i] > 0) { break; } A[i] = 1; }",
                 "early exit");
  expectRejected(
      "i = 1; while (i <= 9) { if (A[i] > 0) { break; } i = i + 1; }",
      "early exit");
  // An unconditional break severs the path to the latch entirely: the
  // back edge is unreachable, so no natural loop (and no nest node)
  // exists in the first place.
  Program P =
      parseOrDie("i = 1; while (i <= 9) { break; i = i + 1; }");
  LoopNestTree T(P);
  EXPECT_EQ(T.size(), 0u);
}

TEST(LoopNestRejectTest, UncountedWhileCondition) {
  expectRejected("i = 1; while (A[i] > 0) { i = i + 1; }",
                 "not a counted form");
  expectRejected("i = 1; while (i + 1 < 10) { i = i + 1; }",
                 "not a counted form");
}

TEST(LoopNestRejectTest, MissingInit) {
  expectRejected("x = 1; while (i <= 10) { A[i] = 0; i = i + 1; }",
                 "no initialization");
}

TEST(LoopNestRejectTest, MissingTrailingIncrement) {
  expectRejected("i = 1; while (i <= 10) { A[i] = 0; }", "no trailing");
  // An increment that is not last does not count as the trailing one.
  expectRejected("i = 1; while (i <= 10) { i = i + 1; A[i] = 0; }",
                 "no trailing");
}

TEST(LoopNestRejectTest, IncrementContradictsGuard) {
  expectRejected("i = 1; while (i <= 10) { A[i] = 0; i = i - 1; }",
                 "contradicts");
}

TEST(LoopNestRejectTest, InductionVariableRewritten) {
  expectRejected(
      "i = 1; while (i <= 10) { i = i * 2; A[i] = 0; i = i + 1; }",
      "assigned more than once");
  expectRejected("do i = 1, 10 { i = i + 2; A[i] = 0; }", "assigned");
}

TEST(LoopNestRejectTest, InductionVariableAssignmentIsRecorded) {
  // The first assignment to the DO loop's induction variable, at any
  // depth, is recorded on the loop it violates.
  Program P = parseOrDie("do i = 1, 10 {\n"
                         "  B[i] = 1;\n"
                         "  do j = 1, 10 {\n"
                         "    i = i + 2;\n"
                         "  }\n"
                         "  i = 3;\n"
                         "}\n");
  LoopNestTree T(P);
  const NestLoop *I = T.roots()[0];
  EXPECT_FALSE(I->isSupported());
  ASSERT_NE(I->IVAssignment, nullptr);
  EXPECT_EQ(I->IVAssignment->getLoc(), SourceLoc(4, 5));
  // j's own induction variable is untouched: it is analyzed alone.
  const NestLoop *J = nodeWithIv(T, "j");
  ASSERT_NE(J, nullptr);
  EXPECT_TRUE(J->isSupported());
  EXPECT_EQ(J->IVAssignment, nullptr);
}

TEST(LoopNestRejectTest, InnerLoopOverTheSameVariableIsNoAssignment) {
  // An inner DO loop that rebinds the induction variable rejects the
  // outer loop, but is not an assignment statement to report.
  Program P = parseOrDie("do i = 1, 2 { do i = 1, 2 { x = 1; } }");
  LoopNestTree T(P);
  const NestLoop &Outer = *T.roots()[0];
  EXPECT_FALSE(Outer.isSupported());
  EXPECT_NE(Outer.UnsupportedReason.find("assigned"), std::string::npos);
  EXPECT_EQ(Outer.IVAssignment, nullptr);
}

TEST(LoopNestRejectTest, BoundMentionsOrMutatesItself) {
  expectRejected("n = 5; i = 1; while (i < n) { n = n + 1; i = i + 1; }",
                 "modified inside");
}

TEST(LoopNestRejectTest, EmptyBody) {
  expectRejected("i = 1; while (i <= 10) { i = i + 1; }", "empty loop body");
}

TEST(LoopNestTest, OverflowingWhileBoundStaysSymbolic) {
  // `i > INT64_MAX` cannot fold to the inclusive bound INT64_MAX + 1.
  Program P = parseOrDie("i = 5;\n"
                         "while (i > 9223372036854775807) {\n"
                         "  A[i] = 0;\n"
                         "  i = i - 1;\n"
                         "}\n");
  LoopNestTree T(P);
  ASSERT_EQ(T.size(), 1u);
  const NestLoop &N = *T.roots()[0];
  ASSERT_TRUE(N.isSupported()) << N.UnsupportedReason;
  EXPECT_EQ(N.tripCount(), -1);
}

TEST(LoopNestRejectTest, ZeroStepDoLoop) {
  Program P;
  StmtList Body;
  Body.push_back(assign(array("A", var("i")), lit(0)));
  P.addStmt(std::make_unique<DoLoopStmt>("i", lit(1), lit(10),
                                         std::move(Body), 0));
  LoopNestTree T(P);
  ASSERT_EQ(T.size(), 1u);
  EXPECT_FALSE(T.roots()[0]->isSupported());
}

TEST(LoopNestRejectTest, UnsupportedChildPoisonsAncestors) {
  Program P = parseOrDie("do i = 1, 10 {\n"
                         "  do j = 1, 10 {\n"
                         "    if (A[j] > 0) { break; }\n"
                         "    A[j] = 1;\n"
                         "  }\n"
                         "}\n");
  LoopNestTree T(P);
  ASSERT_EQ(T.size(), 2u);
  EXPECT_EQ(T.supportedCount(), 0u);
  const NestLoop &Outer = *T.roots()[0];
  EXPECT_NE(Outer.UnsupportedReason.find("unsupported inner loop"),
            std::string::npos)
      << Outer.UnsupportedReason;
}

TEST(LoopNestTest, SupportedChildUnderUnsupportedParentIsAnalyzedAlone) {
  Program P = parseOrDie("do i = 1, 10 {\n"
                         "  do j = 1, 10 { A[j+1] = A[j]; }\n"
                         "  if (x > 0) { break; }\n"
                         "}\n");
  LoopNestTree T(P);
  ASSERT_EQ(T.size(), 2u);
  EXPECT_EQ(T.supportedCount(), 1u);
  const NestLoop *J = nodeWithIv(T, "j");
  ASSERT_NE(J, nullptr);
  ASSERT_FALSE(J->Parent->isSupported());
  // The inner loop becomes its own analysis root...
  EXPECT_EQ(J->Analyzed, J->Reduced.get());
  // ...and its path marks the unanalyzable level.
  EXPECT_EQ(J->path(), "?/j");
}

//===----------------------------------------------------------------------===//
// Reduced forms are analyzable and engine-identical
//===----------------------------------------------------------------------===//

TEST(LoopNestTest, ReducedFormsSolveBitIdenticallyOnAllEngines) {
  Program P = parseOrDie("i = 1;\n"
                         "while (i <= 20) {\n"
                         "  do j = 1, 20 {\n"
                         "    A[j + 2] = A[j] * 2;\n"
                         "    T[j] = A[j + 1];\n"
                         "  }\n"
                         "  i = i + 1;\n"
                         "}\n"
                         "do m = 3, 19, 2 { T[m] = T[m - 2] + 1; }\n");
  LoopNestTree T(P);
  EXPECT_EQ(T.supportedCount(), 3u);

  const SolverOptions::Engine Engines[] = {
      SolverOptions::Engine::Reference, SolverOptions::Engine::PackedKernel};
  T.forEach([&](const NestLoop &N) {
    if (!N.isSupported())
      return;
    for (const ProblemSpec &Spec : paperProblems()) {
      SolverOptions Ref;
      Ref.Eng = SolverOptions::Engine::Reference;
      LoopAnalysisSession Baseline(P, *N.Analyzed);
      const SolveResult &Want = Baseline.solve(Spec, Ref);
      ASSERT_EQ(Want.Outcome, SolveOutcome::Ok);
      for (SolverOptions::Engine Eng : Engines) {
        SolverOptions Opts;
        Opts.Eng = Eng;
        LoopAnalysisSession Session(P, *N.Analyzed);
        const SolveResult &Got = Session.solve(Spec, Opts);
        EXPECT_EQ(Got.In, Want.In)
            << N.path() << " / " << Spec.Name << " / engine "
            << engineName(Eng);
        EXPECT_EQ(Got.Out, Want.Out)
            << N.path() << " / " << Spec.Name << " / engine "
            << engineName(Eng);
      }
    }
  });
}

TEST(LoopNestTest, PerLevelSessionsSeeOuterDistances) {
  // Classic 2-D stencil: the inner loop re-reads the previous j value
  // (distance 1 at the inner level) and the previous i row (distance 1
  // at the outer level).
  Program P = parseOrDie("array X[64, 64];\n"
                         "do i = 1, 32 {\n"
                         "  do j = 1, 32 {\n"
                         "    X[i, j] = X[i, j - 1] + X[i - 1, j];\n"
                         "  }\n"
                         "}\n");
  LoopNestTree T(P);
  const NestLoop *J = nodeWithIv(T, "j");
  ASSERT_NE(J, nullptr);
  ASSERT_EQ(J->Depth, 1u);
  const NestLoop *I = J->Parent;
  ASSERT_TRUE(I && I->isSupported());

  // Inner level: X[i, j-1] is available at distance 1.
  LoopAnalysisSession Inner(P, *J->Analyzed);
  std::vector<ReusePair> InnerPairs = Inner.reusePairs(
      ProblemSpec::availableValuesPerOccurrence(), RefSelector::Uses);
  bool InnerDist1 = false;
  for (const ReusePair &Pr : InnerPairs)
    InnerDist1 |= Pr.Distance == 1;
  EXPECT_TRUE(InnerDist1);

  // Outer level (with respect to i): X[i-1, j] reaches from the
  // previous outer iteration at distance 1.
  LoopAnalysisSession Outer(P, *J, *I);
  std::vector<ReusePair> OuterPairs = Outer.reusePairs(
      ProblemSpec::availableValuesPerOccurrence(), RefSelector::Uses);
  bool OuterDist1 = false;
  for (const ReusePair &Pr : OuterPairs)
    OuterDist1 |= Pr.Distance == 1;
  EXPECT_TRUE(OuterDist1);
}

TEST(LoopNestTest, NestedBodiesEmbedReducedChildren) {
  // The analyzed form of a depth-1 loop is the copy embedded in its
  // root's Reduced tree, not the standalone Reduced.
  Program P = parseOrDie("do i = 1, 4 { do j = 1, 4 { A[j] = j; } }");
  LoopNestTree T(P);
  const NestLoop *I = nodeWithIv(T, "i"), *J = nodeWithIv(T, "j");
  ASSERT_TRUE(I && J);
  EXPECT_EQ(I->Analyzed, I->Reduced.get());
  EXPECT_NE(J->Analyzed, J->Reduced.get());
  EXPECT_TRUE(J->Analyzed->equals(*J->Reduced));
  // The embedded copy lives inside the root's reduced body.
  bool Embedded = false;
  forEachStmt(*I->Reduced, [&](const Stmt &S) {
    Embedded |= &S == static_cast<const Stmt *>(J->Analyzed);
  });
  EXPECT_TRUE(Embedded);
}

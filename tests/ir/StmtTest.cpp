//===- tests/ir/StmtTest.cpp - Statement node behavior -------------------===//

#include "ir/IRBuilder.h"
#include "ir/Program.h"

#include <gtest/gtest.h>

using namespace ardf;

namespace {

StmtPtr makeFig1Loop() {
  StmtList Body;
  Body.push_back(assign(array("C", add(var("i"), lit(2))),
                        mul(array("C", var("i")), lit(2))));
  StmtList Then;
  Then.push_back(assign(array("C", var("i")), array("B", sub(var("i"), lit(1)))));
  Body.push_back(ifThen(eq(array("C", var("i")), lit(0)), std::move(Then)));
  return doLoop("i", 1, 1000, std::move(Body));
}

} // namespace

TEST(StmtTest, AssignTarget) {
  StmtPtr S = assign(array("A", var("i")), lit(0));
  const auto *AS = cast<AssignStmt>(S.get());
  ASSERT_NE(AS->getArrayTarget(), nullptr);
  EXPECT_EQ(AS->getArrayTarget()->getName(), "A");

  StmtPtr Scalar = assign(var("x"), lit(0));
  EXPECT_EQ(cast<AssignStmt>(Scalar.get())->getArrayTarget(), nullptr);
}

TEST(StmtTest, DoLoopProperties) {
  StmtPtr S = makeFig1Loop();
  const auto *DL = cast<DoLoopStmt>(S.get());
  EXPECT_EQ(DL->getIndVar(), "i");
  EXPECT_TRUE(DL->isNormalized());
  EXPECT_EQ(DL->getConstantTripCount(), 1000);
}

TEST(StmtTest, SymbolicTripCountIsUnknown) {
  StmtList Body;
  Body.push_back(assign(var("x"), lit(0)));
  StmtPtr S = doLoop("i", 1, "N", std::move(Body));
  EXPECT_EQ(cast<DoLoopStmt>(S.get())->getConstantTripCount(), -1);
}

TEST(StmtTest, NonUnitStepIsNotNormalized) {
  StmtList Body;
  Body.push_back(assign(var("x"), lit(0)));
  auto DL = std::make_unique<DoLoopStmt>("i", lit(1), lit(10),
                                         std::move(Body), 2);
  EXPECT_FALSE(DL->isNormalized());
  EXPECT_EQ(DL->getConstantTripCount(), 5);
}

TEST(StmtTest, CloneIsDeep) {
  StmtPtr S = makeFig1Loop();
  StmtPtr C = S->clone();
  EXPECT_NE(S.get(), C.get());
  const auto *A = cast<DoLoopStmt>(S.get());
  const auto *B = cast<DoLoopStmt>(C.get());
  EXPECT_EQ(A->getBody().size(), B->getBody().size());
  EXPECT_NE(A->getBody()[0].get(), B->getBody()[0].get());
  // Both bodies contain an if with one then-statement.
  const auto *IfA = cast<IfStmt>(A->getBody()[1].get());
  const auto *IfB = cast<IfStmt>(B->getBody()[1].get());
  EXPECT_TRUE(IfA->getCond()->equals(*IfB->getCond()));
  EXPECT_EQ(IfB->getThen().size(), 1u);
  EXPECT_FALSE(IfB->hasElse());
}

TEST(StmtTest, ForEachStmtVisitsNested) {
  StmtPtr S = makeFig1Loop();
  unsigned Assigns = 0, Ifs = 0, Loops = 0;
  forEachStmt(*S, [&](const Stmt &Sub) {
    switch (Sub.getKind()) {
    case Stmt::Kind::Assign:
      ++Assigns;
      break;
    case Stmt::Kind::If:
      ++Ifs;
      break;
    case Stmt::Kind::DoLoop:
      ++Loops;
      break;
    case Stmt::Kind::While:
    case Stmt::Kind::Break:
      break;
    }
  });
  EXPECT_EQ(Assigns, 2u);
  EXPECT_EQ(Ifs, 1u);
  EXPECT_EQ(Loops, 1u);
}

TEST(StmtTest, PreorderIdsNumberTargetsInOneWalk) {
  // x = 1; do i { A[i] = 0; if (c) { y = 2; } }: ids 1..5 in pre-order.
  StmtList Then;
  Then.push_back(assign(var("y"), lit(2)));
  StmtList Body;
  Body.push_back(assign(array("A", var("i")), lit(0)));
  Body.push_back(
      std::make_unique<IfStmt>(var("c"), std::move(Then), StmtList()));
  StmtList Stmts;
  Stmts.push_back(assign(var("x"), lit(1)));
  Stmts.push_back(doLoop("i", 1, 10, std::move(Body)));
  const auto &Loop = *cast<DoLoopStmt>(Stmts[1].get());
  const Stmt *If = Loop.getBody()[1].get();
  const Stmt *Y = cast<IfStmt>(If)->getThen()[0].get();
  Stmt *Outside = Stmts[0].get();
  StmtPtr Stranger = assign(var("z"), lit(3));
  EXPECT_EQ(preorderIds(Stmts, {Y, &Loop, Y, Outside, Stranger.get()}),
            (std::vector<unsigned>{5, 2, 5, 1, 0}));
  EXPECT_TRUE(preorderIds(Stmts, {}).empty());
}

TEST(StmtTest, WhileCloneAndEquals) {
  StmtList Body;
  Body.push_back(assign(array("A", var("i")), lit(0)));
  Body.push_back(assign(var("i"), add(var("i"), lit(1))));
  StmtPtr W = whileLoop(binop(BinaryOpKind::Le, var("i"), lit(10)),
                        std::move(Body));

  StmtPtr C = W->clone();
  EXPECT_NE(W.get(), C.get());
  EXPECT_TRUE(W->equals(*C));
  const auto *WC = cast<WhileStmt>(C.get());
  EXPECT_EQ(WC->getBody().size(), 2u);
  EXPECT_NE(WC->getBody()[0].get(),
            cast<WhileStmt>(W.get())->getBody()[0].get());

  // Different condition: not equal.
  StmtList Body2;
  Body2.push_back(assign(array("A", var("i")), lit(0)));
  Body2.push_back(assign(var("i"), add(var("i"), lit(1))));
  StmtPtr W2 = whileLoop(binop(BinaryOpKind::Lt, var("i"), lit(10)),
                         std::move(Body2));
  EXPECT_FALSE(W->equals(*W2));

  // Different body: not equal.
  StmtList Body3;
  Body3.push_back(assign(var("i"), add(var("i"), lit(1))));
  StmtPtr W3 = whileLoop(binop(BinaryOpKind::Le, var("i"), lit(10)),
                         std::move(Body3));
  EXPECT_FALSE(W->equals(*W3));
}

TEST(StmtTest, BreakCloneAndEquals) {
  StmtPtr B = breakStmt();
  StmtPtr C = B->clone();
  EXPECT_NE(B.get(), C.get());
  EXPECT_TRUE(B->equals(*C));
  // A break never equals a non-break statement.
  StmtPtr A = assign(var("x"), lit(1));
  EXPECT_FALSE(B->equals(*A));
  EXPECT_FALSE(A->equals(*B));
}

TEST(StmtTest, WhileNeverEqualsDoLoop) {
  // rerun() diffing leans on kind-mismatch inequality; a while whose
  // body matches a DO loop's body must still compare unequal.
  StmtList WBody;
  WBody.push_back(assign(array("A", var("i")), lit(0)));
  StmtPtr W = whileLoop(binop(BinaryOpKind::Le, var("i"), lit(10)),
                        std::move(WBody));
  StmtList DBody;
  DBody.push_back(assign(array("A", var("i")), lit(0)));
  StmtPtr D = doLoop("i", 1, 10, std::move(DBody));
  EXPECT_FALSE(W->equals(*D));
  EXPECT_FALSE(D->equals(*W));
}

TEST(StmtTest, ProgramAccessors) {
  Program P;
  std::vector<ExprPtr> Dims;
  Dims.push_back(lit(100));
  P.declareArray("A", std::move(Dims));
  P.addStmt(makeFig1Loop());

  ASSERT_NE(P.getArrayDecl("A"), nullptr);
  EXPECT_EQ(P.getArrayDecl("B"), nullptr);
  ASSERT_NE(P.getFirstLoop(), nullptr);
  EXPECT_EQ(P.getFirstLoop()->getIndVar(), "i");

  Program Q = P.clone();
  EXPECT_NE(Q.getFirstLoop(), P.getFirstLoop());
  EXPECT_EQ(Q.arrayDecls().size(), 1u);
}

//===- tests/passes/PassesTest.cpp - Normalization and validation --------===//

#include "analysis/LoopNest.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/PrettyPrinter.h"
#include "passes/LoopNormalize.h"
#include "passes/Validate.h"

#include <gtest/gtest.h>

using namespace ardf;

namespace {

void checkEquivalent(const Program &A, const Program &B,
                     const std::map<std::string, int64_t> &Scalars = {}) {
  Interpreter IA(A), IB(B);
  for (const auto &[Name, Value] : Scalars) {
    IA.setScalar(Name, Value);
    IB.setScalar(Name, Value);
  }
  IA.seedArray("A", 128, 9);
  IB.seedArray("A", 128, 9);
  IA.run();
  IB.run();
  EXPECT_EQ(IA.state().Arrays, IB.state().Arrays)
      << programToString(A) << "--- normalized:\n" << programToString(B);
}

} // namespace

TEST(LoopNormalizeTest, ShiftedLowerBound) {
  Program P = parseOrDie("do i = 3, 12 { A[i] = i * 2; }");
  NormalizeResult R = normalizeLoops(P);
  EXPECT_EQ(R.LoopsNormalized, 1u);
  const DoLoopStmt *Loop = R.Transformed.getFirstLoop();
  ASSERT_NE(Loop, nullptr);
  EXPECT_TRUE(Loop->isNormalized());
  EXPECT_EQ(Loop->getConstantTripCount(), 10);
  checkEquivalent(P, R.Transformed);
}

TEST(LoopNormalizeTest, StridedLoop) {
  Program P = parseOrDie("do i = 1, 20, 3 { A[i] = i; }");
  NormalizeResult R = normalizeLoops(P);
  EXPECT_EQ(R.LoopsNormalized, 1u);
  EXPECT_EQ(R.Transformed.getFirstLoop()->getConstantTripCount(), 7);
  checkEquivalent(P, R.Transformed);
}

TEST(LoopNormalizeTest, DownwardLoop) {
  Program P = parseOrDie("do i = 10, 1, -1 { A[i] = 11 - i; }");
  NormalizeResult R = normalizeLoops(P);
  EXPECT_EQ(R.LoopsNormalized, 1u);
  EXPECT_TRUE(R.Transformed.getFirstLoop()->isNormalized());
  checkEquivalent(P, R.Transformed);
}

TEST(LoopNormalizeTest, SymbolicBounds) {
  Program P = parseOrDie("do i = 2, N { A[i] = i; }");
  NormalizeResult R = normalizeLoops(P);
  EXPECT_EQ(R.LoopsNormalized, 1u);
  checkEquivalent(P, R.Transformed, {{"N", 23}});
}

TEST(LoopNormalizeTest, AlreadyNormalizedUntouched) {
  Program P = parseOrDie("do i = 1, 10 { A[i] = i; }");
  NormalizeResult R = normalizeLoops(P);
  EXPECT_EQ(R.LoopsNormalized, 0u);
  EXPECT_EQ(programToString(R.Transformed), programToString(P));
}

TEST(LoopNormalizeTest, NormalizedLoopComesBackWithoutACopy) {
  StmtList Body;
  Body.push_back(assign(array("A", var("i")), lit(0)));
  auto Loop = std::make_unique<DoLoopStmt>("i", lit(1), lit(10),
                                           std::move(Body));
  const DoLoopStmt *Before = Loop.get();
  EXPECT_EQ(normalizeLoop(std::move(Loop)).get(), Before);
}

TEST(LoopNormalizeTest, OverflowingTripCountStaysSymbolic) {
  // (hi - lo + s) leaves int64 for both loops: the trip count is built as
  // an expression instead of folded, and reads as unknown.
  for (const char *Source :
       {"do i = 0, 9223372036854775807 { A[i] = A[i + 1]; }",
        "do i = 0, 9223372036854775807, 2 { A[i] = A[i + 1]; }"}) {
    Program P = parseOrDie(Source);
    EXPECT_EQ(P.getFirstLoop()->getConstantTripCount(), -1) << Source;
    NormalizeResult R = normalizeLoops(P);
    const DoLoopStmt *Loop = R.Transformed.getFirstLoop();
    ASSERT_NE(Loop, nullptr);
    EXPECT_TRUE(Loop->isNormalized());
    EXPECT_FALSE(isa<IntLit>(Loop->getUpper())) << Source;
    EXPECT_EQ(Loop->getConstantTripCount(), -1) << Source;
  }
}

TEST(LoopNormalizeTest, NestedLoops) {
  Program P = parseOrDie(
      "do j = 2, 9 { do i = 0, 6, 2 { A[8 * j + i] = i + j; } }");
  NormalizeResult R = normalizeLoops(P);
  EXPECT_EQ(R.LoopsNormalized, 2u);
  checkEquivalent(P, R.Transformed);
}

TEST(LoopNormalizeTest, SubscriptsStayAffine) {
  Program P = parseOrDie("do i = 3, 30, 3 { A[2 * i + 1] = A[2 * i - 5]; }");
  NormalizeResult R = normalizeLoops(P);
  checkEquivalent(P, R.Transformed);
  std::vector<ValidationIssue> Issues =
      validateForAnalysis(R.Transformed);
  for (const ValidationIssue &I : Issues)
    EXPECT_NE(I.Message.find("not affine"), std::string::npos)
        << "unexpected issue: " << I.Message;
  EXPECT_TRUE(Issues.empty());
}

TEST(ValidateTest, CleanProgram) {
  Program P = parseOrDie("do i = 1, 10 { A[i+1] = A[i]; }");
  EXPECT_TRUE(validateForAnalysis(P).empty());
}

TEST(ValidateTest, NonNormalizedLoopIsNoIssue) {
  // The loop nest normalizes every loop it supports before analysis, so
  // loop shape is not Validate's to report.
  Program P = parseOrDie("do i = 2, 10 { A[i] = 0; }");
  EXPECT_TRUE(validateForAnalysis(P).empty());
}

TEST(ValidateTest, FlagsSubscriptOverAssignedScalar) {
  // k changes while the loop runs, so A[k + j] is not the affine
  // function of j its form claims: a whole-array access.
  Program P = parseOrDie("do j = 1, 10 {\n"
                         "  A[k + j] = A[k + j - 1] + 1;\n"
                         "  k = k + 5;\n"
                         "}\n");
  std::vector<ValidationIssue> Issues = validateForAnalysis(P);
  ASSERT_EQ(Issues.size(), 2u);
  EXPECT_EQ(Issues[0].Message,
            "subscript of A[k + j - 1] mentions 'k', which the loop assigns; "
            "the reference is treated as a whole-array access");
  EXPECT_EQ(Issues[0].Loc, SourceLoc(2, 14));
  EXPECT_EQ(Issues[1].Message,
            "subscript of A[k + j] mentions 'k', which the loop assigns; the "
            "reference is treated as a whole-array access");
  EXPECT_EQ(Issues[1].Loc, SourceLoc(2, 3));
  for (const ValidationIssue &I : Issues) {
    EXPECT_EQ(I.Severity, IssueSeverity::Warning);
    EXPECT_EQ(I.StmtId, 2u);
  }
  EXPECT_TRUE(isAnalyzable(Issues));
}

TEST(ValidateTest, InnerLoopReferencesAreNotCheckedAgainstOuterWrites) {
  // A[k + j] and X[i, j] sit inside the inner loop: at the outer level
  // they are summary references, and within the inner loop k and i stay
  // constant.
  Program P = parseOrDie("array X[10, 10];\n"
                         "do i = 1, 10 {\n"
                         "  k = k + i;\n"
                         "  do j = 1, 10 { A[k + j] = X[i, j]; }\n"
                         "}\n");
  EXPECT_TRUE(validateForAnalysis(P).empty());
}

TEST(ValidateTest, FlagsInductionVariableAssignment) {
  // The Section 1 rule has one home, the loop nest: Validate leaves it
  // there, and the nest rejects the loop and records the assignment.
  Program P = parseOrDie("do i = 1, 10 { i = i + 2; }");
  EXPECT_TRUE(validateForAnalysis(P).empty());
  LoopNestTree T(P);
  ASSERT_EQ(T.roots().size(), 1u);
  const NestLoop &N = *T.roots()[0];
  EXPECT_FALSE(N.isSupported());
  EXPECT_NE(N.IVAssignment, nullptr);
}

TEST(ValidateTest, InductionVariableIssueAnchorsAtAssignment) {
  Program P = parseOrDie("do i = 1, 10 {\n  B[i] = 1;\n  i = i + 2;\n}");
  LoopNestTree T(P);
  ASSERT_EQ(T.roots().size(), 1u);
  const Stmt *Assignment = T.roots()[0]->IVAssignment;
  ASSERT_NE(Assignment, nullptr);
  EXPECT_TRUE(isa<AssignStmt>(Assignment));
  EXPECT_EQ(Assignment->getLoc(), SourceLoc(3, 3));
  EXPECT_EQ(preorderIds(P.getStmts(), {Assignment}),
            std::vector<unsigned>{3u});
}

TEST(ValidateTest, FlagsNonAffineSubscript) {
  Program P = parseOrDie("do i = 1, 10 { A[i * i] = 0; }");
  std::vector<ValidationIssue> Issues = validateForAnalysis(P);
  ASSERT_FALSE(Issues.empty());
  EXPECT_NE(Issues[0].Message.find("not affine"), std::string::npos);
  EXPECT_TRUE(isAnalyzable(Issues)); // warning only: handled conservatively
}

TEST(ValidateTest, FlagsUndeclaredMultiDim) {
  Program P = parseOrDie("do i = 1, 10 { X[i, 1] = 0; }");
  std::vector<ValidationIssue> Issues = validateForAnalysis(P);
  ASSERT_FALSE(Issues.empty());
  EXPECT_NE(Issues[0].Message.find("undeclared"), std::string::npos);
}

TEST(ValidateTest, SubscriptIssueAnchorsAtReference) {
  Program P = parseOrDie("do i = 1, 10 {\n  A[i * i] = 0;\n}");
  std::vector<ValidationIssue> Issues = validateForAnalysis(P);
  ASSERT_FALSE(Issues.empty());
  const ValidationIssue &I = Issues[0];
  EXPECT_EQ(I.StmtId, 2u); // pre-order: the loop is 1, the assignment 2
  EXPECT_EQ(I.Loc, SourceLoc(2, 3)); // at A[i * i], not at the statement
  ASSERT_NE(I.Offending, nullptr);
  EXPECT_EQ(I.Offending->getKind(), Stmt::Kind::Assign);
}

TEST(ValidateTest, IssueIdsCountEarlierTopLevelStatements) {
  Program P = parseOrDie("B[1] = 0;\ndo i = 2, 10 {\n  A[i * i] = 0;\n}");
  std::vector<ValidationIssue> Issues = validateForAnalysis(P);
  ASSERT_EQ(Issues.size(), 1u); // the subscript; loop shape is no issue
  const ValidationIssue &I = Issues[0];
  EXPECT_EQ(I.StmtId, 3u); // top-level assignment 1, the loop 2
  EXPECT_EQ(I.Loc, SourceLoc(3, 3));
  ASSERT_NE(I.Offending, nullptr);
  EXPECT_TRUE(isa<AssignStmt>(I.Offending));
}

TEST(ValidateTest, ProgrammaticIrHasInvalidLocationsButValidIds) {
  // IR built without the parser carries no source positions; issues
  // still identify their statement by id.
  // do i = 1, 10 { A[i * i] = 0; }
  StmtList Body;
  Body.push_back(assign(array("A", mul(var("i"), var("i"))), lit(0)));
  Program P;
  P.addStmt(doLoop("i", 1, 10, std::move(Body)));
  std::vector<ValidationIssue> Issues = validateForAnalysis(P);
  ASSERT_FALSE(Issues.empty());
  EXPECT_FALSE(Issues[0].Loc.isValid());
  EXPECT_EQ(Issues[0].StmtId, 2u);
}

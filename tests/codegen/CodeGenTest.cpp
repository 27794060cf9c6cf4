//===- tests/codegen/CodeGenTest.cpp - Codegen and machine simulation ----===//

#include "codegen/LoopCodeGen.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "machine/Simulator.h"

#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <sstream>

using namespace ardf;

namespace {

/// Generates, simulates, and cross-checks machine code against the
/// reference interpreter on the same inputs. Returns the simulator for
/// stat inspection.
MachineSimulator runAndCheck(const char *Source, const CodeGenOptions &Opts,
                             const std::map<std::string, int64_t> &Scalars =
                                 {},
                             uint64_t Seed = 5) {
  Program P = parseOrDie(Source);
  CodeGenResult CG = generateLoopCode(P, Opts);

  Interpreter Ref(P);
  MachineSimulator Sim(CG.Prog);
  for (const auto &[Name, Value] : Scalars) {
    Ref.setScalar(Name, Value);
    auto It = CG.ScalarRegs.find(Name);
    if (It != CG.ScalarRegs.end())
      Sim.setReg(It->second, Value);
  }
  for (const char *Arr : {"A", "B", "C"}) {
    Ref.seedArray(Arr, 96, Seed);
    for (int64_t K = 0; K != 96; ++K)
      Sim.setArrayCell(Arr, K, Ref.arrayCell(Arr, K));
  }
  Ref.run();
  Sim.run();

  EXPECT_EQ(Sim.memory(), Ref.state().Arrays) << Source;
  return Sim;
}

} // namespace

TEST(MachineTest, BasicExecution) {
  MachineProgram Prog;
  Prog.emit({.Op = MOpcode::LoadImm, .Dst = 0, .Imm = 7});
  Prog.emit({.Op = MOpcode::LoadImm, .Dst = 1, .Imm = 5});
  Prog.emit({.Op = MOpcode::Add, .Dst = 2, .Src1 = 0, .Src2 = 1});
  Prog.emit({.Op = MOpcode::LoadImm, .Dst = 3, .Imm = 2});
  Prog.emit({.Op = MOpcode::Store, .Src1 = 3, .Src2 = 2, .Array = "A"});
  Prog.emit({.Op = MOpcode::Halt});
  MachineSimulator Sim(Prog);
  Sim.run();
  EXPECT_EQ(Sim.arrayCell("A", 2), 12);
  EXPECT_EQ(Sim.stats().Stores, 1u);
}

TEST(MachineTest, ArithmeticWrapsInTwosComplement) {
  // The interpreter's semantics: overflow wraps, x / 0 is 0 and
  // INT64_MIN / -1 is INT64_MIN.
  const int64_t Max = std::numeric_limits<int64_t>::max();
  const int64_t Min = std::numeric_limits<int64_t>::min();
  MachineProgram Prog;
  Prog.emit({.Op = MOpcode::LoadImm, .Dst = 0, .Imm = Max});
  Prog.emit({.Op = MOpcode::LoadImm, .Dst = 1, .Imm = Min});
  Prog.emit({.Op = MOpcode::LoadImm, .Dst = 2, .Imm = 1});
  Prog.emit({.Op = MOpcode::LoadImm, .Dst = 3, .Imm = -1});
  Prog.emit({.Op = MOpcode::LoadImm, .Dst = 4, .Imm = 0});
  Prog.emit({.Op = MOpcode::LoadImm, .Dst = 5, .Imm = 2});
  struct Case {
    MOpcode Op;
    int Lhs, Rhs;
    int64_t Expected;
  };
  const Case Cases[] = {{MOpcode::Add, 0, 2, Min}, {MOpcode::Sub, 1, 2, Max},
                        {MOpcode::Mul, 0, 5, -2},  {MOpcode::Div, 1, 3, Min},
                        {MOpcode::Mul, 1, 3, Min}, {MOpcode::Sub, 4, 1, Min},
                        {MOpcode::Div, 0, 4, 0}};
  int Reg = 10;
  for (size_t K = 0; K != std::size(Cases); ++K) {
    const Case &C = Cases[K];
    Prog.emit({.Op = C.Op, .Dst = Reg, .Src1 = C.Lhs, .Src2 = C.Rhs});
    Prog.emit({.Op = MOpcode::LoadImm, .Dst = Reg + 1,
               .Imm = static_cast<int64_t>(K)});
    Prog.emit({.Op = MOpcode::Store, .Src1 = Reg + 1, .Src2 = Reg,
               .Array = "A"});
    Reg += 2;
  }
  Prog.emit({.Op = MOpcode::Halt});
  MachineSimulator Sim(Prog);
  Sim.run();
  for (size_t K = 0; K != std::size(Cases); ++K)
    EXPECT_EQ(Sim.arrayCell("A", static_cast<int64_t>(K)), Cases[K].Expected)
        << K;
}

TEST(CodeGenTest, OverflowingLoopMatchesInterpreter) {
  // Wrapped arithmetic keeps the two oracles in agreement on values the
  // host would otherwise overflow on.
  runAndCheck("do i = 1, 4 { A[i] = big * i + big; B[i] = small / m - i;"
              " C[i] = -small * i; }",
              {},
              {{"big", std::numeric_limits<int64_t>::max()},
               {"small", std::numeric_limits<int64_t>::min()},
               {"m", -1}});
}

TEST(MachineTest, RotateWindow) {
  MachineProgram Prog;
  for (int R = 0; R != 3; ++R)
    Prog.emit({.Op = MOpcode::LoadImm, .Dst = R, .Imm = R + 10});
  Prog.emit({.Op = MOpcode::Rotate, .Src1 = 3, .Imm = 0});
  Prog.emit({.Op = MOpcode::Halt});
  MachineSimulator Sim(Prog);
  Sim.run();
  // r1 = old r0, r2 = old r1.
  EXPECT_EQ(Sim.reg(1), 10);
  EXPECT_EQ(Sim.reg(2), 11);
  EXPECT_EQ(Sim.stats().Rotates, 1u);
  EXPECT_EQ(Sim.stats().Moves, 0u);
}

TEST(MachineTest, Listing) {
  MachineProgram Prog;
  Prog.emit({.Op = MOpcode::LabelDef, .Label = 0});
  Prog.emit({.Op = MOpcode::Load, .Dst = 1, .Src1 = 0, .Array = "A"});
  Prog.emit({.Op = MOpcode::Branch, .Label = 0});
  std::ostringstream OS;
  Prog.print(OS);
  EXPECT_NE(OS.str().find("L0:"), std::string::npos);
  EXPECT_NE(OS.str().find("load r1, A(r0)"), std::string::npos);
}

TEST(CodeGenTest, ConventionalMatchesInterpreter) {
  runAndCheck("do i = 1, 50 { A[i] = B[i] * 2 + x; }", {}, {{"x", 3}});
}

TEST(CodeGenTest, ConditionalsMatch) {
  runAndCheck(R"(
    do i = 1, 50 {
      if (A[i] > 0) { B[i] = A[i]; } else { B[i] = -A[i]; }
    })",
              {});
}

TEST(CodeGenTest, NestedLoopsMatch) {
  runAndCheck("do j = 1, 6 { do i = 1, 5 { A[i + 6 * j] = i + j; } }", {});
}

TEST(CodeGenTest, Fig5ConventionalLoadCount) {
  CodeGenOptions Opts;
  MachineSimulator Sim =
      runAndCheck("do i = 1, 1000 { A[i+2] = A[i] + x; }", Opts, {{"x", 1}});
  // One load and one store per iteration (Fig. 5 (ii)).
  EXPECT_EQ(Sim.stats().Loads, 1000u);
  EXPECT_EQ(Sim.stats().Stores, 1000u);
}

TEST(CodeGenTest, Fig5PipelinedEliminatesLoads) {
  CodeGenOptions Opts;
  Opts.Mode = PipelineMode::Moves;
  MachineSimulator Sim =
      runAndCheck("do i = 1, 1000 { A[i+2] = A[i] + x; }", Opts, {{"x", 1}});
  // Only the two pipeline preloads remain (Fig. 5 (iii)); progression
  // costs two moves per iteration plus the stage-0 capture.
  EXPECT_EQ(Sim.stats().Loads, 2u);
  EXPECT_EQ(Sim.stats().Stores, 1000u);
  EXPECT_GE(Sim.stats().Moves, 2000u);
}

TEST(CodeGenTest, Fig5RotatingRegistersAvoidMoves) {
  CodeGenOptions Opts;
  Opts.Mode = PipelineMode::Rotate;
  MachineSimulator Sim =
      runAndCheck("do i = 1, 1000 { A[i+2] = A[i] + x; }", Opts, {{"x", 1}});
  EXPECT_EQ(Sim.stats().Loads, 2u);
  EXPECT_EQ(Sim.stats().Rotates, 1000u);
}

TEST(CodeGenTest, PipelinedCheaperInCycles) {
  const char *Source = "do i = 1, 1000 { A[i+2] = A[i] + x; }";
  CodeGenOptions Conv;
  CodeGenOptions Rot;
  Rot.Mode = PipelineMode::Rotate;
  MachineSimulator SConv = runAndCheck(Source, Conv, {{"x", 1}});
  MachineSimulator SRot = runAndCheck(Source, Rot, {{"x", 1}});
  EXPECT_LT(SRot.stats().Cycles, SConv.stats().Cycles);
}

TEST(CodeGenTest, PipelinedConditionalReuseCorrect) {
  // Reuse under control flow: the conditional use reads the pipeline.
  CodeGenOptions Opts;
  Opts.Mode = PipelineMode::Moves;
  runAndCheck(R"(
    do i = 1, 60 {
      A[i+1] = B[i] + 1;
      if (B[i] > 0) { C[i] = A[i]; }
    })",
              Opts);
}

TEST(CodeGenTest, UseGeneratorRefreshesStage) {
  // Both branches read A[i]; join reuse must see the refreshed stage.
  CodeGenOptions Opts;
  Opts.Mode = PipelineMode::Moves;
  runAndCheck(R"(
    do i = 1, 60 {
      if (B[i] > 0) { C[i] = A[i]; } else { C[i] = A[i] * 2; }
      D_[i] = 0;
    })",
              Opts);
}

TEST(CodeGenTest, PipelineNotesEmitted) {
  Program P = parseOrDie("do i = 1, 100 { A[i+2] = A[i] + x; }");
  CodeGenOptions Opts;
  Opts.Mode = PipelineMode::Moves;
  CodeGenResult CG = generateLoopCode(P, Opts);
  EXPECT_EQ(CG.PipelineCount, 1u);
  EXPECT_EQ(CG.TotalStages, 3u);
  ASSERT_EQ(CG.Notes.size(), 1u);
  EXPECT_NE(CG.Notes[0].find("3 stage(s)"), std::string::npos);
}

TEST(CodeGenTest, SymbolicBoundFromRegister) {
  Program P = parseOrDie("do i = 1, N { A[i] = i; }");
  CodeGenResult CG = generateLoopCode(P, {});
  MachineSimulator Sim(CG.Prog);
  Sim.setReg(CG.ScalarRegs.at("N"), 9);
  Sim.run();
  EXPECT_EQ(Sim.arrayCell("A", 9), 9);
  EXPECT_EQ(Sim.arrayCell("A", 10), 0);
  EXPECT_EQ(Sim.stats().Stores, 9u);
}

TEST(CodeGenTest, MultiDimAddressing) {
  runAndCheck("array A[8, 12];\n"
              "do i = 1, 6 { A[i, 3] = A[i, 2] + 1; }",
              {});
}

TEST(CodeGenTest, PipelineRegisterBudget) {
  // Two candidate pipelines (3 + 2 stages); a budget of 3 keeps only
  // the higher-priority one and the code still computes correctly.
  const char *Source =
      "do i = 1, 200 { A[i+2] = A[i] + x; B[i+1] = B[i] * 2; }";
  CodeGenOptions Opts;
  Opts.Mode = PipelineMode::Moves;
  Opts.MaxPipelineRegisters = 3;
  MachineSimulator Sim = runAndCheck(Source, Opts, {{"x", 1}});
  Program P = parseOrDie(Source);
  CodeGenResult CG = generateLoopCode(P, Opts);
  EXPECT_EQ(CG.PipelineCount, 1u);
  EXPECT_LE(CG.TotalStages, 3u);
  // One array stays in memory: loads land between the all-pipelined
  // (handful) and conventional (400) extremes.
  EXPECT_GT(Sim.stats().Loads, 100u);
  EXPECT_LT(Sim.stats().Loads, 400u);

  CodeGenOptions Unlimited;
  Unlimited.Mode = PipelineMode::Moves;
  MachineSimulator SimAll = runAndCheck(Source, Unlimited, {{"x", 1}});
  EXPECT_LT(SimAll.stats().Loads, 10u);
}

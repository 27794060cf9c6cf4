//===- machine/Simulator.cpp - Machine code simulator --------------------===//

#include "machine/Simulator.h"

#include "support/WrapArith.h"

#include <cassert>

using namespace ardf;

MachineSimulator::MachineSimulator(const MachineProgram &Prog,
                                   MachineCostModel Costs)
    : Prog(&Prog), Costs(Costs) {
  Regs.assign(Prog.NumRegs + 1, 0);
  for (unsigned I = 0; I != Prog.Code.size(); ++I)
    if (Prog.Code[I].Op == MOpcode::LabelDef)
      LabelPos[Prog.Code[I].Label] = I;
}

void MachineSimulator::setReg(int Reg, int64_t Value) {
  if (Reg >= static_cast<int>(Regs.size()))
    Regs.resize(Reg + 1, 0);
  Regs[Reg] = Value;
}

void MachineSimulator::setArrayCell(const std::string &Array, int64_t Index,
                                    int64_t Value) {
  Memory[Array][Index] = Value;
}

int64_t MachineSimulator::arrayCell(const std::string &Array,
                                    int64_t Index) const {
  auto ArrIt = Memory.find(Array);
  if (ArrIt == Memory.end())
    return 0;
  auto CellIt = ArrIt->second.find(Index);
  return CellIt == ArrIt->second.end() ? 0 : CellIt->second;
}

void MachineSimulator::run(uint64_t MaxInstructions) {
  unsigned PC = 0;
  uint64_t Executed = 0;
  const std::vector<MInstr> &Code = Prog->Code;
  while (PC < Code.size()) {
    assert(Executed++ < MaxInstructions && "machine program diverged");
    (void)Executed;
    const MInstr &I = Code[PC];
    ++PC;
    switch (I.Op) {
    case MOpcode::LabelDef:
      continue; // free
    case MOpcode::Halt:
      return;
    case MOpcode::LoadImm:
      Regs[I.Dst] = I.Imm;
      break;
    case MOpcode::Mov:
      Regs[I.Dst] = Regs[I.Src1];
      ++Stats.Moves;
      Stats.Cycles += Costs.MoveCost;
      ++Stats.Instructions;
      continue;
    case MOpcode::Add:
      Regs[I.Dst] = wrapAdd(Regs[I.Src1], Regs[I.Src2]);
      break;
    case MOpcode::Sub:
      Regs[I.Dst] = wrapSub(Regs[I.Src1], Regs[I.Src2]);
      break;
    case MOpcode::Mul:
      Regs[I.Dst] = wrapMul(Regs[I.Src1], Regs[I.Src2]);
      break;
    case MOpcode::Div:
      Regs[I.Dst] = wrapDiv(Regs[I.Src1], Regs[I.Src2]);
      break;
    case MOpcode::CmpEq:
      Regs[I.Dst] = Regs[I.Src1] == Regs[I.Src2];
      break;
    case MOpcode::CmpNe:
      Regs[I.Dst] = Regs[I.Src1] != Regs[I.Src2];
      break;
    case MOpcode::CmpLt:
      Regs[I.Dst] = Regs[I.Src1] < Regs[I.Src2];
      break;
    case MOpcode::CmpLe:
      Regs[I.Dst] = Regs[I.Src1] <= Regs[I.Src2];
      break;
    case MOpcode::CmpGt:
      Regs[I.Dst] = Regs[I.Src1] > Regs[I.Src2];
      break;
    case MOpcode::CmpGe:
      Regs[I.Dst] = Regs[I.Src1] >= Regs[I.Src2];
      break;
    case MOpcode::Not:
      Regs[I.Dst] = !Regs[I.Src1];
      break;
    case MOpcode::Load: {
      auto &Arr = Memory[I.Array];
      auto It = Arr.find(Regs[I.Src1]);
      Regs[I.Dst] = It == Arr.end() ? 0 : It->second;
      ++Stats.Loads;
      Stats.Cycles += Costs.LoadCost;
      ++Stats.Instructions;
      continue;
    }
    case MOpcode::Store:
      Memory[I.Array][Regs[I.Src1]] = Regs[I.Src2];
      ++Stats.Stores;
      Stats.Cycles += Costs.StoreCost;
      ++Stats.Instructions;
      continue;
    case MOpcode::Branch:
      PC = LabelPos.at(I.Label);
      ++Stats.Branches;
      Stats.Cycles += Costs.BranchCost;
      ++Stats.Instructions;
      continue;
    case MOpcode::BranchZero:
      if (Regs[I.Src1] == 0)
        PC = LabelPos.at(I.Label);
      ++Stats.Branches;
      Stats.Cycles += Costs.BranchCost;
      ++Stats.Instructions;
      continue;
    case MOpcode::BranchLe:
      if (Regs[I.Src1] <= Regs[I.Src2])
        PC = LabelPos.at(I.Label);
      ++Stats.Branches;
      Stats.Cycles += Costs.BranchCost;
      ++Stats.Instructions;
      continue;
    case MOpcode::Rotate: {
      // r[base+k] = r[base+k-1] for k = len-1..1, in one cycle (the
      // hardware register window / ICP of Section 4.1.4).
      int Base = static_cast<int>(I.Imm);
      int Len = I.Src1;
      for (int K = Len - 1; K >= 1; --K)
        Regs[Base + K] = Regs[Base + K - 1];
      ++Stats.Rotates;
      Stats.Cycles += Costs.RotateCost;
      ++Stats.Instructions;
      continue;
    }
    }
    // Common ALU accounting.
    ++Stats.Alu;
    Stats.Cycles += Costs.AluCost;
    ++Stats.Instructions;
  }
}

//===- interp/Interpreter.h - Source-level loop interpreter ----*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reference interpreter for the loop IR with memory-access accounting.
/// It serves two roles in the reproduction:
///
///   1. Oracle for transformation correctness: redundant store/load
///      elimination and loop unrolling are validated by comparing the
///      final machine-visible state (arrays + scalars) of the original
///      and transformed programs on the same inputs.
///   2. Cost model for the paper's optimization claims: every evaluated
///      array reference counts as a memory load, every array assignment
///      as a memory store, so the benches can report the load/store
///      reductions of Figs. 5-7 quantitatively.
///
/// Array storage is sparse (hash map per array), so negative and
/// out-of-declared-bounds subscripts (A[i-1] at i == 1, the unpeeled
/// A[1001], ...) behave uniformly; uninitialized cells and scalars read
/// as 0 unless preset.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_INTERP_INTERPRETER_H
#define ARDF_INTERP_INTERPRETER_H

#include "ir/Program.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>

namespace ardf {

/// Memory-access counters accumulated during execution.
struct ExecStats {
  uint64_t ArrayLoads = 0;
  uint64_t ArrayStores = 0;
  uint64_t ScalarAssignments = 0;
  uint64_t StatementsExecuted = 0;
  uint64_t LoopIterations = 0;

  uint64_t memoryAccesses() const { return ArrayLoads + ArrayStores; }
};

/// Machine-visible final state: every written/read array cell and every
/// scalar. Two executions are observationally equivalent when their
/// MachineState compares equal.
struct MachineState {
  /// Array name -> (flattened cell index -> value). Multi-dimensional
  /// references are flattened row-major using the declared sizes.
  std::map<std::string, std::map<int64_t, int64_t>> Arrays;
  std::map<std::string, int64_t> Scalars;

  bool operator==(const MachineState &RHS) const = default;
};

/// Interprets a whole Program.
class Interpreter {
public:
  explicit Interpreter(const Program &P) : Prog(&P) {}

  /// Presets a scalar input (e.g. the X of Fig. 1 or a symbolic bound).
  void setScalar(const std::string &Name, int64_t Value);

  /// Presets one array cell.
  void setArrayCell(const std::string &Array, int64_t Index, int64_t Value);

  /// Fills cells [0, Count) of \p Array with a deterministic
  /// pseudo-random pattern derived from \p Seed.
  void seedArray(const std::string &Array, int64_t Count, uint64_t Seed);

  /// Executes all top-level statements. May be called once.
  void run();

  const ExecStats &stats() const { return Stats; }
  const MachineState &state() const { return State; }

  /// Reads back one cell (0 when never written).
  int64_t arrayCell(const std::string &Array, int64_t Index) const;

  /// Reads back one scalar (0 when never written).
  int64_t scalar(const std::string &Name) const;

private:
  int64_t evalExpr(const Expr &E);
  int64_t flattenIndex(const ArrayRefExpr &Ref);
  void execStmt(const Stmt &S);
  void execStmts(const StmtList &Stmts);

  const Program *Prog;
  MachineState State;
  ExecStats Stats;
  /// Set by a break statement; unwinds execStmts up to the nearest
  /// enclosing loop, which clears it.
  bool BreakPending = false;
};

/// Convenience: interpret \p P with the given scalar presets and return
/// the interpreter (state + stats).
Interpreter interpret(const Program &P,
                      const std::map<std::string, int64_t> &Scalars = {});

} // namespace ardf

#endif // ARDF_INTERP_INTERPRETER_H

//===- support/Deadline.h - The running request's deadline -----*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wall-clock deadline of the request running on the current thread,
/// installed like the telemetry context by a deadline::Scope. Once it
/// passes, solves degrade at their next pass boundary, the driver fails
/// the loops it reaches, and the lint engine stops before its next loop
/// or check; whoever installed it discards the partial result. It is not
/// a SolverBudget field because budgets key the solution memos.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_SUPPORT_DEADLINE_H
#define ARDF_SUPPORT_DEADLINE_H

#include <cstdint>

namespace ardf {
namespace deadline {

/// The instant \p Ms milliseconds from now on telem::wallNowNs()'s
/// clock (saturating); 0, meaning no deadline, when \p Ms is 0.
uint64_t afterMs(uint64_t Ms);

/// The current thread's deadline; 0 when none is installed.
uint64_t current();

/// True once the current thread's deadline has passed. Without one it
/// reads no clock.
bool passed();

/// Installs \p AtNs (from afterMs() or current(); 0 = none) for a
/// dynamic extent and restores the previous deadline on destruction.
class Scope {
public:
  explicit Scope(uint64_t AtNs);
  ~Scope();
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  uint64_t Prev;
};

} // namespace deadline
} // namespace ardf

#endif // ARDF_SUPPORT_DEADLINE_H

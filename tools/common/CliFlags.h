//===- tools/common/CliFlags.h - Flags the CLI tools share ------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One parser for the flags several tools accept: --engine=NAME, the
/// --budget-* solver ceilings, --max-input-bytes=N, and every other
/// numeric flag. Numbers must be the whole value -- "abc", "3abc", "-1"
/// and "" are usage errors, never a silent 0 that turns a limit off.
///
/// Each parser takes one argument and returns true when the argument is
/// its flag; it then either stores the value or sets \p Err, so a
/// tool's argument loop reads
///
/// \code
///   } else if (cli::engineFlag(Arg, Opts.Engine, Err)) {
///     if (!Err.empty())
///       return false;
///   }
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_TOOLS_COMMON_CLIFLAGS_H
#define ARDF_TOOLS_COMMON_CLIFLAGS_H

#include "dataflow/Framework.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace ardf {
namespace cli {

/// --NAME=N with N a whole-string unsigned decimal; \p Positive rejects
/// 0 (for flags where 0 means nothing sensible).
bool countFlag(std::string_view Arg, std::string_view Name, uint64_t &Out,
               std::string &Err, bool Positive = false);
bool countFlag(std::string_view Arg, std::string_view Name, unsigned &Out,
               std::string &Err, bool Positive = false);

/// --engine=NAME, one of engineNameList().
bool engineFlag(std::string_view Arg, SolverOptions::Engine &Out,
                std::string &Err);

/// The solver ceilings: --budget-visits=N, --budget-slack=F,
/// --budget-cells=N and, when \p WithDeadline, --budget-deadline-ms=N.
/// Every value must be positive; an omitted flag leaves its ceiling off.
bool budgetFlag(std::string_view Arg, SolverBudget &Budget, std::string &Err,
                bool WithDeadline = true);

/// --max-input-bytes=N, the per-file input cap (0 = uncapped).
bool maxInputBytesFlag(std::string_view Arg, uint64_t &Out,
                       std::string &Err);

} // namespace cli
} // namespace ardf

#endif // ARDF_TOOLS_COMMON_CLIFLAGS_H

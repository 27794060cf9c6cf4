//===- tools/common/CliFlags.cpp - Flags the CLI tools share --------------===//

#include "common/CliFlags.h"

#include <charconv>
#include <cmath>
#include <limits>

using namespace ardf;

namespace {

/// The value of \p Arg when it reads "NAME=value".
bool valueOf(std::string_view Arg, std::string_view Name,
             std::string_view &Value) {
  if (Arg.size() <= Name.size() || Arg.substr(0, Name.size()) != Name ||
      Arg[Name.size()] != '=')
    return false;
  Value = Arg.substr(Name.size() + 1);
  return true;
}

/// \p Text as a whole-string value of T (no sign, space or suffix).
template <typename T> bool parseWhole(std::string_view Text, T &Out) {
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Out);
  return !Text.empty() && Ec == std::errc() && Ptr == End;
}

} // namespace

bool cli::countFlag(std::string_view Arg, std::string_view Name,
                    uint64_t &Out, std::string &Err, bool Positive) {
  std::string_view Value;
  if (!valueOf(Arg, Name, Value))
    return false;
  uint64_t N = 0;
  if (!parseWhole(Value, N) || (Positive && N == 0))
    Err = std::string(Name) + " needs a " +
          (Positive ? "positive" : "non-negative") + " integer";
  else
    Out = N;
  return true;
}

bool cli::countFlag(std::string_view Arg, std::string_view Name,
                    unsigned &Out, std::string &Err, bool Positive) {
  uint64_t N = 0;
  if (!countFlag(Arg, Name, N, Err, Positive))
    return false;
  if (!Err.empty())
    return true;
  if (N > std::numeric_limits<unsigned>::max())
    Err = std::string(Name) + " is out of range";
  else
    Out = static_cast<unsigned>(N);
  return true;
}

bool cli::engineFlag(std::string_view Arg, SolverOptions::Engine &Out,
                     std::string &Err) {
  std::string_view Name;
  if (!valueOf(Arg, "--engine", Name))
    return false;
  if (!parseEngineName(Name, Out))
    Err = "unknown engine '" + std::string(Name) +
          "' (expected one of: " + engineNameList() + ")";
  return true;
}

bool cli::budgetFlag(std::string_view Arg, SolverBudget &Budget,
                     std::string &Err, bool WithDeadline) {
  std::string_view Value;
  if (valueOf(Arg, "--budget-slack", Value)) {
    double F = 0.0;
    if (!parseWhole(Value, F) || !std::isfinite(F) || F <= 0.0)
      Err = "--budget-slack needs a positive factor";
    else
      Budget.VisitSlack = F;
    return true;
  }
  if (WithDeadline) {
    uint64_t Ms = 0;
    if (countFlag(Arg, "--budget-deadline-ms", Ms, Err, /*Positive=*/true)) {
      if (Ms > std::numeric_limits<uint64_t>::max() / 1000000ull)
        Err = "--budget-deadline-ms is out of range";
      else if (Err.empty())
        Budget.DeadlineNs = Ms * 1000000ull;
      return true;
    }
  }
  return countFlag(Arg, "--budget-visits", Budget.MaxNodeVisits, Err,
                   /*Positive=*/true) ||
         countFlag(Arg, "--budget-cells", Budget.MaxMatrixCells, Err,
                   /*Positive=*/true);
}

bool cli::maxInputBytesFlag(std::string_view Arg, uint64_t &Out,
                            std::string &Err) {
  return countFlag(Arg, "--max-input-bytes", Out, Err);
}

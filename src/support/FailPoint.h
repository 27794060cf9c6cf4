//===- support/FailPoint.h - Deterministic fault injection -----*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named failpoints for deterministic fault injection. A failpoint is a
/// call site identified by a dotted literal name ("driver.loop",
/// "solver.pass", ...) that tests or the environment can arm with an
/// action:
///
///   Throw  - raise FailPointError at the site,
///   Stall  - sleep at the site (deadline-budget testing),
///   Breach - make the site report a forced budget breach, which the
///            solver maps to a degraded-but-sound result.
///
/// Arming is keyed by exact site name plus an optional 1-based fire
/// ordinal: `driver.loop@3:throw` fires on the third evaluation only,
/// `driver.loop:throw` on every evaluation. The ARDF_FAILPOINTS
/// environment variable (comma-separated specs, parsed once at static
/// initialization) arms failpoints in any process without code changes:
///
///   ARDF_FAILPOINTS=driver.loop@3:throw,lint.check:stall=50 ardf-lint f.arf
///
/// The zero-overhead-off contract matches the telemetry layer: when no
/// failpoint is armed anywhere in the process, evaluate() is a single
/// relaxed atomic load and a predictable branch -- no lock, no lookup,
/// no allocation (the alloc-counting suite holds a solve, which
/// evaluates solver.pass at every pass boundary, to its two result
/// matrices).
/// The slow path takes a global mutex; armed runs are for tests and
/// drills, not production hot loops.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_SUPPORT_FAILPOINT_H
#define ARDF_SUPPORT_FAILPOINT_H

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace ardf {
namespace failpoint {

/// What an armed failpoint does when it fires.
enum class Action : uint8_t {
  Throw, ///< Throw FailPointError from the site.
  Stall, ///< Sleep StallMs milliseconds, then continue normally.
  Breach ///< Report Fired::Breach (a forced budget breach) to the site.
};

/// The exception Throw-armed failpoints raise. Sites never catch it
/// specially; it exercises the same isolation boundaries as any
/// std::exception escaping a subsystem.
class FailPointError : public std::runtime_error {
public:
  explicit FailPointError(const std::string &Site)
      : std::runtime_error("failpoint '" + Site + "' fired"), Site(Site) {}
  const std::string &site() const { return Site; }

private:
  std::string Site;
};

/// What evaluate() tells the call site. Only Breach-armed failpoints
/// produce Breach; Throw never returns and Stall returns No after the
/// sleep.
enum class Fired : uint8_t { No, Breach };

namespace detail {
/// Process-wide count of armed failpoints; nonzero iff the registry has
/// any entry. The only state the fast path touches.
extern std::atomic<uint32_t> ArmedCount;
Fired evaluateSlow(const char *Site);
} // namespace detail

/// True when any failpoint is armed in the process (one relaxed load).
inline bool anyArmed() {
  return detail::ArmedCount.load(std::memory_order_relaxed) != 0;
}

/// The instrumentation site: a no-op unless some failpoint is armed.
/// \p Site must be a literal dotted name from the catalog (DESIGN.md
/// section 11).
inline Fired evaluate(const char *Site) {
  if (!anyArmed())
    return Fired::No;
  return detail::evaluateSlow(Site);
}

/// Arms \p Site with \p A. \p FireAt selects the 1-based evaluation the
/// failpoint fires on (0 = every evaluation). Re-arming a site replaces
/// its entry and resets its counters.
void arm(const std::string &Site, Action A, uint64_t FireAt = 0,
         uint64_t StallMs = 100);

/// Disarms \p Site; returns false if it was not armed.
bool disarm(const std::string &Site);

/// Disarms everything (test teardown).
void disarmAll();

/// Times \p Site actually fired since it was (re-)armed; 0 when unarmed.
uint64_t firedCount(const std::string &Site);

/// Parses and arms a spec list: `site[@N]:action[,site[@N]:action...]`
/// where action is `throw`, `breach`, or `stall[=MS]`. Returns false
/// (arming nothing further) on malformed input, with a human-readable
/// reason in \p Error if non-null. The format of ARDF_FAILPOINTS.
bool armFromSpec(const std::string &Spec, std::string *Error = nullptr);

/// RAII arming for tests: arms in the constructor, disarms in the
/// destructor.
class ScopedFailPoint {
public:
  ScopedFailPoint(std::string Site, Action A, uint64_t FireAt = 0,
                  uint64_t StallMs = 100)
      : Site(std::move(Site)) {
    arm(this->Site, A, FireAt, StallMs);
  }
  ~ScopedFailPoint() { disarm(Site); }
  ScopedFailPoint(const ScopedFailPoint &) = delete;
  ScopedFailPoint &operator=(const ScopedFailPoint &) = delete;

private:
  std::string Site;
};

} // namespace failpoint
} // namespace ardf

#endif // ARDF_SUPPORT_FAILPOINT_H

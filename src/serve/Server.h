//===- serve/Server.h - The ardf-serve request engine ----------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's transport-agnostic core: a bounded request queue, a
/// worker pool and the tenant cache. Transports (stdio, Unix socket --
/// tools/ardf-serve) read lines and call submit(); the server invokes
/// the response callback exactly once per submitted line, always with a
/// well-formed protocol response.
///
/// The robustness envelope, one layer per failure class:
///
///  * Admission: a line over MaxRequestBytes is refused with
///    payload-too-large before parsing; a full queue sheds the request
///    with an immediate overloaded response (bounded memory, bounded
///    latency for everyone already queued).
///  * Budgets: every analysis runs under the server's SolverBudget
///    ceilings; a request may tighten its own budget but never loosen
///    the server's. Breaches degrade the analysis, not the daemon.
///  * Fault boundary: each request runs inside its own try/catch (plus
///    the serve.request failpoint); an escaping exception becomes an
///    internal error response for that request only.
///  * Request deadline: the worker that dequeues a request installs its
///    deadline (support/Deadline.h); the request's work stops at its
///    next pass, loop or check boundary past it, and a wait for a busy
///    document ends at it; the worker answers deadline. No thread is
///    ever abandoned or replaced.
///  * Quotas: the cache evicts per tenant (ServeCache), so one noisy
///    tenant cannot evict another's warm state.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_SERVE_SERVER_H
#define ARDF_SERVE_SERVER_H

#include "serve/Protocol.h"
#include "serve/ServeCache.h"
#include "telemetry/Telemetry.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace ardf {
namespace serve {

/// Server configuration (all ceilings have safe defaults; 0 disables
/// the individual ceiling where noted).
struct ServeOptions {
  /// Worker threads handling requests.
  unsigned Workers = 1;

  /// Bounded queue depth; submissions past it are shed with an
  /// overloaded response.
  unsigned QueueDepth = 64;

  /// Admission cap on one request line, bytes (0 = uncapped).
  uint64_t MaxRequestBytes = 1u << 20;

  /// Per-request wall-clock deadline in milliseconds from dequeue; the
  /// request is answered deadline at its next solver pass, loop or check
  /// boundary past it, or when it passes while the request waits for its
  /// document. 0 disables it.
  uint64_t RequestDeadlineMs = 2000;

  /// Live documents per tenant (ServeCache quota).
  unsigned TenantQuota = 8;

  /// Program versions retained per document before the warm driver is
  /// rebuilt cold (bounds the rerun lifetime rule's memory).
  unsigned MaxProgramsPerDocument = 8;

  /// Server-wide solver ceilings; requests may only tighten them.
  SolverBudget Budget;

  /// Engine used when a request names none.
  SolverOptions::Engine Engine = SolverOptions::Engine::Reference;
};

/// The transport-agnostic request engine.
class AnalysisServer {
public:
  /// Invoked exactly once per submitted line with the complete response
  /// line (no trailing newline): inline from submit() for a refused
  /// line, from the thread that begins shutdown for a line still queued,
  /// and otherwise from the worker that handled the line. Must be
  /// thread-safe against other requests' callbacks and must not block
  /// for long.
  using Respond = std::function<void(std::string)>;

  explicit AnalysisServer(ServeOptions Opts = ServeOptions());

  /// Answers queued requests shutting-down, lets every worker finish
  /// its current request, and joins every thread the server started.
  ~AnalysisServer();

  AnalysisServer(const AnalysisServer &) = delete;
  AnalysisServer &operator=(const AnalysisServer &) = delete;

  /// Submits one raw request line. Admission control (payload cap,
  /// queue bound, shutdown state) answers inline; admitted lines are
  /// answered from the pool.
  void submit(std::string Line, Respond R);

  /// Begins shutdown: no new admissions, queued requests are answered
  /// shutting-down, workers exit once idle. Idempotent, non-blocking.
  void requestShutdown();

  /// True once a shutdown request (method or call) was seen. Transports
  /// poll this to leave their accept loops.
  bool shutdownRequested() const;

  /// Blocks until the queue is empty and every worker is idle (tests
  /// and the stdio transport's EOF handling).
  void drain();

  const ServeOptions &options() const;

  ServeCacheStats cacheStats() const;

  /// The server's telemetry context (counters + serve.request_ns
  /// histogram); shared by all workers, safe to read concurrently.
  const telem::Telemetry &telemetry() const;

private:
  struct Core;
  std::unique_ptr<Core> C;
};

} // namespace serve
} // namespace ardf

#endif // ARDF_SERVE_SERVER_H

//===- serve/Server.cpp - The ardf-serve request engine -------------------===//

#include "serve/Server.h"

#include "driver/ProgramAnalysisDriver.h"
#include "frontend/Parser.h"
#include "lint/LintEngine.h"
#include "lint/Render.h"
#include "support/Deadline.h"
#include "support/FailPoint.h"
#include "telemetry/Telemetry.h"

#include <bit>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

using namespace ardf;
using namespace ardf::serve;

namespace {

/// An int-valued JSON member without implicit-conversion ambiguity.
json::Value jint(uint64_t V) { return json::Value(V); }

uint64_t mix(uint64_t H, uint64_t V) {
  return H ^ (V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2));
}

/// The ok-response line around an already-rendered result object --
/// memoized responses replay the identical result bytes.
std::string okResponseRaw(const json::Value &Id, const std::string &Result) {
  std::string Out = "{\"id\":";
  Id.write(Out);
  Out += ",\"ok\":true,\"result\":";
  Out += Result;
  Out += "}";
  return Out;
}

/// The effective budget of one request: the server's ceilings,
/// tightened (never loosened) by the request's own ceilings (0 sets
/// none).
SolverBudget clampBudget(const ServeOptions &O, const SolverBudget &R) {
  SolverBudget B = O.Budget;
  auto Tighten = [](auto &Ceiling, auto Requested) {
    if (Requested != 0 && (Ceiling == 0 || Requested < Ceiling))
      Ceiling = Requested;
  };
  Tighten(B.VisitSlack, R.VisitSlack);
  Tighten(B.MaxNodeVisits, R.MaxNodeVisits);
  Tighten(B.DeadlineNs, R.DeadlineNs);
  Tighten(B.MaxMatrixCells, R.MaxMatrixCells);
  return B;
}

uint64_t budgetKey(const SolverBudget &B) {
  // The slack's exact bits: every distinct factor is a distinct budget.
  uint64_t H = mix(0, std::bit_cast<uint64_t>(B.VisitSlack));
  H = mix(H, B.MaxNodeVisits);
  H = mix(H, B.DeadlineNs);
  return mix(H, B.MaxMatrixCells);
}

/// Locks \p L, waiting until the current request's deadline at most.
/// Returns false when the deadline passes first.
bool lockBeforeDeadline(std::unique_lock<std::timed_mutex> &L) {
  uint64_t AtNs = deadline::current();
  uint64_t NowNs = AtNs == 0 ? 0 : telem::wallNowNs();
  if (AtNs != 0 && NowNs >= AtNs)
    return L.try_lock();
  // No deadline, or a saturated one (afterMs) whose time point would
  // overflow: wait as long as it takes.
  uint64_t LeftNs = AtNs - NowNs;
  if (AtNs == 0 || LeftNs > uint64_t(INT64_MAX) / 2) {
    L.lock();
    return true;
  }
  // The deadline is on steady_clock (telem::wallNowNs), but the wait
  // runs on system_clock: libstdc++ waits for a steady_clock time point
  // with pthread_mutex_clocklock, which GCC 12's ThreadSanitizer does
  // not intercept (it then reports every later unlock as an unlock of an
  // unlocked mutex); the system_clock form uses pthread_mutex_timedlock.
  // A wall-clock step during the wait stretches or shortens it.
  return L.try_lock_until(std::chrono::system_clock::now() +
                          std::chrono::nanoseconds(LeftNs));
}

/// Response-memo key ingredient: everything besides the source text
/// that can change the rendered result.
uint64_t requestOptionsKey(const Request &R, const SolverBudget &B) {
  uint64_t H = mix(0, static_cast<uint64_t>(R.M));
  H = mix(H, static_cast<uint64_t>(R.Engine));
  H = mix(H, R.CrossCheck ? 1 : 0);
  H = mix(H, R.IncludeNested ? 1 : 0);
  H = mix(H, hashBytes(R.ExplainCheck));
  return mix(H, budgetKey(B));
}

/// Warm-driver compatibility key: the DriverOptions shape a cached
/// driver was built with.
uint64_t driverOptionsKey(const Request &R, const SolverBudget &B) {
  uint64_t H = mix(1, static_cast<uint64_t>(R.Engine));
  H = mix(H, R.IncludeNested ? 1 : 0);
  H = mix(H, budgetKey(B));
  return H == 0 ? 1 : H;
}

/// What a worker hands back for one request: the response line and
/// whether it is an ok response.
struct HandlerResult {
  std::string Line;
  bool Ok = false;
};

/// One request line and the callback that answers it: by submit() when
/// it refuses the line, by the shutdown drain while the line is queued,
/// or else by the worker that dequeued it.
struct PendingRequest {
  std::string Line;
  AnalysisServer::Respond Respond;
};

} // namespace

struct AnalysisServer::Core {
  explicit Core(ServeOptions O)
      : Opts(std::move(O)), Cache(Opts.TenantQuota) {
    Telem.enableTimings(true);
  }

  /// Joins every worker, also when the server's constructor throws.
  ~Core() {
    beginShutdown();
    for (std::thread &T : Workers)
      T.join();
  }

  ServeOptions Opts;
  ServeCache Cache;
  telem::Telemetry Telem;

  std::mutex M;
  std::condition_variable CV;     ///< workers wait for work
  std::condition_variable IdleCV; ///< drain() waits for quiescence
  std::deque<PendingRequest> Queue;
  unsigned Busy = 0; ///< dequeued requests not yet answered
  bool Shutdown = false;

  /// Started by the constructor, joined by the destructor.
  std::vector<std::thread> Workers;

  /// Counts \p C and only then hands \p Response to the client, so a
  /// client that reads the counters after its reply always finds its
  /// own request counted.
  void respond(PendingRequest &Req, std::string Response, telem::Counter C) {
    Telem.add(C);
    Req.Respond(std::move(Response));
  }

  void workerLoop() {
    // One shared Telemetry for the whole pool: counters and histograms
    // are relaxed atomics, and no sink is ever attached, so concurrent
    // workers are safe.
    telem::TelemetryScope Scope(Telem);
    std::unique_lock<std::mutex> L(M);
    for (;;) {
      CV.wait(L, [&] { return Shutdown || !Queue.empty(); });
      if (Queue.empty())
        return; // shutdown, nothing left
      PendingRequest Req = std::move(Queue.front());
      Queue.pop_front();
      ++Busy;
      L.unlock();
      {
        // The request's deadline runs from dequeue; this worker answers
        // deadline once its solves, loops and checks stop at it.
        deadline::Scope Deadline(deadline::afterMs(Opts.RequestDeadlineMs));
        HandlerResult HR = handleRequest(Req.Line);
        respond(Req, std::move(HR.Line),
                HR.Ok ? telem::Counter::ServeOk : telem::Counter::ServeErrors);
      }
      L.lock();
      --Busy;
      IdleCV.notify_all();
    }
  }

  void beginShutdown() {
    std::deque<PendingRequest> Orphans;
    {
      std::lock_guard<std::mutex> L(M);
      Shutdown = true;
      Orphans.swap(Queue);
    }
    CV.notify_all();
    IdleCV.notify_all();
    for (PendingRequest &R : Orphans)
      refuseShuttingDown(R);
  }

  void refuseShuttingDown(PendingRequest &Req) {
    respond(Req,
            errorResponse(json::Value(), ErrorCode::ShuttingDown,
                          "daemon is shutting down"),
            telem::Counter::ServeErrors);
  }

  /// The reply of a request whose deadline passed before its reply was
  /// ready.
  HandlerResult deadlineReply(const json::Value &Id) {
    Telem.add(telem::Counter::ServeDeadlines);
    return {errorResponse(Id, ErrorCode::Deadline,
                          "request exceeded its deadline"),
            false};
  }

  HandlerResult handleRequest(const std::string &Line) {
    telem::LatencyTimer Timer(telem::Histo::ServeRequestNs);
    json::Value Id;
    try {
      // The per-request fault boundary's own drill site. Throw is
      // contained right here (an internal error response); Breach
      // forces load shedding; Stall runs the request past its deadline.
      if (failpoint::evaluate("serve.request") == failpoint::Fired::Breach)
        return {errorResponse(Id, ErrorCode::Overloaded,
                              "serve.request failpoint forced shedding"),
                false};
      ParsedRequest P = parseRequest(Line, Opts.Engine);
      Id = P.Id;
      if (!P.Ok)
        return {errorResponse(P.Id, ErrorCode::BadRequest, P.Error), false};
      if (deadline::passed())
        return deadlineReply(P.Id);
      switch (P.R.M) {
      case Method::Stats:
        return {okResponse(P.R.Id, statsResult()), true};
      case Method::Shutdown: {
        beginShutdown();
        json::Object O;
        O["shutting_down"] = json::Value(true);
        return {okResponse(P.R.Id, json::Value(std::move(O))), true};
      }
      default:
        return handleAnalysis(P.R);
      }
    } catch (const std::exception &E) {
      return {errorResponse(Id, ErrorCode::Internal, E.what()), false};
    } catch (...) {
      return {errorResponse(Id, ErrorCode::Internal, "unknown exception"),
              false};
    }
  }

  HandlerResult handleAnalysis(const Request &R) {
    SolverBudget Budget = clampBudget(Opts, R.Budget);
    uint64_t SrcHash = hashBytes(R.Source);
    uint64_t MemoKey = mix(requestOptionsKey(R, Budget), SrcHash);
    bool Created = false;
    std::shared_ptr<Document> Doc = Cache.lookup(R.Tenant, R.File, Created);
    // A request behind a stalled one on the same document waits no longer
    // than its own deadline, so the stall holds one worker, not several.
    std::unique_lock<std::timed_mutex> DocLock(Doc->M, std::defer_lock);
    if (!lockBeforeDeadline(DocLock))
      return deadlineReply(R.Id);
    if (const std::string *Memo = Doc->findResponse(MemoKey)) {
      Telem.add(telem::Counter::ServeCacheHits);
      return {okResponseRaw(R.Id, *Memo), true};
    }
    Telem.add(telem::Counter::ServeCacheMisses);
    // The session-build drill site (fires on fresh documents only, so
    // good traffic on warm documents rides through an armed drill).
    if (Created &&
        failpoint::evaluate("serve.session") == failpoint::Fired::Breach)
      return {errorResponse(R.Id, ErrorCode::Overloaded,
                            "serve.session failpoint forced shedding"),
              false};

    std::string ResultJson;
    std::string ParseError;
    if (R.M == Method::Analyze) {
      ResultJson = analyzeResult(R, Budget, SrcHash, *Doc, ParseError);
      if (ResultJson.empty())
        return {errorResponse(R.Id, ErrorCode::BadRequest,
                              "parse failed:\n" + ParseError),
                false};
    } else {
      ResultJson = lintResult(R, Budget);
    }
    if (deadline::passed()) {
      // The result may rest on work the deadline cut short: never memoize
      // it, and leave no half-analyzed driver warm.
      if (R.M == Method::Analyze)
        Doc->reset();
      return deadlineReply(R.Id);
    }
    Doc->rememberResponse(MemoKey, ResultJson);
    return {okResponseRaw(R.Id, ResultJson), true};
  }

  /// Renders the lint/explain result object. Exactly the single-shot
  /// pipeline of ardf-lint --format=json: lintSource + renderJsonLines,
  /// so the "render" member is bit-identical to that tool's stdout.
  std::string lintResult(const Request &R, const SolverBudget &Budget) {
    LintOptions LO;
    LO.Engine = R.Engine;
    LO.CrossCheck = R.CrossCheck;
    LO.IncludeNested = R.IncludeNested;
    LO.Budget = Budget;
    LO.Explain = R.M == Method::Explain;
    LO.ExplainCheck = R.ExplainCheck;
    LintResult LR = lintSource(R.Source, R.File, LO);
    std::ostringstream OS;
    renderJsonLines(OS, LR.Diags);
    json::Object O;
    O["render"] = json::Value(OS.str());
    O["diagnostics"] = jint(LR.Diags.size());
    O["errors"] = jint(LR.count(DiagSeverity::Error));
    O["warnings"] = jint(LR.count(DiagSeverity::Warning));
    O["notes"] = jint(LR.count(DiagSeverity::Note));
    O["loops"] = jint(LR.LoopsAnalyzed);
    O["degraded"] = jint(LR.ChecksDegraded);
    O["divergences"] = jint(LR.EngineDivergences);
    O["exit"] = jint(LR.hasErrors() ? 1 : 0);
    return json::Value(std::move(O)).toString();
  }

  /// Runs (or warm-reruns) the driver for an analyze request. Returns
  /// "" with \p ParseError set when the source does not parse. Caller
  /// holds the document mutex.
  std::string analyzeResult(const Request &R, const SolverBudget &Budget,
                            uint64_t SrcHash, Document &Doc,
                            std::string &ParseError) {
    uint64_t DrvKey = driverOptionsKey(R, Budget);
    ParseResult PR = parseProgram(R.Source);
    if (!PR.succeeded()) {
      ParseError = PR.diagnosticsToString();
      return "";
    }
    // A warm driver only serves requests with the same analysis shape;
    // different options rebuild cold (rare: one editor per document in
    // practice).
    if (Doc.Driver && Doc.DriverOptionsKey != DrvKey)
      Doc.reset();
    // Bound the rerun lifetime rule: after enough retained versions,
    // rebuild cold to release them.
    if (Doc.Driver && Doc.SourceHash != SrcHash &&
        Doc.Programs.size() >= Opts.MaxProgramsPerDocument)
      Doc.reset();

    // A warm driver over the same text (options differing only in
    // memo-relevant ways) is current as it stands.
    bool Warm = Doc.Driver != nullptr;
    DriverRerun RR;
    if (!Warm || Doc.SourceHash != SrcHash) {
      const Program &NewProg = *Doc.Programs.emplace_back(
          std::make_unique<Program>(std::move(PR.Prog)));
      Doc.RetainedBytes += R.Source.size();
      if (Warm) {
        RR = Doc.Driver->rerun(NewProg);
        Telem.add(telem::Counter::ServeReruns);
      } else {
        DriverOptions DO;
        DO.IncludeNested = R.IncludeNested;
        DO.Solver.Eng = R.Engine;
        DO.Solver.Budget = Budget;
        Doc.Driver = std::make_unique<ProgramAnalysisDriver>(NewProg,
                                                             std::move(DO));
        Doc.DriverOptionsKey = DrvKey;
        Doc.Driver->run();
      }
      Doc.SourceHash = SrcHash;
    }

    DriverReport Rep = Doc.Driver->report();
    json::Object O;
    O["loops"] = jint(Rep.total());
    O["ok"] = jint(Rep.Ok);
    O["degraded"] = jint(Rep.Degraded);
    O["failed"] = jint(Rep.Failed);
    O["unsupported"] = jint(Rep.Unsupported);
    O["node_visits"] = jint(Doc.Driver->totalNodeVisits());
    O["engine"] = json::Value(engineName(R.Engine));
    O["warm"] = json::Value(Warm);
    O["reused"] = jint(RR.Reused);
    O["reanalyzed"] = jint(RR.Reanalyzed);
    return json::Value(std::move(O)).toString();
  }

  json::Value statsResult() {
    json::Object Counters;
    for (unsigned I = 0; I != telem::NumCounters; ++I) {
      auto C = static_cast<telem::Counter>(I);
      if (uint64_t V = Telem.get(C))
        Counters[telem::counterName(C)] = jint(V);
    }
    ServeCacheStats CS = Cache.stats();
    json::Object CacheO;
    CacheO["tenants"] = jint(CS.Tenants);
    CacheO["documents"] = jint(CS.Documents);
    CacheO["resident_bytes"] = jint(CS.ResidentBytes);
    CacheO["evictions"] = jint(CS.Evictions);
    telem::HistogramSnapshot S =
        Telem.histogram(telem::Histo::ServeRequestNs).snapshot();
    json::Object H;
    H["count"] = jint(S.Count);
    H["sum_ns"] = jint(S.SumNs);
    H["p50_ns"] = jint(S.quantileNs(0.5));
    H["p90_ns"] = jint(S.quantileNs(0.9));
    H["p99_ns"] = jint(S.quantileNs(0.99));
    json::Object O;
    O["counters"] = json::Value(std::move(Counters));
    O["cache"] = json::Value(std::move(CacheO));
    O["request_ns"] = json::Value(std::move(H));
    return json::Value(std::move(O));
  }
};

AnalysisServer::AnalysisServer(ServeOptions Opts)
    : C(std::make_unique<Core>(std::move(Opts))) {
  unsigned N = C->Opts.Workers == 0 ? 1 : C->Opts.Workers;
  for (unsigned I = 0; I != N; ++I)
    C->Workers.emplace_back([Self = C.get()] { Self->workerLoop(); });
}

AnalysisServer::~AnalysisServer() = default;

void AnalysisServer::submit(std::string Line, Respond R) {
  PendingRequest Req{std::move(Line), std::move(R)};
  C->Telem.add(telem::Counter::ServeRequests);
  if (C->Opts.MaxRequestBytes != 0 &&
      Req.Line.size() > C->Opts.MaxRequestBytes) {
    std::string Why = "request of " + std::to_string(Req.Line.size()) +
                      " bytes exceeds the " +
                      std::to_string(C->Opts.MaxRequestBytes) + " byte cap";
    C->respond(Req,
               errorResponse(json::Value(), ErrorCode::PayloadTooLarge, Why),
               telem::Counter::ServeErrors);
    return;
  }
  std::unique_lock<std::mutex> L(C->M);
  if (C->Shutdown) {
    L.unlock();
    C->refuseShuttingDown(Req);
  } else if (C->Queue.size() >= C->Opts.QueueDepth) {
    L.unlock();
    // Shedding is deliberately cheap: no parse, so the echoed id is
    // null. Clients treat overloaded as retry-later regardless of id.
    C->respond(Req,
               errorResponse(json::Value(), ErrorCode::Overloaded,
                             "request queue is full; retry later"),
               telem::Counter::ServeOverloads);
  } else {
    C->Queue.push_back(std::move(Req));
    C->CV.notify_one();
  }
}

void AnalysisServer::requestShutdown() { C->beginShutdown(); }

bool AnalysisServer::shutdownRequested() const {
  std::lock_guard<std::mutex> L(C->M);
  return C->Shutdown;
}

void AnalysisServer::drain() {
  std::unique_lock<std::mutex> L(C->M);
  C->IdleCV.wait(L, [&] { return C->Queue.empty() && C->Busy == 0; });
}

const ServeOptions &AnalysisServer::options() const { return C->Opts; }

ServeCacheStats AnalysisServer::cacheStats() const { return C->Cache.stats(); }

const telem::Telemetry &AnalysisServer::telemetry() const { return C->Telem; }

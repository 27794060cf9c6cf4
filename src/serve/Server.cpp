//===- serve/Server.cpp - The ardf-serve request engine -------------------===//

#include "serve/Server.h"

#include "driver/ProgramAnalysisDriver.h"
#include "frontend/Parser.h"
#include "lint/LintEngine.h"
#include "lint/Render.h"
#include "support/FailPoint.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <initializer_list>
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

/// The effective budget of one request: the server's ceilings, with the
/// server deadline folded in, tightened (never loosened) by the
/// request's own ceilings.
SolverBudget clampBudget(const ServeOptions &O, const SolverBudget &R) {
  SolverBudget B = O.Budget;
  uint64_t ServerDeadline = O.RequestDeadlineMs * 1000000ull;
  if (ServerDeadline != 0 &&
      (B.DeadlineNs == 0 || ServerDeadline < B.DeadlineNs))
    B.DeadlineNs = ServerDeadline;
  if (R.VisitSlack > 0.0 &&
      (B.VisitSlack == 0.0 || R.VisitSlack < B.VisitSlack))
    B.VisitSlack = R.VisitSlack;
  if (R.MaxNodeVisits != 0 &&
      (B.MaxNodeVisits == 0 || R.MaxNodeVisits < B.MaxNodeVisits))
    B.MaxNodeVisits = R.MaxNodeVisits;
  if (R.DeadlineNs != 0 && (B.DeadlineNs == 0 || R.DeadlineNs < B.DeadlineNs))
    B.DeadlineNs = R.DeadlineNs;
  if (R.MaxMatrixCells != 0 &&
      (B.MaxMatrixCells == 0 || R.MaxMatrixCells < B.MaxMatrixCells))
    B.MaxMatrixCells = R.MaxMatrixCells;
  return B;
}

uint64_t budgetKey(const SolverBudget &B) {
  uint64_t H = mix(0, static_cast<uint64_t>(B.VisitSlack * 1e6));
  H = mix(H, B.MaxNodeVisits);
  H = mix(H, B.DeadlineNs);
  return mix(H, B.MaxMatrixCells);
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
/// whether it is an ok response (the counter split happens at the
/// respond-once site, so watchdog-killed requests are not double
/// counted).
struct HandlerResult {
  std::string Line;
  bool Ok = false;
};

/// One in-flight request, shared between its worker, the watchdog, and
/// (until admission) the submitting thread. The Responded flag makes
/// responding idempotent: exactly one of worker / watchdog / shedding
/// wins.
struct PendingRequest {
  std::string Line;
  AnalysisServer::Respond Respond;
  std::atomic<bool> Responded{false};

  std::mutex IdM;
  json::Value Id;

  /// Claims the respond-once slot; the winner adds \p Counters to
  /// \p Telem and only then hands \p Response to the client, so a
  /// client that reads the counters after its reply always finds its
  /// own request counted.
  void tryRespond(std::string Response, telem::Telemetry &Telem,
                  std::initializer_list<telem::Counter> Counters) {
    if (Responded.exchange(true))
      return;
    for (telem::Counter C : Counters)
      Telem.add(C);
    Respond(std::move(Response));
  }

  void setId(const json::Value &V) {
    std::lock_guard<std::mutex> L(IdM);
    Id = V;
  }

  json::Value idSnapshot() {
    std::lock_guard<std::mutex> L(IdM);
    return Id;
  }
};

/// One worker slot. Current/StartNs/Abandoned are guarded by the
/// server mutex; the thread object is moved out by whoever retires the
/// slot (join at shutdown, detach at abandonment).
struct WorkerState {
  std::thread T;
  std::shared_ptr<PendingRequest> Current;
  uint64_t StartNs = 0;
  bool Abandoned = false;
};

} // namespace

struct AnalysisServer::Core : std::enable_shared_from_this<Core> {
  explicit Core(ServeOptions O)
      : Opts(std::move(O)), Cache(Opts.TenantQuota) {
    Telem.enableTimings(true);
  }

  ServeOptions Opts;
  ServeCache Cache;
  telem::Telemetry Telem;

  std::mutex M;
  std::condition_variable CV;        ///< workers wait for work
  std::condition_variable IdleCV;    ///< drain() waits for quiescence
  std::condition_variable WatchdogCV;
  std::deque<std::shared_ptr<PendingRequest>> Queue;
  std::vector<std::shared_ptr<WorkerState>> Workers;
  std::thread Watchdog;
  bool Shutdown = false;
  bool WatchdogStop = false;

  void start() {
    unsigned N = Opts.Workers == 0 ? 1 : Opts.Workers;
    std::lock_guard<std::mutex> L(M);
    for (unsigned I = 0; I != N; ++I)
      Workers.push_back(spawnWorker());
    if (Opts.RequestDeadlineMs != 0)
      Watchdog = std::thread([C = shared_from_this()] { C->watchdogLoop(); });
  }

  std::shared_ptr<WorkerState> spawnWorker() {
    auto W = std::make_shared<WorkerState>();
    W->T = std::thread([C = shared_from_this(), W] { C->workerLoop(W); });
    return W;
  }

  void workerLoop(std::shared_ptr<WorkerState> Self) {
    // One shared Telemetry for the whole pool: counters and histograms
    // are relaxed atomics, and no sink is ever attached, so concurrent
    // workers are safe.
    telem::TelemetryScope Scope(Telem);
    for (;;) {
      std::shared_ptr<PendingRequest> Req;
      {
        std::unique_lock<std::mutex> L(M);
        CV.wait(L, [&] { return Shutdown || !Queue.empty(); });
        if (Queue.empty())
          return; // shutdown, nothing left
        Req = std::move(Queue.front());
        Queue.pop_front();
        Self->Current = Req;
        Self->StartNs = telem::wallNowNs();
      }
      HandlerResult HR = handleRequest(*Req);
      telem::Counter Outcome =
          HR.Ok ? telem::Counter::ServeOk : telem::Counter::ServeErrors;
      Req->tryRespond(std::move(HR.Line), Telem, {Outcome});
      {
        std::lock_guard<std::mutex> L(M);
        Self->Current = nullptr;
        Self->StartNs = 0;
        if (Self->Abandoned)
          return; // the watchdog already runs a replacement
      }
      IdleCV.notify_all();
    }
  }

  void watchdogLoop() {
    const uint64_t WedgeNs = (Opts.RequestDeadlineMs + Opts.WatchdogGraceMs) *
                             1000000ull;
    std::unique_lock<std::mutex> L(M);
    while (!WatchdogStop) {
      WatchdogCV.wait_for(L, std::chrono::milliseconds(20));
      if (WatchdogStop)
        return;
      uint64_t Now = telem::wallNowNs();
      for (size_t I = 0; I != Workers.size(); ++I) {
        std::shared_ptr<WorkerState> W = Workers[I];
        if (W->Abandoned || !W->Current || Now - W->StartNs <= WedgeNs)
          continue;
        // Fail the wedged request, abandon the worker, keep the pool at
        // strength. The abandoned thread finishes into the void: its
        // late tryRespond loses, and it exits on the Abandoned flag.
        std::shared_ptr<PendingRequest> Req = W->Current;
        W->Abandoned = true;
        W->T.detach();
        Workers[I] = spawnWorker();
        L.unlock();
        std::string Line =
            errorResponse(Req->idSnapshot(), ErrorCode::Deadline,
                          "request exceeded its deadline; worker abandoned");
        Req->tryRespond(std::move(Line), Telem,
                        {telem::Counter::ServeErrors,
                         telem::Counter::ServeWatchdogKills});
        IdleCV.notify_all();
        L.lock();
      }
    }
  }

  void beginShutdown() {
    std::vector<std::shared_ptr<PendingRequest>> Orphans;
    {
      std::lock_guard<std::mutex> L(M);
      Shutdown = true;
      Orphans.assign(Queue.begin(), Queue.end());
      Queue.clear();
    }
    CV.notify_all();
    IdleCV.notify_all();
    for (const std::shared_ptr<PendingRequest> &R : Orphans)
      R->tryRespond(errorResponse(R->idSnapshot(), ErrorCode::ShuttingDown,
                                  "daemon is shutting down"),
                    Telem, {telem::Counter::ServeErrors});
  }

  HandlerResult handleRequest(PendingRequest &Req) {
    telem::LatencyTimer Timer(telem::Histo::ServeRequestNs);
    json::Value Id;
    try {
      // The per-request fault boundary's own drill site. Throw is
      // contained right here (an internal error response); Breach
      // forces load shedding; Stall is the watchdog's test vector.
      if (failpoint::evaluate("serve.request") == failpoint::Fired::Breach)
        return {errorResponse(Id, ErrorCode::Overloaded,
                              "serve.request failpoint forced shedding"),
                false};
      ParsedRequest P = parseRequest(Req.Line, Opts.Engine);
      Id = P.Id;
      Req.setId(P.Id);
      if (!P.Ok)
        return {errorResponse(P.Id, ErrorCode::BadRequest, P.Error), false};
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
    std::lock_guard<std::mutex> DocLock(Doc->M);
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
                            uint64_t SrcHash, Document &D,
                            std::string &ParseError) {
    Document *Doc = &D;
    uint64_t DrvKey = driverOptionsKey(R, Budget);
    ParseResult PR = parseProgram(R.Source);
    if (!PR.succeeded()) {
      ParseError = PR.diagnosticsToString();
      return "";
    }
    // A warm driver only serves requests with the same analysis shape;
    // different options rebuild cold (rare: one editor per document in
    // practice).
    if (Doc->Driver && Doc->DriverOptionsKey != DrvKey)
      Doc->reset();
    // Bound the rerun lifetime rule: after enough retained versions,
    // rebuild cold to release them.
    if (Doc->Driver && Doc->SourceHash != SrcHash &&
        Doc->Programs.size() >= Opts.MaxProgramsPerDocument)
      Doc->reset();

    bool Warm = false;
    unsigned Reused = 0, Reanalyzed = 0;
    if (Doc->Driver && Doc->SourceHash == SrcHash) {
      // Same text, options differing only in memo-relevant ways: the
      // driver's whole state is current.
      Warm = true;
    } else if (Doc->Driver) {
      auto NewProg = std::make_unique<Program>(std::move(PR.Prog));
      DriverRerun RR = Doc->Driver->rerun(*NewProg);
      Doc->Programs.push_back(std::move(NewProg));
      Doc->RetainedBytes += R.Source.size();
      Doc->SourceHash = SrcHash;
      Telem.add(telem::Counter::ServeReruns);
      Warm = true;
      Reused = RR.Reused;
      Reanalyzed = RR.Reanalyzed;
    } else {
      auto NewProg = std::make_unique<Program>(std::move(PR.Prog));
      DriverOptions DO;
      DO.IncludeNested = R.IncludeNested;
      DO.Solver.Eng = R.Engine;
      DO.Solver.Budget = Budget;
      Doc->Driver =
          std::make_unique<ProgramAnalysisDriver>(*NewProg, std::move(DO));
      Doc->Programs.push_back(std::move(NewProg));
      Doc->RetainedBytes += R.Source.size();
      Doc->SourceHash = SrcHash;
      Doc->DriverOptionsKey = DrvKey;
      Doc->Driver->run();
    }

    DriverReport Rep = Doc->Driver->report();
    json::Object O;
    O["loops"] = jint(Rep.total());
    O["ok"] = jint(Rep.Ok);
    O["degraded"] = jint(Rep.Degraded);
    O["failed"] = jint(Rep.Failed);
    O["unsupported"] = jint(Rep.Unsupported);
    O["node_visits"] = jint(Doc->Driver->totalNodeVisits());
    O["engine"] = json::Value(engineName(R.Engine));
    O["warm"] = json::Value(Warm);
    O["reused"] = jint(Reused);
    O["reanalyzed"] = jint(Reanalyzed);
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
    : C(std::make_shared<Core>(std::move(Opts))) {
  C->start();
}

AnalysisServer::~AnalysisServer() {
  C->beginShutdown();
  {
    std::lock_guard<std::mutex> L(C->M);
    C->WatchdogStop = true;
  }
  C->WatchdogCV.notify_all();
  if (C->Watchdog.joinable())
    C->Watchdog.join();
  std::vector<std::thread> Threads;
  {
    std::lock_guard<std::mutex> L(C->M);
    for (const std::shared_ptr<WorkerState> &W : C->Workers)
      if (!W->Abandoned && W->T.joinable())
        Threads.push_back(std::move(W->T));
  }
  C->CV.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void AnalysisServer::submit(std::string Line, Respond R) {
  auto Req = std::make_shared<PendingRequest>();
  Req->Line = std::move(Line);
  Req->Respond = std::move(R);
  C->Telem.add(telem::Counter::ServeRequests);
  if (C->Opts.MaxRequestBytes != 0 &&
      Req->Line.size() > C->Opts.MaxRequestBytes) {
    std::string Why = "request of " + std::to_string(Req->Line.size()) +
                      " bytes exceeds the " +
                      std::to_string(C->Opts.MaxRequestBytes) + " byte cap";
    Req->tryRespond(errorResponse(json::Value(), ErrorCode::PayloadTooLarge,
                                  Why),
                    C->Telem, {telem::Counter::ServeErrors});
    return;
  }
  ErrorCode Shed = ErrorCode::BadRequest; // sentinel meaning "admitted"
  {
    std::lock_guard<std::mutex> L(C->M);
    if (C->Shutdown)
      Shed = ErrorCode::ShuttingDown;
    else if (C->Queue.size() >= C->Opts.QueueDepth)
      Shed = ErrorCode::Overloaded;
    else
      C->Queue.push_back(Req);
  }
  if (Shed == ErrorCode::ShuttingDown) {
    Req->tryRespond(errorResponse(json::Value(), Shed,
                                  "daemon is shutting down"),
                    C->Telem, {telem::Counter::ServeErrors});
    return;
  }
  if (Shed == ErrorCode::Overloaded) {
    // Shedding is deliberately cheap: no parse, so the echoed id is
    // null. Clients treat overloaded as retry-later regardless of id.
    Req->tryRespond(errorResponse(json::Value(), Shed,
                                  "request queue is full; retry later"),
                    C->Telem, {telem::Counter::ServeOverloads});
    return;
  }
  C->CV.notify_one();
}

void AnalysisServer::requestShutdown() { C->beginShutdown(); }

bool AnalysisServer::shutdownRequested() const {
  std::lock_guard<std::mutex> L(C->M);
  return C->Shutdown;
}

void AnalysisServer::drain() {
  std::unique_lock<std::mutex> L(C->M);
  C->IdleCV.wait(L, [&] {
    if (!C->Queue.empty())
      return false;
    for (const std::shared_ptr<WorkerState> &W : C->Workers)
      if (!W->Abandoned && W->Current)
        return false;
    return true;
  });
}

const ServeOptions &AnalysisServer::options() const { return C->Opts; }

ServeCacheStats AnalysisServer::cacheStats() const { return C->Cache.stats(); }

const telem::Telemetry &AnalysisServer::telemetry() const { return C->Telem; }

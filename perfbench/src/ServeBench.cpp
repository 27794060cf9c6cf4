//===- perfbench/src/ServeBench.cpp - Closed-loop ardf-serve edit mix -----===//
//
// serve_edit_mix: two client threads, one tenant each, drive an
// in-process AnalysisServer with two workers. Each client waits for its
// reply before sending the next request (a closed loop). Its next
// request is drawn by seed from a mix of one-loop edits (analyze, the
// ProgramAnalysisDriver::rerun path), lints of the current text, exact
// repeats (response-memo replays) and opens of fresh documents (cold,
// drives LRU eviction).
//
// Every client mirrors its tenant's server state (document versions,
// LRU order), so every reply is checked against an exact expectation.
//
// The traced run measures half its time untraced, then records the
// second half's requests and replays each layer's public call on them.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "driver/ProgramAnalysisDriver.h"
#include "frontend/Parser.h"
#include "lint/LintEngine.h"
#include "lint/Render.h"
#include "serve/Server.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <list>
#include <memory>
#include <sstream>
#include <thread>

using namespace ardf;
using namespace ardf::serve;

namespace perfbench {

namespace {

constexpr unsigned Clients = 2;
constexpr unsigned Workers = 2;
constexpr unsigned HotDocs = 4;
constexpr unsigned LoopsPerDoc = 8;
constexpr unsigned StmtsPerLoop = 12;
/// Time slices of the measurement (at most); each metric is their median.
constexpr unsigned MeasureSlices = 9;

enum class Kind { Edit, Lint, Memo, Open };
constexpr unsigned NumKinds = 4;
const char *const KindNames[NumKinds] = {"edit", "lint", "memo", "open"};

/// Warm-up requests per client after the hot documents are open: a fixed
/// composition, so set-up time does not depend on the seed's mix.
constexpr Kind Warmup[] = {Kind::Edit, Kind::Lint, Kind::Memo, Kind::Open,
                           Kind::Edit, Kind::Memo, Kind::Edit, Kind::Lint};

/// One document as its editor sees it.
struct Doc {
  std::string File;
  std::vector<std::string> Loops;
  /// The loops of the version the server last analyzed.
  std::vector<std::string> Analyzed;
  /// Program versions the server's document retains (its rerun cap).
  unsigned Versions = 0;
  /// The current text was already linted (a new lint would be a memo
  /// hit, so the client edits first).
  bool Linted = false;

  std::string text() const {
    std::string T;
    for (const std::string &L : Loops)
      T += L;
    return T;
  }
};

/// One request with what its reply must say.
struct Request {
  Kind K = Kind::Edit;
  std::string File;
  std::string Line;
  /// Analyzed text (edit, lint, open); empty for a repeat.
  std::string Text;
  /// Analyze replies: loops reanalyzed, or a cold rebuild.
  unsigned Reanalyzed = 0;
  bool Cold = false;
  /// Index into the client's hot documents, or -1 for a fresh one.
  int DocIdx = -1;
};

/// What the traced run keeps per request.
struct Record {
  Request Q;
  uint64_t LatNs = 0;
  std::string Reply;
};

std::string quote(const std::string &S) {
  std::string Out;
  json::appendQuoted(Out, S);
  return Out;
}

/// The server's lint result rendering: lintSource + renderJsonLines.
std::string lintRender(const std::string &File, const std::string &Text) {
  std::ostringstream OS;
  renderJsonLines(OS, lintSource(Text, File).Diags);
  return OS.str();
}

int64_t field(const json::Value &Result, const char *Name) {
  const json::Value *V = Result.find(Name);
  return V && V->isInt() ? V->intValue() : -1;
}

class Client {
public:
  Client(unsigned Index, uint64_t Seed, const ServeOptions &SO)
      : Index(Index), Tenant("tenant" + std::to_string(Index)),
        R(deriveSeed(Seed, 100 + Index)), Quota(SO.TenantQuota),
        MaxVersions(SO.MaxProgramsPerDocument) {
    for (unsigned D = 0; D != HotDocs; ++D) {
      Doc Hot;
      Hot.File = "hot" + std::to_string(D) + ".arf";
      for (unsigned L = 0; L != LoopsPerDoc; ++L)
        Hot.Loops.push_back(freshLoop());
      Hot.Analyzed = Hot.Loops;
      Hot.Versions = 1;
      Docs.push_back(std::move(Hot));
    }
  }

  /// The analyze requests that open the hot documents.
  std::vector<Request> primeRequests() {
    std::vector<Request> Out;
    for (unsigned D = 0; D != HotDocs; ++D) {
      Request Q;
      Q.K = Kind::Open;
      Q.DocIdx = static_cast<int>(D);
      Q.Text = Docs[D].text();
      Q.Cold = true;
      Q.File = Docs[D].File;
      Q.Line = line("analyze", Q.File, Q.Text);
      touch(Q.File);
      Out.push_back(std::move(Q));
    }
    return Out;
  }

  /// Draws the next request of the mix and updates the mirror as the
  /// server will once it answers. The stream depends only on the seed,
  /// never on replies, so a fresh client replays it exactly.
  ///
  /// The shares are an assumption, not measured editor traffic: edits
  /// and repeats dominate as in an editor session, and at the measured
  /// rate every kind still has dozens of samples in each time slice.
  Request next() {
    int64_t Roll = R.range(1, 100);
    return make(Roll <= 50   ? Kind::Edit
                : Roll <= 65 ? Kind::Lint
                : Roll <= 95 ? Kind::Memo
                             : Kind::Open);
  }

  /// Builds the next request of kind \p K.
  Request make(Kind K) {
    if (K == Kind::Memo && Last.Line.empty())
      K = Kind::Edit;
    Request Q;
    Q.K = K;
    switch (K) {
    case Kind::Memo:
      Q.Line = Last.Line;
      Q.File = Last.File;
      Q.DocIdx = Last.DocIdx;
      touch(Q.File);
      return Q; // Last stays: a repeat of a repeat is the same line
    case Kind::Edit: {
      unsigned D = static_cast<unsigned>(R.range(0, HotDocs - 1));
      Doc &Dc = Docs[D];
      Dc.Loops[R.range(0, LoopsPerDoc - 1)] = freshLoop();
      analyzeDoc(Dc, Q);
      Q.DocIdx = static_cast<int>(D);
      Q.File = Dc.File;
      Q.Line = line("analyze", Q.File, Q.Text);
      break;
    }
    case Kind::Lint: {
      unsigned D = static_cast<unsigned>(R.range(0, HotDocs - 1));
      Doc &Dc = Docs[D];
      if (Dc.Linted)
        Dc.Loops[R.range(0, LoopsPerDoc - 1)] = freshLoop();
      Dc.Linted = true;
      Q.DocIdx = static_cast<int>(D);
      Q.Text = Dc.text();
      Q.File = Dc.File;
      Q.Line = line("lint", Q.File, Q.Text);
      touch(Q.File);
      break;
    }
    case Kind::Open: {
      Q.File = "fresh" + std::to_string(FreshCount++) + ".arf";
      for (unsigned L = 0; L != LoopsPerDoc; ++L)
        Q.Text += freshLoop();
      Q.Cold = true;
      Q.Line = line("analyze", Q.File, Q.Text);
      touch(Q.File);
      break;
    }
    }
    Last = Q;
    return Q;
  }

  /// Checks \p Reply against \p Q's expectation and sets \p RenderHash
  /// to a lint reply's render hash, verified after the run. Returns an
  /// empty string or what went wrong.
  std::string check(const Request &Q, const std::string &Reply,
                    uint64_t &RenderHash) {
    if (Q.K == Kind::Memo) {
      if (Reply != LastReply)
        return "memo: repeat reply differs from the original reply";
      return "";
    }
    LastReply = Reply;
    json::ParseOutcome P = json::parse(Reply);
    const json::Value *Ok = P.Ok ? P.V.find("ok") : nullptr;
    const json::Value *Res = P.Ok ? P.V.find("result") : nullptr;
    if (!Ok || !Ok->isBool() || !Ok->boolValue() || !Res)
      return std::string(KindNames[int(Q.K)]) + ": error reply " +
             Reply.substr(0, 200);
    if (Q.K == Kind::Lint) {
      const json::Value *Render = Res->find("render");
      if (!Render || !Render->isString() || field(*Res, "divergences") != 0 ||
          field(*Res, "degraded") != 0 || field(*Res, "loops") != LoopsPerDoc)
        return "lint: reply has divergences, degraded checks or no render";
      RenderHash = hashBytes(Render->stringValue());
      return "";
    }
    const json::Value *Warm = Res->find("warm");
    bool WarmOk = Warm && Warm->isBool() && Warm->boolValue() == !Q.Cold;
    int64_t Reused = field(*Res, "reused"), Re = field(*Res, "reanalyzed");
    bool CountsOk = Q.Cold ? Reused == 0 && Re == 0
                           : Re == int64_t(Q.Reanalyzed) &&
                                 Reused == int64_t(LoopsPerDoc - Q.Reanalyzed);
    if (field(*Res, "failed") != 0 || field(*Res, "degraded") != 0 ||
        field(*Res, "loops") != LoopsPerDoc || !WarmOk || !CountsOk)
      return std::string(KindNames[int(Q.K)]) + ": expected " +
             (Q.Cold ? "cold" : std::to_string(Q.Reanalyzed) +
                                    " reanalyzed") +
             ", got " + Reply.substr(0, 200);
    return "";
  }

  unsigned index() const { return Index; }
  const std::vector<Doc> &docs() const { return Docs; }

private:
  std::string freshLoop() {
    // A trip count no other loop of this client uses, so an edited loop
    // never equals an old one and the server's structural diff
    // reanalyzes exactly the loops the client changed.
    return genLoop(R, StmtsPerLoop, 1000 + Trip++);
  }

  std::string line(const char *Method, const std::string &File,
                   const std::string &Text) {
    return "{\"id\":" + std::to_string(uint64_t(Index) << 32 | Ids++) +
           ",\"method\":\"" + Method + "\",\"tenant\":" + quote(Tenant) +
           ",\"file\":" + quote(File) + ",\"source\":" + quote(Text) + "}";
  }

  /// Applies an analyze of \p Dc's current text to the mirror.
  void analyzeDoc(Doc &Dc, Request &Q) {
    Q.Text = Dc.text();
    touch(Dc.File);
    if (Dc.Versions == 0 || Dc.Versions >= MaxVersions) {
      Q.Cold = true;
      Dc.Versions = 1;
    } else {
      for (unsigned L = 0; L != LoopsPerDoc; ++L)
        Q.Reanalyzed += Dc.Loops[L] != Dc.Analyzed[L];
      ++Dc.Versions;
    }
    Dc.Analyzed = Dc.Loops;
    Dc.Linted = false;
  }

  /// Mirrors ServeCache::lookup on this tenant's LRU: an evicted hot
  /// document loses its warm driver, so its next analyze is cold.
  void touch(const std::string &File) {
    auto It = std::find(Lru.begin(), Lru.end(), File);
    if (It != Lru.end())
      Lru.erase(It);
    Lru.push_front(File);
    while (Lru.size() > Quota) {
      for (Doc &D : Docs)
        if (D.File == Lru.back())
          D.Versions = 0;
      Lru.pop_back();
    }
  }

  unsigned Index;
  std::string Tenant;
  Rng R;
  unsigned Quota;
  unsigned MaxVersions;
  std::vector<Doc> Docs;
  std::list<std::string> Lru;
  uint64_t Trip = 0;
  uint64_t Ids = 0;
  unsigned FreshCount = 0;
  Request Last;
  std::string LastReply;
};

std::string call(AnalysisServer &S, const std::string &Line) {
  std::promise<std::string> P;
  std::future<std::string> F = P.get_future();
  S.submit(Line, [&P](std::string R) { P.set_value(std::move(R)); });
  return F.get();
}

/// One completed request of the closed loop.
struct Sample {
  Kind K;
  double Ms;
  /// Completion time since the phase started.
  uint64_t DoneNs;
  unsigned Stmts;
  /// Hash of a lint reply's render.
  uint64_t RenderHash;
};

/// Per-client results of one closed-loop phase.
struct ClientRun {
  std::vector<Sample> Samples;
  uint64_t Attempted = 0;
  std::vector<std::string> Failures;
  uint64_t Failed = 0;
  std::vector<Record> Records; // traced phase only
  uint64_t Reused = 0, Reanalyzed = 0;
};

void issue(Client &Cl, AnalysisServer &S, const Request &Q, ClientRun &Out,
           bool Keep, uint64_t PhaseStart = 0) {
  uint64_t T0 = nowNs();
  std::string Reply = call(S, Q.Line);
  uint64_t T1 = nowNs();
  uint64_t Dt = T1 - T0;
  ++Out.Attempted;
  uint64_t RenderHash = 0;
  std::string Why = Cl.check(Q, Reply, RenderHash);
  if (!Why.empty()) {
    ++Out.Failed;
    if (Out.Failures.size() < 5)
      Out.Failures.push_back("client " + std::to_string(Cl.index()) + ": " +
                             Why);
  }
  Out.Samples.push_back(Sample{Q.K, static_cast<double>(Dt) / 1e6,
                               T1 - PhaseStart,
                               Q.K == Kind::Lint ? countStatements(Q.Text)
                                                 : 0,
                               RenderHash});
  if (Q.K == Kind::Edit && Why.empty()) {
    Out.Reanalyzed += Q.Cold ? 0 : Q.Reanalyzed;
    Out.Reused += Q.Cold ? 0 : LoopsPerDoc - Q.Reanalyzed;
  }
  if (Keep)
    Out.Records.push_back(Record{Q, Dt, Reply});
}

/// Runs every client for \p Seconds in its own thread.
std::vector<ClientRun> closedLoop(std::vector<Client> &Cls, AnalysisServer &S,
                                  double Seconds, bool Keep,
                                  double &Elapsed) {
  std::vector<ClientRun> Runs(Cls.size());
  uint64_t Start = nowNs();
  uint64_t Deadline = Start + static_cast<uint64_t>(Seconds * 1e9);
  std::vector<std::thread> Threads;
  for (size_t I = 0; I != Cls.size(); ++I)
    Threads.emplace_back([&, I] {
      while (nowNs() < Deadline)
        issue(Cls[I], S, Cls[I].next(), Runs[I], Keep, Start);
    });
  for (std::thread &T : Threads)
    T.join();
  Elapsed = static_cast<double>(nowNs() - Start) / 1e9;
  return Runs;
}

void absorb(RunResult &R, ClientRun &C) {
  R.Attempted += C.Attempted;
  R.Failed += C.Failed;
  for (std::string &F : C.Failures)
    if (R.Failures.size() < 20)
      R.Failures.push_back(std::move(F));
}

ServeOptions serveOptions() {
  ServeOptions SO;
  SO.Workers = Workers;
  return SO;
}

/// Set-up: build the clients' documents, construct the server, open the
/// hot documents and warm up with a few requests per client.
struct Live {
  std::unique_ptr<AnalysisServer> Server;
  std::vector<Client> Cls;
};

Live setUp(const Config &C, RunResult &R, double &SetupS) {
  std::vector<double> Times;
  Live L;
  for (unsigned Rep = 0; Rep != SetupRepeats; ++Rep) {
    L = Live(); // the previous repetition's server drains and joins here
    RunResult Scratch;
    uint64_t T0 = nowNs();
    checkGoldens(C, Scratch);
    ServeOptions SO = serveOptions();
    for (unsigned I = 0; I != Clients; ++I)
      L.Cls.emplace_back(I, C.Seed, SO);
    L.Server = std::make_unique<AnalysisServer>(SO);
    ClientRun Warm;
    for (Client &Cl : L.Cls) {
      for (const Request &Q : Cl.primeRequests())
        issue(Cl, *L.Server, Q, Warm, false);
      for (Kind K : Warmup)
        issue(Cl, *L.Server, Cl.make(K), Warm, false);
    }
    Times.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    absorb(Scratch, Warm);
    if (Rep + 1 == SetupRepeats) {
      R.Attempted += Scratch.Attempted;
      R.Failed += Scratch.Failed;
      R.SetupOk = Scratch.SetupOk;
      R.Failures = std::move(Scratch.Failures);
    }
  }
  SetupS = median(Times);
  return L;
}

/// Verifies every lint reply of \p Runs against lintSource +
/// renderJsonLines on all CPUs, after the measurement. Fresh clients
/// replay the request streams to regenerate the lint texts, so the run
/// itself keeps only render hashes.
void verifyLints(const Config &C, const std::vector<ClientRun> &Runs,
                 RunResult &R) {
  std::vector<Request> Todo;
  std::vector<uint64_t> Hashes;
  for (unsigned I = 0; I != Runs.size(); ++I) {
    Client Cl(I, C.Seed, serveOptions());
    Cl.primeRequests();
    for (Kind K : Warmup)
      Cl.make(K);
    for (const Sample &S : Runs[I].Samples) {
      Request Q = Cl.next();
      if (Q.K != S.K) {
        R.fail("lint: replayed request stream of client " +
               std::to_string(I) + " differs from the run's");
        break;
      }
      if (Q.K == Kind::Lint) {
        Todo.push_back(std::move(Q));
        Hashes.push_back(S.RenderHash);
      }
    }
  }
  std::vector<char> Bad(Todo.size(), 0);
  std::vector<std::thread> Pool;
  std::atomic<size_t> Cursor{0};
  for (unsigned T = 0; T != std::max(1u, std::thread::hardware_concurrency());
       ++T)
    Pool.emplace_back([&] {
      for (size_t I; (I = Cursor++) < Todo.size();)
        Bad[I] =
            hashBytes(lintRender(Todo[I].File, Todo[I].Text)) != Hashes[I];
    });
  for (std::thread &T : Pool)
    T.join();
  for (size_t I = 0; I != Todo.size(); ++I)
    if (Bad[I])
      R.fail("lint: serve render of " + Todo[I].File +
             " differs from lintSource + renderJsonLines");
}

/// Latencies (ms) of the samples completed in [From, To), of kind \p K
/// or of every kind when \p K is null.
std::vector<double> latencies(const std::vector<ClientRun> &Runs,
                              const Kind *K, uint64_t From = 0,
                              uint64_t To = UINT64_MAX) {
  std::vector<double> V;
  for (const ClientRun &Run : Runs)
    for (const Sample &S : Run.Samples)
      if ((!K || S.K == *K) && S.DoneNs >= From && S.DoneNs < To)
        V.push_back(S.Ms);
  return V;
}

std::vector<double> allLatencies(const std::vector<ClientRun> &Runs) {
  return latencies(Runs, nullptr);
}

/// The end-to-end metrics of the requests completed in [From, To).
void addServeMetrics(RunResult &R, const std::vector<ClientRun> &Runs,
                     uint64_t From, uint64_t To) {
  const Kind Edit = Kind::Edit, Lint = Kind::Lint, Memo = Kind::Memo,
             Open = Kind::Open;
  double Seconds = static_cast<double>(To - From) / 1e9;
  std::vector<double> All = latencies(Runs, nullptr, From, To);
  std::vector<double> Lints = latencies(Runs, &Lint, From, To);
  double LintStmts = 0, LintMs = 0;
  for (const ClientRun &Run : Runs)
    for (const Sample &S : Run.Samples)
      if (S.K == Kind::Lint && S.DoneNs >= From && S.DoneNs < To) {
        LintStmts += S.Stmts;
        LintMs += S.Ms;
      }
  size_t N = All.size();
  addPercentiles(R, "op_ms", All, "ms");
  R.add("ops_per_s", static_cast<double>(N) / Seconds, "1/s", N);
  addPercentiles(R, "lint_ms", Lints, "ms");
  R.add("lint_stmts_per_s", LintMs > 0 ? LintStmts / (LintMs / 1e3) : 0,
        "stmt/s", Lints.size());
  // The serve view of the same requests, under the serve_* names.
  R.add("serve_req_per_s", static_cast<double>(N) / Seconds, "req/s", N);
  addPercentiles(R, "serve_edit_ms", latencies(Runs, &Edit, From, To), "ms");
  addPercentiles(R, "serve_lint_ms", Lints, "ms");
  std::vector<double> Memos = latencies(Runs, &Memo, From, To);
  R.add("serve_memo_us_p50", median(Memos) * 1e3, "us", Memos.size());
  std::vector<double> Opens = latencies(Runs, &Open, From, To);
  R.add("serve_open_ms_p50", median(Opens), "ms", Opens.size());
}

/// Returns the run's samples for verifyLints.
std::vector<ClientRun> untracedRun(const Config &C, Live &L, RunResult &R) {
  double Elapsed = 0;
  std::vector<ClientRun> Runs =
      closedLoop(L.Cls, *L.Server, C.Seconds, false, Elapsed);
  for (ClientRun &Run : Runs)
    absorb(R, Run);

  uint64_t SpanNs = static_cast<uint64_t>(Elapsed * 1e9);
  addSliceMedians(R,
                  timeSlices(MeasureSlices, allLatencies(Runs).size(), SpanNs),
                  [&](RunResult &Out, uint64_t From, uint64_t To) {
                    addServeMetrics(Out, Runs, From, To);
                  });
  return Runs;
}

/// Per-document replay state: a driver fed the same program versions as
/// the server's warm driver.
struct ReplayDoc {
  std::vector<std::unique_ptr<Program>> Programs;
  std::unique_ptr<ProgramAnalysisDriver> Driver;
};

DriverOptions replayDriverOptions(const ServeOptions &SO) {
  DriverOptions DO;
  DO.Solver.Eng = SO.Engine;
  DO.Solver.Budget = SO.Budget;
  DO.Solver.Budget.DeadlineNs = SO.RequestDeadlineMs * 1000000ull;
  return DO;
}

/// Replays one client's recorded requests layer by layer. Returns the
/// replayed compute per record in nanoseconds.
std::vector<uint64_t> replay(const std::vector<Record> &Recs,
                             const std::vector<std::string> &StartTexts,
                             Tracer &T, ClientRun &Out) {
  const DriverOptions DO = replayDriverOptions(serveOptions());
  std::vector<ReplayDoc> Docs(HotDocs);
  auto coldStart = [&](ReplayDoc &D, std::unique_ptr<Program> P) {
    Scoped S(&T, "driver.run");
    D.Programs.clear();
    D.Driver.reset();
    D.Driver = std::make_unique<ProgramAnalysisDriver>(*P, DO);
    D.Programs.push_back(std::move(P));
    D.Driver->run();
  };
  auto parse = [&](const std::string &Text) {
    Scoped S(&T, "serve.parse");
    return std::make_unique<Program>(std::move(parseProgram(Text).Prog));
  };
  // The hot documents as the server held them when recording began.
  for (unsigned D = 0; D != HotDocs; ++D)
    coldStart(Docs[D], std::make_unique<Program>(
                           std::move(parseProgram(StartTexts[D]).Prog)));
  T = Tracer(); // set-up spans are not part of the replay
  // The recorded results, parsed outside the timed window; the replay
  // re-encodes them as the server encodes its results.
  std::vector<json::Value> Results(Recs.size());
  for (size_t I = 0; I != Recs.size(); ++I) {
    json::ParseOutcome PO = json::parse(Recs[I].Reply);
    if (const json::Value *V = PO.V.find("result"))
      Results[I] = *V;
  }

  std::vector<uint64_t> Compute;
  for (size_t I = 0; I != Recs.size(); ++I) {
    const Record &Rec = Recs[I];
    const Request &Q = Rec.Q;
    T.beginOp(static_cast<uint32_t>(I));
    uint64_t T0 = nowNs();
    {
      Scoped Op(&T, KindNames[int(Q.K)]);
      json::Value Id;
      {
        Scoped S(&T, "serve.protocol");
        ParsedRequest P = parseRequest(Q.Line);
        Id = P.Id;
      }
      if (Q.K == Kind::Lint) {
        Scoped S(&T, "serve.lint_compute");
        lintRender(Q.File, Q.Text);
      } else if (Q.K == Kind::Edit || Q.K == Kind::Open) {
        std::unique_ptr<Program> P = parse(Q.Text);
        if (Q.K == Kind::Open) {
          ReplayDoc Fresh;
          coldStart(Fresh, std::move(P));
        } else if (Q.Cold) {
          coldStart(Docs[Q.DocIdx], std::move(P));
        } else {
          ReplayDoc &D = Docs[Q.DocIdx];
          DriverRerun RR;
          {
            Scoped S(&T, "driver.rerun");
            RR = D.Driver->rerun(*P);
          }
          D.Programs.push_back(std::move(P));
          if (RR.Reanalyzed != Q.Reanalyzed && ++Out.Failed < 5)
            Out.Failures.push_back("replay: rerun reanalyzed " +
                                   std::to_string(RR.Reanalyzed) +
                                   " loops, the server " +
                                   std::to_string(Q.Reanalyzed));
        }
      }
      {
        Scoped S(&T, "serve.protocol");
        okResponse(Id, std::move(Results[I]));
      }
    }
    Compute.push_back(nowNs() - T0);
  }
  return Compute;
}

/// Returns both halves' samples, in order, for verifyLints.
std::vector<ClientRun> tracedRun(const Config &C, Live &L, RunResult &R) {
  double ElapsedA = 0, ElapsedB = 0;
  std::vector<ClientRun> A =
      closedLoop(L.Cls, *L.Server, C.Seconds / 2, false, ElapsedA);
  std::vector<std::vector<std::string>> StartTexts;
  for (const Client &Cl : L.Cls) {
    StartTexts.emplace_back();
    for (const Doc &D : Cl.docs()) {
      std::string T;
      for (const std::string &Lp : D.Analyzed)
        T += Lp;
      StartTexts.back().push_back(T);
    }
  }
  std::vector<ClientRun> B =
      closedLoop(L.Cls, *L.Server, C.Seconds / 2, true, ElapsedB);
  for (std::vector<ClientRun> *Phase : {&A, &B})
    for (ClientRun &Run : *Phase)
      absorb(R, Run);

  // Replay each client's recorded stream on its own thread.
  std::vector<Tracer> Tracers(L.Cls.size());
  std::vector<std::vector<uint64_t>> Compute(L.Cls.size());
  std::vector<ClientRun> ReplayOut(L.Cls.size());
  std::vector<std::thread> Threads;
  for (size_t I = 0; I != L.Cls.size(); ++I)
    Threads.emplace_back([&, I] {
      Compute[I] = replay(B[I].Records, StartTexts[I], Tracers[I],
                          ReplayOut[I]);
    });
  for (std::thread &T : Threads)
    T.join();
  for (ClientRun &Run : ReplayOut)
    absorb(R, Run);

  // Layer times from the replay spans.
  std::map<std::string, uint64_t> Self;
  std::map<std::string, uint64_t> Calls;
  for (const Tracer &T : Tracers) {
    for (const auto &[Name, Ns] : selfTimes(T.spans()))
      Self[Name] += Ns;
    for (const Tracer::Span &S : T.spans())
      ++Calls[S.Name];
  }
  auto msPerCall = [&](const char *Name) {
    return Calls[Name] ? static_cast<double>(Self[Name]) / 1e6 /
                             static_cast<double>(Calls[Name])
                       : 0.0;
  };
  size_t Requests = 0;
  std::vector<double> Wait[NumKinds];
  double LatSum = 0, ComputeSum = 0;
  for (size_t I = 0; I != B.size(); ++I)
    for (size_t J = 0; J != B[I].Records.size(); ++J) {
      const Record &Rec = B[I].Records[J];
      double Lat = static_cast<double>(Rec.LatNs);
      double Comp = static_cast<double>(Compute[I][J]);
      Wait[int(Rec.Q.K)].push_back((Lat - Comp) / 1e6);
      LatSum += Lat;
      ComputeSum += Comp;
      ++Requests;
    }
  uint64_t Reused = 0, Reanalyzed = 0;
  for (const std::vector<ClientRun> *Phase : {&A, &B})
    for (const ClientRun &Run : *Phase) {
      Reused += Run.Reused;
      Reanalyzed += Run.Reanalyzed;
    }
  R.add("driver.rerun_ms", msPerCall("driver.rerun"), "ms",
        Calls["driver.rerun"]);
  R.add("driver.run_ms", msPerCall("driver.run"), "ms",
        Calls["driver.run"]);
  R.add("driver.reused_ratio",
        Reused + Reanalyzed
            ? static_cast<double>(Reused) / double(Reused + Reanalyzed)
            : 0,
        "ratio");
  R.add("serve.lint_compute_ms", msPerCall("serve.lint_compute"), "ms",
        Calls["serve.lint_compute"]);
  R.add("serve.protocol_us",
        Requests ? static_cast<double>(Self["serve.protocol"]) / 1e3 /
                       static_cast<double>(Requests)
                 : 0,
        "us", Requests);
  for (unsigned K = 0; K != NumKinds; ++K)
    R.add(std::string("serve.wait_ms.") + KindNames[K], median(Wait[K]), "ms",
          Wait[K].size());

  const telem::Telemetry &Tm = L.Server->telemetry();
  double Hits = double(Tm.get(telem::Counter::ServeCacheHits));
  double Misses = double(Tm.get(telem::Counter::ServeCacheMisses));
  R.add("serve.memo_hit_ratio", Hits + Misses ? Hits / (Hits + Misses) : 0,
        "ratio");
  ServeCacheStats CS = L.Server->cacheStats();
  R.add("serve.evictions", double(CS.Evictions), "count");
  R.add("serve.resident_mb", double(CS.ResidentBytes) / (1024.0 * 1024.0),
        "MiB");
  R.add("trace.coverage", LatSum > 0 ? ComputeSum / LatSum : 0, "ratio",
        Requests);
  R.add("trace.overhead", median(allLatencies(B)) / median(allLatencies(A)) - 1,
        "ratio", Requests);
  if (!C.TraceOut.empty()) {
    std::vector<const Tracer *> Ptrs;
    for (const Tracer &T : Tracers)
      Ptrs.push_back(&T);
    if (!writeChromeTrace(C.TraceOut, Ptrs))
      R.fail("trace: cannot write " + C.TraceOut);
  }
  for (size_t I = 0; I != A.size(); ++I)
    A[I].Samples.insert(A[I].Samples.end(), B[I].Samples.begin(),
                        B[I].Samples.end());
  return A;
}

} // namespace

std::string serveInputs(const Config &C) {
  std::string Out;
  for (unsigned I = 0; I != Clients; ++I) {
    Client Cl(I, C.Seed, serveOptions());
    for (const Request &Q : Cl.primeRequests())
      Out += Q.Line + "\n";
    for (unsigned K = 0; K != 100; ++K)
      Out += Cl.next().Line + "\n";
  }
  return Out;
}

RunResult runServeWorkload(const Config &C) {
  RunResult R;
  double SetupS = 0;
  Live L = setUp(C, R, SetupS);
  std::vector<ClientRun> Runs =
      C.Trace ? tracedRun(C, L, R) : untracedRun(C, L, R);
  L.Server->drain();
  R.add("setup_s", SetupS, "s", SetupRepeats);
  // Read before verifyLints, which re-lints on every CPU.
  R.add("peak_rss_mb", peakRssMb(), "MiB");
  verifyLints(C, Runs, R);
  return R;
}

} // namespace perfbench

//===- tests/serve/ServerTest.cpp - AnalysisServer contract ---------------===//
//
// In-process tests of the daemon's request engine: bit-identical lint
// renders against the single-shot pipeline, cold/warm analyze reruns,
// memoized response replay, admission control (payload cap, queue
// shedding), budget clamping, fault containment behind the
// serve.request failpoint, request deadlines answered by the request's
// own worker, and shutdown draining. Every submit() must resolve to
// exactly one well-formed response line -- the helpers here block on
// that promise.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "lint/LintEngine.h"
#include "lint/Render.h"
#include "support/FailPoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <sstream>
#include <thread>

using namespace ardf;
using namespace ardf::serve;

namespace {

const char *GoodSource = "do i = 1, 10 {\n"
                         "  A[i] = B[i] + 1;\n"
                         "  C[i] = A[i];\n"
                         "}\n";

/// Submits one line; the future resolves with its (exactly-once)
/// response.
std::future<std::string> submitLine(AnalysisServer &S,
                                    const std::string &Line) {
  auto P = std::make_shared<std::promise<std::string>>();
  std::future<std::string> F = P->get_future();
  S.submit(Line, [P](std::string R) { P->set_value(std::move(R)); });
  return F;
}

/// Submits one line and blocks until its (exactly-once) response.
std::string call(AnalysisServer &S, const std::string &Line,
                 uint64_t TimeoutMs = 30000) {
  std::future<std::string> F = submitLine(S, Line);
  EXPECT_EQ(F.wait_for(std::chrono::milliseconds(TimeoutMs)),
            std::future_status::ready)
      << "no response within " << TimeoutMs << "ms for: " << Line;
  return F.get();
}

/// Parses a response line; fails the test if it is not valid JSON.
json::Value parsed(const std::string &Line) {
  json::ParseOutcome O = json::parse(Line);
  EXPECT_TRUE(O.Ok) << Line << " -> " << O.Error;
  return O.V;
}

bool isOk(const json::Value &Resp) {
  const json::Value *Ok = Resp.find("ok");
  return Ok && Ok->isBool() && Ok->boolValue();
}

std::string errorCode(const json::Value &Resp) {
  const json::Value *E = Resp.find("error");
  if (!E)
    return "";
  const json::Value *C = E->find("code");
  return C ? C->stringValue() : "";
}

/// JSON-encodes a source string into a lint request line.
std::string lintLine(const std::string &Source, const std::string &File,
                     int Id, const std::string &Extra = "") {
  std::string Line = "{\"method\":\"lint\",\"id\":" + std::to_string(Id) +
                     ",\"file\":";
  json::appendQuoted(Line, File);
  Line += ",\"source\":";
  json::appendQuoted(Line, Source);
  Line += Extra;
  Line += "}";
  return Line;
}

std::string analyzeLine(const std::string &Source, const std::string &File,
                        int Id, const std::string &Extra = "") {
  std::string Line = "{\"method\":\"analyze\",\"id\":" + std::to_string(Id) +
                     ",\"file\":";
  json::appendQuoted(Line, File);
  Line += ",\"source\":";
  json::appendQuoted(Line, Source);
  Line += Extra;
  Line += "}";
  return Line;
}

/// The single-shot reference pipeline the daemon's "render" member must
/// match byte for byte (same options the server derives for a default
/// request under \p ServerOpts).
std::string referenceRender(const std::string &Source,
                            const std::string &File,
                            const ServeOptions &ServerOpts) {
  LintOptions LO;
  LO.Budget = ServerOpts.Budget;
  LintResult LR = lintSource(Source, File, LO);
  std::ostringstream OS;
  renderJsonLines(OS, LR.Diags);
  return OS.str();
}

/// Threads of this process: the entries of /proc/self/task.
size_t threadCount() {
  size_t N = 0;
  for (const auto &Task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)Task;
    ++N;
  }
  return N;
}

} // namespace

TEST(ServerTest, LintRenderIsBitIdenticalToSingleShot) {
  ServeOptions Opts;
  AnalysisServer S(Opts);
  json::Value Resp = parsed(call(S, lintLine(GoodSource, "t.arf", 1)));
  ASSERT_TRUE(isOk(Resp)) << Resp.toString();
  EXPECT_EQ(Resp.find("id")->intValue(), 1);
  const json::Value *Render = Resp.find("result")->find("render");
  ASSERT_NE(Render, nullptr);
  EXPECT_EQ(Render->stringValue(),
            referenceRender(GoodSource, "t.arf", Opts));
}

TEST(ServerTest, AnalyzeColdThenWarmRerun) {
  AnalysisServer S;
  json::Value Cold =
      parsed(call(S, analyzeLine(GoodSource, "doc.arf", 1)));
  ASSERT_TRUE(isOk(Cold)) << Cold.toString();
  const json::Value *R1 = Cold.find("result");
  EXPECT_FALSE(R1->find("warm")->boolValue());
  EXPECT_GE(R1->find("ok")->intValue(), 1);

  // Identical text: the response memo replays the first answer's exact
  // result bytes (so "warm" still reads false -- the replay IS the
  // cold response) and the cache-hit counter proves no re-analysis.
  json::Value Same =
      parsed(call(S, analyzeLine(GoodSource, "doc.arf", 2)));
  ASSERT_TRUE(isOk(Same)) << Same.toString();
  EXPECT_GE(S.telemetry().get(telem::Counter::ServeCacheHits), 1u);

  // A one-loop edit reruns through the structural diff.
  std::string Edited = std::string(GoodSource) +
                       "do j = 1, 8 {\n  D[j] = D[j];\n}\n";
  json::Value Warm =
      parsed(call(S, analyzeLine(Edited, "doc.arf", 3)));
  ASSERT_TRUE(isOk(Warm)) << Warm.toString();
  const json::Value *R3 = Warm.find("result");
  EXPECT_TRUE(R3->find("warm")->boolValue());
  EXPECT_GE(R3->find("reanalyzed")->intValue(), 1);
  EXPECT_GE(S.telemetry().get(telem::Counter::ServeReruns), 1u);
}

TEST(ServerTest, MemoizedResponseReplaysIdenticalBytes) {
  AnalysisServer S;
  std::string First = call(S, lintLine(GoodSource, "memo.arf", 9));
  std::string Second = call(S, lintLine(GoodSource, "memo.arf", 9));
  EXPECT_EQ(First, Second);
  EXPECT_GE(S.telemetry().get(telem::Counter::ServeCacheHits), 1u);
  // A different id replays the memoized result under the new id.
  json::Value Other = parsed(call(S, lintLine(GoodSource, "memo.arf", 10)));
  EXPECT_EQ(Other.find("id")->intValue(), 10);
  EXPECT_TRUE(isOk(Other));
}

TEST(ServerTest, RequestBudgetTightensButNeverLoosens) {
  // The server's ceiling is a starvation budget; a request asking for a
  // huge allowance must still degrade under the server's clamp.
  ServeOptions Opts;
  Opts.Budget.MaxNodeVisits = 1;
  AnalysisServer S(Opts);
  json::Value Resp = parsed(call(
      S, analyzeLine(GoodSource, "b.arf", 1,
                     ",\"budget\":{\"visits\":1000000000}")));
  ASSERT_TRUE(isOk(Resp)) << Resp.toString();
  EXPECT_GE(Resp.find("result")->find("degraded")->intValue(), 1)
      << Resp.toString();
}

TEST(ServerTest, ServerEngineServesRequestsThatNameNone) {
  // ardf-serve --engine=packed: a request without "engine" runs on the
  // server's engine; an explicit "engine" still wins.
  ServeOptions Opts;
  Opts.Engine = SolverOptions::Engine::PackedKernel;
  AnalysisServer S(Opts);
  json::Value Default = parsed(call(S, analyzeLine(GoodSource, "e.arf", 1)));
  ASSERT_TRUE(isOk(Default)) << Default.toString();
  EXPECT_EQ(Default.find("result")->find("engine")->stringValue(), "packed");
  json::Value Named = parsed(call(
      S, analyzeLine(GoodSource, "e.arf", 2, ",\"engine\":\"reference\"")));
  ASSERT_TRUE(isOk(Named)) << Named.toString();
  EXPECT_EQ(Named.find("result")->find("engine")->stringValue(),
            "reference");
}

TEST(ServerTest, OversizedPayloadRefusedBeforeParsing) {
  ServeOptions Opts;
  Opts.MaxRequestBytes = 64;
  AnalysisServer S(Opts);
  std::string Huge = lintLine(std::string(4096, 'x'), "big.arf", 1);
  json::Value Resp = parsed(call(S, Huge));
  EXPECT_FALSE(isOk(Resp));
  EXPECT_EQ(errorCode(Resp), "payload-too-large");
  // A fitting request still works afterwards.
  EXPECT_TRUE(isOk(parsed(call(S, "{\"method\":\"stats\"}"))));
}

TEST(ServerTest, FullQueueShedsWithOverloaded) {
  // One worker wedged on a stall; queue depth 1. The first extra
  // request queues, the second is shed immediately with overloaded.
  failpoint::ScopedFailPoint Stall("serve.request", failpoint::Action::Stall,
                                   1, 400);
  ServeOptions Opts;
  Opts.Workers = 1;
  Opts.QueueDepth = 1;
  Opts.RequestDeadlineMs = 0; // the stalled request must still answer ok
  AnalysisServer S(Opts);

  auto Blocker = std::make_shared<std::promise<std::string>>();
  std::future<std::string> BlockerF = Blocker->get_future();
  S.submit("{\"method\":\"stats\",\"id\":1}",
           [Blocker](std::string R) { Blocker->set_value(std::move(R)); });
  // Give the worker a moment to pick the stalled request up.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  auto Queued = std::make_shared<std::promise<std::string>>();
  std::future<std::string> QueuedF = Queued->get_future();
  S.submit("{\"method\":\"stats\",\"id\":2}",
           [Queued](std::string R) { Queued->set_value(std::move(R)); });

  json::Value Shed = parsed(call(S, "{\"method\":\"stats\",\"id\":3}", 1000));
  EXPECT_FALSE(isOk(Shed));
  EXPECT_EQ(errorCode(Shed), "overloaded");
  EXPECT_GE(S.telemetry().get(telem::Counter::ServeOverloads), 1u);

  // Once the stall clears, both held requests answer normally.
  EXPECT_TRUE(isOk(parsed(BlockerF.get())));
  EXPECT_TRUE(isOk(parsed(QueuedF.get())));
}

TEST(ServerTest, ThrowingRequestIsContained) {
  failpoint::ScopedFailPoint Throw("serve.request",
                                   failpoint::Action::Throw, 1);
  AnalysisServer S;
  json::Value Resp = parsed(call(S, lintLine(GoodSource, "t.arf", 1)));
  EXPECT_FALSE(isOk(Resp));
  EXPECT_EQ(errorCode(Resp), "internal");
  // The worker survived the exception; the next request is served.
  EXPECT_TRUE(isOk(parsed(call(S, lintLine(GoodSource, "t.arf", 2)))));
}

TEST(ServerTest, SessionFailpointShedsDocumentCreation) {
  failpoint::ScopedFailPoint Breach("serve.session",
                                    failpoint::Action::Breach, 1);
  AnalysisServer S;
  json::Value Resp = parsed(call(S, lintLine(GoodSource, "s.arf", 1)));
  EXPECT_FALSE(isOk(Resp));
  EXPECT_EQ(errorCode(Resp), "overloaded");
  EXPECT_TRUE(isOk(parsed(call(S, lintLine(GoodSource, "s.arf", 2)))));
}

TEST(ServerTest, StalledRequestAnswersItsOwnDeadline) {
  // A stall past the deadline: the stalled request's own worker answers
  // deadline once the stall returns, and then serves the next request.
  failpoint::ScopedFailPoint Stall("serve.request", failpoint::Action::Stall,
                                   1, 300);
  ServeOptions Opts;
  Opts.RequestDeadlineMs = 100;
  AnalysisServer S(Opts);
  json::Value Resp = parsed(call(S, "{\"method\":\"stats\",\"id\":1}", 5000));
  EXPECT_FALSE(isOk(Resp));
  EXPECT_EQ(errorCode(Resp), "deadline");
  EXPECT_EQ(Resp.find("id")->intValue(), 1);
  EXPECT_EQ(S.telemetry().get(telem::Counter::ServeDeadlines), 1u);
  EXPECT_TRUE(isOk(parsed(call(S, "{\"method\":\"stats\",\"id\":2}"))));
}

TEST(ServerTest, StalledDocumentNeverGrowsThePool) {
  // One worker stalls 600 ms on a fresh document while holding its
  // mutex, six times the deadline, and a client retries the same
  // document in a closed loop. No thread is added, replaced or left
  // behind: the process never runs more threads than it had before plus
  // the workers, the stalled request answers deadline itself, and every
  // retry is answered.
  failpoint::ScopedFailPoint Stall("serve.session", failpoint::Action::Stall,
                                   1, 600);
  const size_t Before = threadCount();
  ServeOptions Opts;
  Opts.Workers = 1;
  Opts.RequestDeadlineMs = 100;
  size_t MaxThreads = 0;
  {
    AnalysisServer S(Opts);
    std::future<std::string> Stalled =
        submitLine(S, analyzeLine(GoodSource, "wedge.arf", 1));
    const auto Start = std::chrono::steady_clock::now();
    int Id = 2;
    do {
      std::future<std::string> Retry =
          submitLine(S, analyzeLine(GoodSource, "wedge.arf", Id++));
      const auto GiveUp =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      MaxThreads = std::max(MaxThreads, threadCount());
      while (Retry.wait_for(std::chrono::milliseconds(5)) !=
                 std::future_status::ready &&
             std::chrono::steady_clock::now() < GiveUp)
        MaxThreads = std::max(MaxThreads, threadCount());
      ASSERT_EQ(Retry.wait_for(std::chrono::seconds(0)),
                std::future_status::ready)
          << "retry " << Id - 1 << " was never answered";
      json::Value Reply = parsed(Retry.get());
      EXPECT_TRUE(isOk(Reply) || errorCode(Reply) == "deadline")
          << Reply.toString();
    } while (std::chrono::steady_clock::now() - Start <
             std::chrono::milliseconds(500));
    json::Value First = parsed(Stalled.get());
    EXPECT_EQ(errorCode(First), "deadline") << First.toString();
    EXPECT_GE(S.telemetry().get(telem::Counter::ServeDeadlines), 1u);
  }
  EXPECT_LE(MaxThreads, Before + Opts.Workers);
  EXPECT_EQ(threadCount(), Before) << "a thread outlived the server";
}

TEST(ServerTest, WaitForAStalledDocumentEndsAtTheDeadline) {
  // Worker one stalls 600 ms on a.arf while holding its mutex. A
  // follow-up to a.arf waits for that mutex only until its 100 ms
  // deadline and answers deadline, which frees worker two for a lint of
  // b.arf: that lint is answered ok while the stall still runs.
  failpoint::ScopedFailPoint Stall("serve.session", failpoint::Action::Stall,
                                   1, 600);
  ServeOptions Opts;
  Opts.Workers = 2;
  Opts.RequestDeadlineMs = 100;
  AnalysisServer S(Opts);
  std::future<std::string> Stalled =
      submitLine(S, analyzeLine(GoodSource, "a.arf", 1));
  // Let worker one take the document and enter the stall.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::future<std::string> FollowUp =
      submitLine(S, analyzeLine(GoodSource, "a.arf", 2));
  std::future<std::string> Other =
      submitLine(S, lintLine(GoodSource, "b.arf", 3));
  ASSERT_EQ(Other.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(Stalled.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "b.arf waited for the stall on a.arf";
  json::Value OtherReply = parsed(Other.get());
  EXPECT_TRUE(isOk(OtherReply)) << OtherReply.toString();
  json::Value FollowUpReply = parsed(FollowUp.get());
  EXPECT_EQ(errorCode(FollowUpReply), "deadline") << FollowUpReply.toString();
  EXPECT_EQ(errorCode(parsed(Stalled.get())), "deadline");
  EXPECT_EQ(S.telemetry().get(telem::Counter::ServeDeadlines), 2u);
  // Neither deadline reply was memoized: a.arf now analyzes ok.
  json::Value Again = parsed(call(S, analyzeLine(GoodSource, "a.arf", 4)));
  EXPECT_TRUE(isOk(Again)) << Again.toString();
}

TEST(ServerTest, StatsDuringAStalledDocumentHoldsUpNoRequest) {
  // Worker one stalls 1.5 s on a.arf while holding its mutex. A stats
  // request reads every document's retained size without that mutex, so
  // it answers at once and does not hold the cache mutex while it waits;
  // a lint of b.arf sent after it is answered too, both while the stall
  // still runs. The stall is long enough for this under TSan.
  failpoint::ScopedFailPoint Stall("serve.session", failpoint::Action::Stall,
                                   1, 1500);
  ServeOptions Opts;
  Opts.Workers = 3;
  Opts.RequestDeadlineMs = 10000;
  AnalysisServer S(Opts);
  std::future<std::string> Stalled =
      submitLine(S, analyzeLine(GoodSource, "a.arf", 1));
  // Let worker one take the document and enter the stall.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::future<std::string> Stats =
      submitLine(S, "{\"method\":\"stats\",\"id\":2}");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::future<std::string> Other =
      submitLine(S, lintLine(GoodSource, "b.arf", 3));
  ASSERT_EQ(Stats.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  ASSERT_EQ(Other.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(Stalled.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "stats or b.arf waited for the stall on a.arf";
  json::Value StatsReply = parsed(Stats.get());
  ASSERT_TRUE(isOk(StatsReply)) << StatsReply.toString();
  EXPECT_GE(StatsReply.find("result")->find("cache")->find("documents")
                ->intValue(),
            1);
  json::Value OtherReply = parsed(Other.get());
  EXPECT_TRUE(isOk(OtherReply)) << OtherReply.toString();
  EXPECT_TRUE(isOk(parsed(Stalled.get())));
}

TEST(ServerTest, LintAndAnalyzeStopAtTheirDeadline) {
  // A lint stalled in its second check and an analyze stalled in its
  // first loop both overrun a 50 ms deadline: each stops at its next
  // check, solver pass or loop boundary and answers deadline.
  ServeOptions Opts;
  Opts.RequestDeadlineMs = 50;
  AnalysisServer S(Opts);
  {
    failpoint::ScopedFailPoint Stall("lint.check", failpoint::Action::Stall,
                                     2, 200);
    json::Value Lint = parsed(call(S, lintLine(GoodSource, "late.arf", 1)));
    EXPECT_EQ(errorCode(Lint), "deadline") << Lint.toString();
  }
  {
    failpoint::ScopedFailPoint Stall("driver.loop", failpoint::Action::Stall,
                                     1, 200);
    json::Value Analyze =
        parsed(call(S, analyzeLine(GoodSource, "late.arf", 2)));
    EXPECT_EQ(errorCode(Analyze), "deadline") << Analyze.toString();
  }
  EXPECT_EQ(S.telemetry().get(telem::Counter::ServeDeadlines), 2u);
  // The interrupted analyze left no driver warm: the same text analyzes
  // cold, and neither deadline reply was memoized.
  json::Value Again = parsed(call(S, analyzeLine(GoodSource, "late.arf", 3)));
  ASSERT_TRUE(isOk(Again)) << Again.toString();
  EXPECT_FALSE(Again.find("result")->find("warm")->boolValue());
  EXPECT_EQ(Again.find("result")->find("failed")->intValue(), 0);
  json::Value Lint = parsed(call(S, lintLine(GoodSource, "late.arf", 4)));
  ASSERT_TRUE(isOk(Lint)) << Lint.toString();
  EXPECT_EQ(Lint.find("result")->find("render")->stringValue(),
            referenceRender(GoodSource, "late.arf", Opts));
  EXPECT_EQ(S.telemetry().get(telem::Counter::ServeCacheHits), 0u);
}

TEST(ServerTest, EverySlackKeysItsOwnMemo) {
  // A slack of 1e-7 starves every solve, so its lint degrades. It must
  // not replay the plain lint's memoized reply for the same text, or
  // the reverse: the memo keys on the slack's exact value.
  const std::string Starved = ",\"budget\":{\"slack\":1e-7}";
  json::Value Fresh;
  {
    AnalysisServer S;
    Fresh = parsed(call(S, lintLine(GoodSource, "slack.arf", 1, Starved)));
  }
  ASSERT_TRUE(isOk(Fresh)) << Fresh.toString();
  EXPECT_GE(Fresh.find("result")->find("degraded")->intValue(), 1);

  AnalysisServer S;
  json::Value Plain = parsed(call(S, lintLine(GoodSource, "slack.arf", 1)));
  ASSERT_TRUE(isOk(Plain)) << Plain.toString();
  EXPECT_EQ(Plain.find("result")->find("degraded")->intValue(), 0);
  json::Value After =
      parsed(call(S, lintLine(GoodSource, "slack.arf", 1, Starved)));
  EXPECT_EQ(After.toString(), Fresh.toString());
  EXPECT_EQ(S.telemetry().get(telem::Counter::ServeCacheHits), 0u);
}

TEST(ServerTest, RequestIsCountedBeforeItsReply) {
  // A client that reads the counters as soon as its reply arrives must
  // find its own request counted: the server counts, then replies.
  ServeOptions Opts;
  Opts.MaxRequestBytes = 64;
  AnalysisServer S(Opts);
  auto CountAtReply = [&S](const std::string &Line, telem::Counter C) {
    auto P = std::make_shared<std::promise<uint64_t>>();
    std::future<uint64_t> F = P->get_future();
    S.submit(Line, [&S, P, C](std::string) {
      P->set_value(S.telemetry().get(C));
    });
    EXPECT_EQ(F.wait_for(std::chrono::seconds(30)), std::future_status::ready)
        << Line;
    return F.get();
  };
  for (uint64_t Id = 1; Id <= 20; ++Id)
    EXPECT_EQ(CountAtReply("{\"method\":\"stats\",\"id\":" +
                               std::to_string(Id) + "}",
                           telem::Counter::ServeOk),
              Id);
  // Refused on admission, on the submitting thread.
  std::string Huge = lintLine(std::string(4096, 'x'), "big.arf", 1);
  EXPECT_EQ(CountAtReply(Huge, telem::Counter::ServeErrors), 1u);
  S.requestShutdown();
  EXPECT_EQ(CountAtReply("{\"method\":\"stats\"}", telem::Counter::ServeErrors),
            2u);
}

TEST(ServerTest, ShutdownMethodDrainsAndShedsFollowups) {
  AnalysisServer S;
  json::Value Resp = parsed(call(S, "{\"method\":\"shutdown\",\"id\":1}"));
  ASSERT_TRUE(isOk(Resp)) << Resp.toString();
  EXPECT_TRUE(Resp.find("result")->find("shutting_down")->boolValue());
  EXPECT_TRUE(S.shutdownRequested());
  json::Value After = parsed(call(S, "{\"method\":\"stats\",\"id\":2}"));
  EXPECT_FALSE(isOk(After));
  EXPECT_EQ(errorCode(After), "shutting-down");
}

TEST(ServerTest, ParseBombIsAnsweredNotFatal) {
  AnalysisServer S;
  // 300 unclosed loops: the frontend's own depth cap contains it; the
  // daemon answers ok with parse-error diagnostics.
  std::string Bomb;
  for (int I = 0; I != 300; ++I)
    Bomb += "do i = 1, 10 {\n";
  json::Value Resp = parsed(call(S, lintLine(Bomb, "bomb.arf", 1), 60000));
  ASSERT_TRUE(isOk(Resp)) << Resp.toString();
  EXPECT_GE(Resp.find("result")->find("errors")->intValue(), 1);
  // An analyze of the same bomb is a bad-request (no partial program to
  // drive), with the parse diagnostics in the message.
  json::Value A = parsed(call(S, analyzeLine(Bomb, "bomb.arf", 2), 60000));
  EXPECT_FALSE(isOk(A));
  EXPECT_EQ(errorCode(A), "bad-request");
  // And the daemon still serves.
  EXPECT_TRUE(isOk(parsed(call(S, lintLine(GoodSource, "bomb.arf", 3)))));
}

TEST(ServerTest, StatsReportsCountersCacheAndLatency) {
  AnalysisServer S;
  call(S, lintLine(GoodSource, "a.arf", 1));
  call(S, "this is not json");
  json::Value Resp = parsed(call(S, "{\"method\":\"stats\",\"id\":7}"));
  ASSERT_TRUE(isOk(Resp)) << Resp.toString();
  const json::Value *R = Resp.find("result");
  const json::Value *Counters = R->find("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_GE(Counters->find("serve.requests")->intValue(), 3);
  EXPECT_GE(Counters->find("serve.errors")->intValue(), 1);
  const json::Value *CacheO = R->find("cache");
  ASSERT_NE(CacheO, nullptr);
  EXPECT_GE(CacheO->find("documents")->intValue(), 1);
  const json::Value *H = R->find("request_ns");
  ASSERT_NE(H, nullptr);
  EXPECT_GE(H->find("count")->intValue(), 2);
  EXPECT_GT(H->find("p50_ns")->intValue(), 0);
}

TEST(ServerTest, TenantQuotaEvictsOnlyThatTenant) {
  ServeOptions Opts;
  Opts.TenantQuota = 2;
  AnalysisServer S(Opts);
  // Tenant "noisy" streams unique files past its quota; tenant "quiet"
  // keeps one warm document.
  std::string Quiet =
      "{\"method\":\"analyze\",\"tenant\":\"quiet\",\"file\":\"q.arf\","
      "\"source\":";
  json::appendQuoted(Quiet, GoodSource);
  Quiet += "}";
  EXPECT_TRUE(isOk(parsed(call(S, Quiet))));
  for (int I = 0; I != 6; ++I) {
    std::string Line =
        "{\"method\":\"lint\",\"tenant\":\"noisy\",\"file\":\"f" +
        std::to_string(I) + ".arf\",\"source\":";
    json::appendQuoted(Line, GoodSource);
    Line += "}";
    EXPECT_TRUE(isOk(parsed(call(S, Line))));
  }
  ServeCacheStats CS = S.cacheStats();
  EXPECT_EQ(CS.Tenants, 2u);
  EXPECT_EQ(CS.Documents, 3u) << "noisy clamped to 2 + quiet's 1";
  EXPECT_GE(CS.Evictions, 4u);
  // quiet's document survived the noisy tenant's thrash: the identical
  // request replays from its response memo (a cache hit), which only
  // exists if the document was never evicted.
  uint64_t HitsBefore = S.telemetry().get(telem::Counter::ServeCacheHits);
  json::Value Again = parsed(call(S, Quiet));
  ASSERT_TRUE(isOk(Again)) << Again.toString();
  EXPECT_GT(S.telemetry().get(telem::Counter::ServeCacheHits), HitsBefore);
}

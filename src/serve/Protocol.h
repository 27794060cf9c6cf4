//===- serve/Protocol.h - ardf-serve wire protocol -------------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The newline-delimited JSON protocol of ardf-serve, shared by the
/// daemon, the bundled client, the fuzzer, and the tests. One request
/// per line, one response line per request, over stdio or a Unix
/// socket:
///
/// \code
///   request  := { "method": "analyze"|"lint"|"explain"|"stats"
///                           |"shutdown",
///                 "id"?: any,            // echoed verbatim
///                 "tenant"?: string,     // cache partition ("default")
///                 "file"?: string,       // artifact name for diagnostics
///                 "source"?: string,     // .arf program text
///                 "engine"?: string,     // reference|packed (server's)
///                 "cross_check"?: bool, "nested"?: bool,
///                 "explain_check"?: string, // an explainable check id
///                 "budget"?: { "visits"?: int, "slack"?: number,
///                              "deadline_ms"?: int, "cells"?: int } }
///   response := { "id": any, "ok": true,  "result": object }
///             | { "id": any, "ok": false,
///                 "error": { "code": string, "message": string } }
/// \endcode
///
/// Error codes are a closed set (ErrorCode): clients can dispatch on
/// them without parsing messages. Parsing is total: any malformed line
/// becomes a bad-request error response, never an exception.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_SERVE_PROTOCOL_H
#define ARDF_SERVE_PROTOCOL_H

#include "dataflow/Framework.h"
#include "serve/Json.h"

#include <string>

namespace ardf {
namespace serve {

/// The five request methods.
enum class Method : uint8_t { Analyze, Lint, Explain, Stats, Shutdown };

const char *methodName(Method M);

/// The closed error-code set of the protocol.
enum class ErrorCode : uint8_t {
  BadRequest,      ///< malformed JSON or invalid/missing fields
  PayloadTooLarge, ///< request line exceeded the admission byte cap
  Overloaded,      ///< bounded queue full; request shed, retry later
  Deadline,        ///< request exceeded its wall-clock deadline
  Internal,        ///< fault contained by the request boundary
  ShuttingDown,    ///< daemon is draining; no new work admitted
};

const char *errorCodeName(ErrorCode C);

/// One parsed, validated request.
struct Request {
  Method M = Method::Stats;

  /// The request's "id" member, echoed verbatim into the response
  /// (null when absent -- fire-and-forget clients still get a line).
  json::Value Id;

  /// Cache partition; every tenant has its own LRU quota.
  std::string Tenant = "default";

  /// Artifact name stamped into diagnostics (and the incremental-diff
  /// key: edits arrive as new sources under the same tenant+file).
  std::string File = "<request>";

  /// Program text (analyze/lint/explain).
  std::string Source;

  /// The request's "engine", or parseRequest's default when it names
  /// none.
  SolverOptions::Engine Engine = SolverOptions::Engine::Reference;
  bool CrossCheck = true;
  bool IncludeNested = true;
  std::string ExplainCheck;

  /// Request-level ceilings; the server clamps them against its own
  /// (a tenant may tighten its budget, never loosen the server's).
  SolverBudget Budget;
};

/// Outcome of parseRequest: Ok with a Request, or an error message for
/// a BadRequest response. Id carries whatever id could be recovered
/// from the line (so even malformed requests echo one when possible).
struct ParsedRequest {
  bool Ok = false;
  Request R;
  std::string Error;
  json::Value Id;
};

/// Parses and validates one request line. Total: never throws. A
/// request that names no engine gets \p DefaultEngine (the server's).
ParsedRequest parseRequest(
    const std::string &Line,
    SolverOptions::Engine DefaultEngine = SolverOptions::Engine::Reference);

/// Builds the ok-response line (no trailing newline).
std::string okResponse(const json::Value &Id, json::Value Result);

/// Builds the error-response line (no trailing newline).
std::string errorResponse(const json::Value &Id, ErrorCode Code,
                          const std::string &Message);

} // namespace serve
} // namespace ardf

#endif // ARDF_SERVE_PROTOCOL_H

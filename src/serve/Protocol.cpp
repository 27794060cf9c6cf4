//===- serve/Protocol.cpp - ardf-serve wire protocol ----------------------===//

#include "serve/Protocol.h"

#include "lint/Render.h"

#include <cmath>
#include <limits>

using namespace ardf;
using namespace ardf::serve;

const char *serve::methodName(Method M) {
  switch (M) {
  case Method::Analyze:
    return "analyze";
  case Method::Lint:
    return "lint";
  case Method::Explain:
    return "explain";
  case Method::Stats:
    return "stats";
  case Method::Shutdown:
    return "shutdown";
  }
  return "unknown";
}

const char *serve::errorCodeName(ErrorCode C) {
  switch (C) {
  case ErrorCode::BadRequest:
    return "bad-request";
  case ErrorCode::PayloadTooLarge:
    return "payload-too-large";
  case ErrorCode::Overloaded:
    return "overloaded";
  case ErrorCode::Deadline:
    return "deadline";
  case ErrorCode::Internal:
    return "internal";
  case ErrorCode::ShuttingDown:
    return "shutting-down";
  }
  return "unknown";
}

namespace {

bool parseMethod(const std::string &Name, Method &Out) {
  if (Name == "analyze")
    Out = Method::Analyze;
  else if (Name == "lint")
    Out = Method::Lint;
  else if (Name == "explain")
    Out = Method::Explain;
  else if (Name == "stats")
    Out = Method::Stats;
  else if (Name == "shutdown")
    Out = Method::Shutdown;
  else
    return false;
  return true;
}

/// Reads an optional member of \p Kind; false (with \p Err set) when
/// present with the wrong kind.
bool readString(const json::Value &O, const char *Key, std::string &Out,
                std::string &Err) {
  const json::Value *V = O.find(Key);
  if (!V)
    return true;
  if (!V->isString()) {
    Err = std::string("'") + Key + "' must be a string";
    return false;
  }
  Out = V->stringValue();
  return true;
}

bool readBool(const json::Value &O, const char *Key, bool &Out,
              std::string &Err) {
  const json::Value *V = O.find(Key);
  if (!V)
    return true;
  if (!V->isBool()) {
    Err = std::string("'") + Key + "' must be a boolean";
    return false;
  }
  Out = V->boolValue();
  return true;
}

bool readUint(const json::Value &O, const char *Key, uint64_t &Out,
              std::string &Err) {
  const json::Value *V = O.find(Key);
  if (!V)
    return true;
  if (!V->isInt() || V->intValue() < 0) {
    Err = std::string("'") + Key + "' must be a non-negative integer";
    return false;
  }
  Out = static_cast<uint64_t>(V->intValue());
  return true;
}

} // namespace

ParsedRequest serve::parseRequest(const std::string &Line,
                                  SolverOptions::Engine DefaultEngine) {
  ParsedRequest P;
  json::ParseOutcome J = json::parse(Line);
  if (!J.Ok) {
    P.Error = "malformed JSON at byte " + std::to_string(J.ErrorAt) + ": " +
              J.Error;
    return P;
  }
  if (!J.V.isObject()) {
    P.Error = "request must be a JSON object";
    return P;
  }
  if (const json::Value *Id = J.V.find("id"))
    P.Id = *Id;

  const json::Value *MethodV = J.V.find("method");
  if (!MethodV || !MethodV->isString()) {
    P.Error = "missing 'method' string";
    return P;
  }
  Request &R = P.R;
  R.Id = P.Id;
  R.Engine = DefaultEngine;
  if (!parseMethod(MethodV->stringValue(), R.M)) {
    P.Error = "unknown method '" + MethodV->stringValue() +
              "' (expected analyze, lint, explain, stats, or shutdown)";
    return P;
  }

  std::string Err;
  std::string EngineName;
  if (!readString(J.V, "tenant", R.Tenant, Err) ||
      !readString(J.V, "file", R.File, Err) ||
      !readString(J.V, "source", R.Source, Err) ||
      !readString(J.V, "engine", EngineName, Err) ||
      !readString(J.V, "explain_check", R.ExplainCheck, Err) ||
      !readBool(J.V, "cross_check", R.CrossCheck, Err) ||
      !readBool(J.V, "nested", R.IncludeNested, Err)) {
    P.Error = Err;
    return P;
  }
  if (R.Tenant.empty()) {
    P.Error = "'tenant' must be non-empty";
    return P;
  }
  if (!EngineName.empty() && !parseEngineName(EngineName, R.Engine)) {
    P.Error = "unknown engine '" + EngineName + "' (expected one of: " +
              engineNameList() + ")";
    return P;
  }
  if (!R.ExplainCheck.empty() && !isExplainableCheck(R.ExplainCheck)) {
    P.Error = "unknown explain_check '" + R.ExplainCheck +
              "' (expected one of: " + explainableCheckList() + ")";
    return P;
  }
  if (const json::Value *B = J.V.find("budget")) {
    if (!B->isObject()) {
      P.Error = "'budget' must be an object";
      return P;
    }
    uint64_t Visits = 0, DeadlineMs = 0, Cells = 0;
    if (!readUint(*B, "visits", Visits, Err) ||
        !readUint(*B, "deadline_ms", DeadlineMs, Err) ||
        !readUint(*B, "cells", Cells, Err)) {
      P.Error = Err;
      return P;
    }
    if (const json::Value *Slack = B->find("slack")) {
      if (!Slack->isNumber() || !std::isfinite(Slack->doubleValue()) ||
          Slack->doubleValue() < 0.0) {
        P.Error = "'slack' must be a finite non-negative number";
        return P;
      }
      R.Budget.VisitSlack = Slack->doubleValue();
    }
    if (DeadlineMs > std::numeric_limits<uint64_t>::max() / 1000000ull) {
      P.Error = "'deadline_ms' is out of range";
      return P;
    }
    R.Budget.MaxNodeVisits = Visits;
    R.Budget.DeadlineNs = DeadlineMs * 1000000ull;
    R.Budget.MaxMatrixCells = Cells;
  }

  bool NeedsSource = R.M == Method::Analyze || R.M == Method::Lint ||
                     R.M == Method::Explain;
  if (NeedsSource && !J.V.find("source")) {
    P.Error = std::string("method '") + methodName(R.M) +
              "' requires a 'source' string";
    return P;
  }

  P.Ok = true;
  return P;
}

std::string serve::okResponse(const json::Value &Id, json::Value Result) {
  std::string Out = "{\"id\":";
  Id.write(Out);
  Out += ",\"ok\":true,\"result\":";
  Result.write(Out);
  Out += "}";
  return Out;
}

std::string serve::errorResponse(const json::Value &Id, ErrorCode Code,
                                 const std::string &Message) {
  std::string Out = "{\"id\":";
  Id.write(Out);
  Out += ",\"ok\":false,\"error\":{\"code\":\"";
  Out += errorCodeName(Code);
  Out += "\",\"message\":";
  json::appendQuoted(Out, Message);
  Out += "}}";
  return Out;
}

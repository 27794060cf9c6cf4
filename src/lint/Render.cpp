//===- lint/Render.cpp - Diagnostic renderers -----------------------------===//

#include "lint/Render.h"

#include "lint/Checks.h"
#include "support/JsonEscape.h"

#include <algorithm>
#include <ostream>
#include <set>
#include <sstream>

using namespace ardf;

namespace {

/// "i/j" + {1, 0} -> "i=1, j=0"; a NoDistance level prints "?".
std::string levelDistanceList(const Diagnostic &D) {
  std::vector<std::string> Names;
  std::string Segment;
  std::istringstream Path(D.NestPath);
  while (std::getline(Path, Segment, '/'))
    Names.push_back(Segment);
  std::string Out;
  for (size_t I = 0; I != D.Levels.size(); ++I) {
    if (I)
      Out += ", ";
    Out += I < Names.size() ? Names[I] : "?";
    Out += '=';
    Out += D.Levels[I] == Diagnostic::NoDistance
               ? "?"
               : std::to_string(D.Levels[I]);
  }
  return Out;
}

} // namespace

void SourceMap::add(std::string File, std::string Text) {
  Source &S = Texts[std::move(File)];
  S.Text = std::move(Text);
  S.LineStarts.assign(1, 0);
  for (size_t Pos = S.Text.find('\n'); Pos != std::string::npos;
       Pos = S.Text.find('\n', Pos + 1))
    S.LineStarts.push_back(Pos + 1);
}

std::string SourceMap::line(const std::string &File, unsigned Line) const {
  auto It = Texts.find(File);
  if (It == Texts.end() || Line == 0 || Line > It->second.LineStarts.size())
    return std::string();
  const Source &S = It->second;
  size_t Begin = S.LineStarts[Line - 1];
  size_t End = S.Text.size();
  if (Line < S.LineStarts.size())
    End = S.LineStarts[Line] - 1;
  return S.Text.substr(Begin, End - Begin);
}

//===----------------------------------------------------------------------===//
// Human text
//===----------------------------------------------------------------------===//

void ardf::renderText(std::ostream &OS, const std::vector<Diagnostic> &Diags,
                      const SourceMap &Sources) {
  for (const Diagnostic &D : Diags) {
    OS << D.File << ':' << D.Loc.toString() << ": " << severityName(D.Severity)
       << ": [" << D.CheckId << "] " << D.Message << '\n';
    if (D.Loc.isValid()) {
      std::string Snippet = Sources.line(D.File, D.Loc.Line);
      if (!Snippet.empty()) {
        OS << "    " << Snippet << '\n';
        OS << "    " << std::string(D.Loc.Col > 0 ? D.Loc.Col - 1 : 0, ' ')
           << "^\n";
      }
    }
    if (D.hasDistance())
      OS << "  distance: " << D.Distance
         << (D.Distance == 1 ? " iteration" : " iterations") << '\n';
    if (D.hasNest()) {
      OS << "  nest: " << D.NestPath;
      if (!D.Levels.empty())
        OS << " (level distances: " << levelDistanceList(D) << ')';
      OS << '\n';
    }
    for (const RelatedLoc &R : D.Related)
      OS << "  note: " << D.File << ':' << R.Loc.toString() << ": "
         << R.Message << '\n';
    if (D.hasEvidence()) {
      // The because-trail: the chronological derivation of the solution
      // cell behind the finding, each step caret-anchored to its source
      // line (steps without a position, e.g. the final settling summary,
      // print without a snippet).
      OS << "  because:\n";
      for (size_t E = 0; E != D.Evidence.size(); ++E) {
        const RelatedLoc &Step = D.Evidence[E];
        OS << "    [" << E + 1 << "] ";
        if (Step.Loc.isValid())
          OS << D.File << ':' << Step.Loc.toString() << ": ";
        OS << Step.Message << '\n';
        if (Step.Loc.isValid()) {
          std::string Snippet = Sources.line(D.File, Step.Loc.Line);
          if (!Snippet.empty()) {
            OS << "        " << Snippet << '\n';
            OS << "        "
               << std::string(Step.Loc.Col > 0 ? Step.Loc.Col - 1 : 0, ' ')
               << "^\n";
          }
        }
      }
    }
    if (!D.FixHint.empty())
      OS << "  fix: " << D.FixHint << '\n';
  }
}

//===----------------------------------------------------------------------===//
// JSON helpers
//===----------------------------------------------------------------------===//

//===----------------------------------------------------------------------===//
// JSON lines
//===----------------------------------------------------------------------===//

void ardf::renderJsonLines(std::ostream &OS,
                           const std::vector<Diagnostic> &Diags) {
  for (const Diagnostic &D : Diags) {
    OS << "{\"check\":\"" << jsonEscape(D.CheckId) << "\",\"severity\":\""
       << severityName(D.Severity) << "\",\"file\":\"" << jsonEscape(D.File)
       << "\",\"line\":" << D.Loc.Line << ",\"col\":" << D.Loc.Col
       << ",\"message\":\"" << jsonEscape(D.Message) << '"';
    if (D.hasDistance())
      OS << ",\"distance\":" << D.Distance;
    if (D.hasNest()) {
      OS << ",\"nest\":\"" << jsonEscape(D.NestPath) << '"';
      if (!D.Levels.empty()) {
        // NoDistance levels render as -1 (distance unknown there).
        OS << ",\"levels\":[";
        for (size_t L = 0; L != D.Levels.size(); ++L)
          OS << (L ? "," : "") << D.Levels[L];
        OS << ']';
      }
    }
    if (D.StmtId != 0)
      OS << ",\"stmtId\":" << D.StmtId;
    if (!D.FixHint.empty())
      OS << ",\"fix\":\"" << jsonEscape(D.FixHint) << '"';
    if (!D.Related.empty()) {
      OS << ",\"related\":[";
      for (size_t I = 0; I != D.Related.size(); ++I) {
        const RelatedLoc &R = D.Related[I];
        OS << (I ? "," : "") << "{\"line\":" << R.Loc.Line
           << ",\"col\":" << R.Loc.Col << ",\"message\":\""
           << jsonEscape(R.Message) << "\"}";
      }
      OS << ']';
    }
    if (D.hasEvidence()) {
      OS << ",\"evidence\":[";
      for (size_t I = 0; I != D.Evidence.size(); ++I) {
        const RelatedLoc &E = D.Evidence[I];
        OS << (I ? "," : "") << "{\"line\":" << E.Loc.Line
           << ",\"col\":" << E.Loc.Col << ",\"message\":\""
           << jsonEscape(E.Message) << "\"}";
      }
      OS << ']';
      // The derivation DAG is already one compact JSON object; embed it
      // verbatim rather than re-escaping it as a string.
      if (!D.DerivationJson.empty())
        OS << ",\"derivation\":" << D.DerivationJson;
    }
    OS << "}\n";
  }
}

//===----------------------------------------------------------------------===//
// SARIF 2.1.0
//===----------------------------------------------------------------------===//

namespace {

const char *ruleDescription(const std::string &Id) {
  for (const CheckInfo &R : allChecks())
    if (Id == R.Id)
      return R.Description;
  return "";
}

} // namespace

const std::vector<CheckInfo> &ardf::allChecks() {
  static const std::vector<CheckInfo> Checks = {
      {checkid::RedundantLoad, "warning",
       "A use re-reads a value the loop already produced; the "
       "delta-available-values framework instance proves the reuse at a "
       "constant iteration distance.",
       true},
      {checkid::DeadStore, "warning",
       "A store is overwritten before any read; the delta-busy-stores "
       "framework instance proves the overwrite at a constant iteration "
       "distance.",
       true},
      {checkid::LoopCarriedReuse, "note",
       "A must-reaching definition feeds a use a constant number of "
       "iterations later; a register pipelining candidate.",
       true},
      {checkid::CrossIterationConflict, "note",
       "A may-reaching reference pair carries a dependence across "
       "iterations, constraining parallel execution.",
       true},
      {checkid::Precondition, "warning",
       "The program violates or weakens an analysis precondition of the "
       "array reference data flow framework."},
      {checkid::ParseError, "error", "The source could not be parsed."},
      {checkid::AnalysisDegraded, "warning",
       "A check's backing solve was cut short by a resource budget or an "
       "injected fault; the check was skipped rather than reporting "
       "findings from the conservative fill."},
      {checkid::AnalysisUnsupported, "warning",
       "A loop falls outside the analyzable subset (early exit, "
       "unrecognized while shape, or rewritten induction variable) and "
       "was skipped with the reason recorded."},
      {checkid::EngineDivergence, "error",
       "The reference and packed kernel solver engines disagree on a "
       "solution; internal consistency failure in ardf itself."},
  };
  return Checks;
}

bool ardf::isExplainableCheck(std::string_view Id) {
  for (const CheckInfo &C : allChecks())
    if (C.Explainable && Id == C.Id)
      return true;
  return false;
}

const std::string &ardf::explainableCheckList() {
  static const std::string List = [] {
    std::string L;
    for (const CheckInfo &C : allChecks())
      if (C.Explainable)
        L.append(L.empty() ? "" : ", ").append(C.Id);
    return L;
  }();
  return List;
}

void ardf::renderSarif(std::ostream &OS,
                       const std::vector<Diagnostic> &Diags) {
  // Rule table: every check id that fired, in sorted order.
  std::set<std::string> Fired;
  for (const Diagnostic &D : Diags)
    Fired.insert(D.CheckId);

  OS << "{\n"
     << "  \"$schema\": "
        "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"runs\": [\n"
     << "    {\n"
     << "      \"tool\": {\n"
     << "        \"driver\": {\n"
     << "          \"name\": \"ardf-lint\",\n"
     << "          \"informationUri\": "
        "\"https://doi.org/10.1145/155090.155096\",\n"
     << "          \"rules\": [\n";
  size_t RuleIdx = 0;
  for (const std::string &Id : Fired) {
    OS << "            {\n"
       << "              \"id\": \"" << jsonEscape(Id) << "\",\n"
       << "              \"shortDescription\": { \"text\": \""
       << jsonEscape(ruleDescription(Id)) << "\" }\n"
       << "            }" << (++RuleIdx != Fired.size() ? "," : "") << '\n';
  }
  OS << "          ]\n"
     << "        }\n"
     << "      },\n"
     << "      \"results\": [\n";
  for (size_t I = 0; I != Diags.size(); ++I) {
    const Diagnostic &D = Diags[I];
    OS << "        {\n"
       << "          \"ruleId\": \"" << jsonEscape(D.CheckId) << "\",\n"
       << "          \"level\": \"" << severityName(D.Severity) << "\",\n"
       << "          \"message\": { \"text\": \"" << jsonEscape(D.Message)
       << "\" },\n"
       << "          \"locations\": [\n"
       << "            {\n"
       << "              \"physicalLocation\": {\n"
       << "                \"artifactLocation\": { \"uri\": \""
       << jsonEscape(D.File) << "\" },\n"
       << "                \"region\": { \"startLine\": " << D.Loc.Line
       << ", \"startColumn\": " << D.Loc.Col << " }\n"
       << "              }\n"
       << "            }\n"
       << "          ]";
    if (!D.Related.empty()) {
      OS << ",\n          \"relatedLocations\": [\n";
      for (size_t R = 0; R != D.Related.size(); ++R) {
        const RelatedLoc &Rel = D.Related[R];
        OS << "            {\n"
           << "              \"physicalLocation\": {\n"
           << "                \"artifactLocation\": { \"uri\": \""
           << jsonEscape(D.File) << "\" },\n"
           << "                \"region\": { \"startLine\": " << Rel.Loc.Line
           << ", \"startColumn\": " << Rel.Loc.Col << " }\n"
           << "              },\n"
           << "              \"message\": { \"text\": \""
           << jsonEscape(Rel.Message) << "\" }\n"
           << "            }" << (R + 1 != D.Related.size() ? "," : "")
           << '\n';
      }
      OS << "          ]";
    }
    if (D.hasEvidence()) {
      // The derivation trail as a SARIF code flow: one threadFlow whose
      // locations walk the solution cell's derivation chronologically.
      // Steps without a source position anchor at the result's own
      // location (SARIF requires a physicalLocation per step).
      OS << ",\n          \"codeFlows\": [\n"
         << "            {\n"
         << "              \"threadFlows\": [\n"
         << "                {\n"
         << "                  \"locations\": [\n";
      for (size_t E = 0; E != D.Evidence.size(); ++E) {
        const RelatedLoc &Step = D.Evidence[E];
        const SourceLoc &L = Step.Loc.isValid() ? Step.Loc : D.Loc;
        OS << "                    {\n"
           << "                      \"location\": {\n"
           << "                        \"physicalLocation\": {\n"
           << "                          \"artifactLocation\": { \"uri\": \""
           << jsonEscape(D.File) << "\" },\n"
           << "                          \"region\": { \"startLine\": "
           << L.Line << ", \"startColumn\": " << L.Col << " }\n"
           << "                        },\n"
           << "                        \"message\": { \"text\": \""
           << jsonEscape(Step.Message) << "\" }\n"
           << "                      }\n"
           << "                    }"
           << (E + 1 != D.Evidence.size() ? "," : "") << '\n';
      }
      OS << "                  ]\n"
         << "                }\n"
         << "              ]\n"
         << "            }\n"
         << "          ]";
    }
    bool HasProps = D.hasDistance() || !D.FixHint.empty() || D.StmtId != 0 ||
                    D.hasNest() ||
                    (D.hasEvidence() && !D.DerivationJson.empty());
    if (HasProps) {
      OS << ",\n          \"properties\": { ";
      bool First = true;
      if (D.hasDistance()) {
        OS << "\"iterationDistance\": " << D.Distance;
        First = false;
      }
      if (D.hasNest()) {
        OS << (First ? "" : ", ") << "\"nestPath\": \""
           << jsonEscape(D.NestPath) << '"';
        if (!D.Levels.empty()) {
          OS << ", \"levelDistances\": [";
          for (size_t L = 0; L != D.Levels.size(); ++L)
            OS << (L ? ", " : "") << D.Levels[L];
          OS << ']';
        }
        First = false;
      }
      if (D.StmtId != 0) {
        OS << (First ? "" : ", ") << "\"stmtId\": " << D.StmtId;
        First = false;
      }
      if (!D.FixHint.empty()) {
        OS << (First ? "" : ", ") << "\"fix\": \"" << jsonEscape(D.FixHint)
           << '"';
        First = false;
      }
      if (D.hasEvidence() && !D.DerivationJson.empty())
        OS << (First ? "" : ", ") << "\"derivation\": " << D.DerivationJson;
      OS << " }";
    }
    OS << "\n        }" << (I + 1 != Diags.size() ? "," : "") << '\n';
  }
  OS << "      ]\n"
     << "    }\n"
     << "  ]\n"
     << "}\n";
}

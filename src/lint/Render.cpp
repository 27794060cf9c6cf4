//===- lint/Render.cpp - Diagnostic renderers -----------------------------===//

#include "lint/Render.h"

#include "lint/Checks.h"
#include "support/JsonEscape.h"
#include "support/StrAppend.h"

#include <algorithm>
#include <ostream>

using namespace ardf;

namespace {

/// A render call's output buffer: every renderer appends into it and
/// hands it to the stream a chunk at a time.
class OutBuf {
public:
  explicit OutBuf(std::ostream &OS) : OS(OS) {}
  ~OutBuf() { flush(); }

  std::string &text() { return Buf; }

  /// Writes the buffer out once it holds a chunk (called between
  /// diagnostics, so a chunk ends on a record boundary).
  void endRecord() {
    if (Buf.size() >= ChunkBytes)
      flush();
  }

private:
  static constexpr size_t ChunkBytes = size_t(1) << 16;

  void flush() {
    OS.write(Buf.data(), static_cast<std::streamsize>(Buf.size()));
    Buf.clear();
  }

  std::ostream &OS;
  std::string Buf;
};

/// "file:line:col: " -- "file:?: " at an unknown position -- the anchor
/// of a text line.
void appendAt(std::string &Out, const std::string &File, SourceLoc L) {
  strAppend(Out, File, ':');
  if (L.isValid())
    strAppend(Out, L.Line, ':', L.Col);
  else
    Out += '?';
  Out += ": ";
}

/// The source line under a diagnostic plus a caret at \p Col, both
/// indented by \p Indent; nothing when the line is unknown or empty.
void appendSnippet(std::string &Out, std::string_view Line, unsigned Col,
                   size_t Indent) {
  if (Line.empty())
    return;
  Out.append(Indent, ' ');
  strAppend(Out, Line, '\n');
  Out.append(Indent + (Col > 0 ? Col - 1 : 0), ' ');
  Out += "^\n";
}

/// Appends the JSON-escaped output of \p Write, which appends raw text.
template <typename WriteFn>
void appendJsonText(std::string &Out, WriteFn &&Write) {
  size_t Begin = Out.size();
  Write(Out);
  escapeJsonTail(Out, Begin);
}

/// "i/j" + {1, 0} -> "i=1, j=0"; a NoDistance level prints "?", and so
/// does a level without a NestPath segment.
void appendLevelDistances(std::string &Out, const Diagnostic &D) {
  std::string_view Path = D.NestPath;
  size_t Pos = 0; // start of the next segment
  for (size_t I = 0; I != D.Levels.size(); ++I) {
    if (I)
      Out += ", ";
    if (Pos < Path.size()) {
      size_t End = std::min(Path.find('/', Pos), Path.size());
      Out += Path.substr(Pos, End - Pos);
      Pos = End + 1;
    } else {
      Out += '?';
    }
    Out += '=';
    if (D.Levels[I] == Diagnostic::NoDistance)
      Out += '?';
    else
      strAppend(Out, D.Levels[I]);
  }
}

/// Comma-separated integers with \p Sep between them.
void appendIntList(std::string &Out, const std::vector<int64_t> &Values,
                   const char *Sep) {
  for (size_t I = 0; I != Values.size(); ++I) {
    strAppend(Out, I ? Sep : "", Values[I]);
  }
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

std::string_view SourceMap::line(const std::string &File,
                                 unsigned Line) const {
  auto It = Texts.find(File);
  if (It == Texts.end() || Line == 0 || Line > It->second.LineStarts.size())
    return {};
  const Source &S = It->second;
  size_t Begin = S.LineStarts[Line - 1];
  size_t End = S.Text.size();
  if (Line < S.LineStarts.size())
    End = S.LineStarts[Line] - 1;
  return std::string_view(S.Text).substr(Begin, End - Begin);
}

//===----------------------------------------------------------------------===//
// Human text
//===----------------------------------------------------------------------===//

void ardf::renderText(std::ostream &OS, const std::vector<Diagnostic> &Diags,
                      const SourceMap &Sources) {
  OutBuf Buf(OS);
  std::string &B = Buf.text();
  for (const Diagnostic &D : Diags) {
    appendAt(B, D.File, D.Loc);
    strAppend(B, severityName(D.Severity), ": [", D.CheckId.view(), "] ");
    D.appendMessage(B);
    B += '\n';
    if (D.Loc.isValid())
      appendSnippet(B, Sources.line(D.File, D.Loc.Line), D.Loc.Col, 4);
    if (D.hasDistance())
      strAppend(B, "  distance: ", D.Distance,
                D.Distance == 1 ? " iteration\n" : " iterations\n");
    if (D.hasNest()) {
      strAppend(B, "  nest: ", D.NestPath);
      if (!D.Levels.empty()) {
        B += " (level distances: ";
        appendLevelDistances(B, D);
        B += ')';
      }
      B += '\n';
    }
    if (D.isFinding()) {
      B += "  note: ";
      appendAt(B, D.File, D.SourcePos);
      D.appendRelatedNote(B);
      B += '\n';
    }
    if (D.hasEvidence()) {
      // The because-trail: the chronological derivation of the solution
      // cell behind the finding, each step caret-anchored to its source
      // line (steps without a position, e.g. the final settling summary,
      // print without a snippet).
      B += "  because:\n";
      for (size_t E = 0; E != D.Evidence.size(); ++E) {
        const RelatedLoc &Step = D.Evidence[E];
        strAppend(B, "    [", E + 1, "] ");
        if (Step.Loc.isValid())
          appendAt(B, D.File, Step.Loc);
        strAppend(B, Step.Message, '\n');
        if (Step.Loc.isValid())
          appendSnippet(B, Sources.line(D.File, Step.Loc.Line), Step.Loc.Col,
                        8);
      }
    }
    if (D.hasFixHint()) {
      B += "  fix: ";
      D.appendFixHint(B);
      B += '\n';
    }
    Buf.endRecord();
  }
}

//===----------------------------------------------------------------------===//
// JSON lines
//===----------------------------------------------------------------------===//

namespace {

/// {"line":L,"col":C,"message":"M"} of a related note or evidence step.
template <typename WriteFn>
void appendJsonNote(std::string &B, SourceLoc L, WriteFn &&Write) {
  strAppend(B, "{\"line\":", L.Line, ",\"col\":", L.Col, ",\"message\":\"");
  appendJsonText(B, Write);
  B += "\"}";
}

} // namespace

void ardf::renderJsonLines(std::ostream &OS,
                           const std::vector<Diagnostic> &Diags) {
  OutBuf Buf(OS);
  std::string &B = Buf.text();
  for (const Diagnostic &D : Diags) {
    B += "{\"check\":\"";
    appendJsonEscaped(B, D.CheckId.view());
    strAppend(B, "\",\"severity\":\"", severityName(D.Severity),
              "\",\"file\":\"");
    appendJsonEscaped(B, D.File);
    strAppend(B, "\",\"line\":", D.Loc.Line, ",\"col\":", D.Loc.Col,
              ",\"message\":\"");
    appendJsonText(B, [&](std::string &T) { D.appendMessage(T); });
    B += '"';
    if (D.hasDistance())
      strAppend(B, ",\"distance\":", D.Distance);
    if (D.hasNest()) {
      B += ",\"nest\":\"";
      appendJsonEscaped(B, D.NestPath);
      B += '"';
      if (!D.Levels.empty()) {
        // NoDistance levels render as -1 (distance unknown there).
        B += ",\"levels\":[";
        appendIntList(B, D.Levels, ",");
        B += ']';
      }
    }
    if (D.StmtId != 0)
      strAppend(B, ",\"stmtId\":", D.StmtId);
    if (D.hasFixHint()) {
      B += ",\"fix\":\"";
      appendJsonText(B, [&](std::string &T) { D.appendFixHint(T); });
      B += '"';
    }
    if (D.isFinding()) {
      B += ",\"related\":[";
      appendJsonNote(B, D.SourcePos,
                     [&](std::string &T) { D.appendRelatedNote(T); });
      B += ']';
    }
    if (D.hasEvidence()) {
      B += ",\"evidence\":[";
      for (size_t I = 0; I != D.Evidence.size(); ++I) {
        const RelatedLoc &E = D.Evidence[I];
        B += I ? "," : "";
        appendJsonNote(B, E.Loc, [&](std::string &T) { T += E.Message; });
      }
      B += ']';
      // The derivation DAG is already one compact JSON object; embed it
      // verbatim rather than re-escaping it as a string.
      if (!D.DerivationJson.empty())
        strAppend(B, ",\"derivation\":", D.DerivationJson);
    }
    B += "}\n";
    Buf.endRecord();
  }
}

//===----------------------------------------------------------------------===//
// SARIF 2.1.0
//===----------------------------------------------------------------------===//

namespace {

const char *ruleDescription(std::string_view Id) {
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
  std::vector<std::string_view> Fired;
  for (const Diagnostic &D : Diags)
    Fired.push_back(D.CheckId.view());
  std::sort(Fired.begin(), Fired.end());
  Fired.erase(std::unique(Fired.begin(), Fired.end()), Fired.end());

  OutBuf Buf(OS);
  std::string &B = Buf.text();
  B += "{\n"
       "  \"$schema\": "
       "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
       "  \"version\": \"2.1.0\",\n"
       "  \"runs\": [\n"
       "    {\n"
       "      \"tool\": {\n"
       "        \"driver\": {\n"
       "          \"name\": \"ardf-lint\",\n"
       "          \"informationUri\": "
       "\"https://doi.org/10.1145/155090.155096\",\n"
       "          \"rules\": [\n";
  for (size_t R = 0; R != Fired.size(); ++R) {
    B += "            {\n"
         "              \"id\": \"";
    appendJsonEscaped(B, Fired[R]);
    B += "\",\n"
         "              \"shortDescription\": { \"text\": \"";
    appendJsonEscaped(B, ruleDescription(Fired[R]));
    strAppend(B, "\" }\n            }", R + 1 != Fired.size() ? ",\n" : "\n");
  }
  B += "          ]\n"
       "        }\n"
       "      },\n"
       "      \"results\": [\n";
  // One physicalLocation object in \p File at \p L, each line prefixed
  // by \p Indent.
  auto AppendPhysical = [&](const std::string &File, SourceLoc L,
                            std::string_view Indent) {
    strAppend(B, Indent, "\"physicalLocation\": {\n", Indent,
              "  \"artifactLocation\": { \"uri\": \"");
    appendJsonEscaped(B, File);
    strAppend(B, "\" },\n", Indent, "  \"region\": { \"startLine\": ", L.Line,
              ", \"startColumn\": ", L.Col, " }\n", Indent, '}');
  };
  for (size_t I = 0; I != Diags.size(); ++I) {
    const Diagnostic &D = Diags[I];
    B += "        {\n"
         "          \"ruleId\": \"";
    appendJsonEscaped(B, D.CheckId.view());
    strAppend(B, "\",\n          \"level\": \"", severityName(D.Severity),
              "\",\n          \"message\": { \"text\": \"");
    appendJsonText(B, [&](std::string &T) { D.appendMessage(T); });
    B += "\" },\n"
         "          \"locations\": [\n"
         "            {\n";
    AppendPhysical(D.File, D.Loc, "              ");
    B += "\n"
         "            }\n"
         "          ]";
    if (D.isFinding()) {
      B += ",\n          \"relatedLocations\": [\n"
           "            {\n";
      AppendPhysical(D.File, D.SourcePos, "              ");
      B += ",\n"
           "              \"message\": { \"text\": \"";
      appendJsonText(B, [&](std::string &T) { D.appendRelatedNote(T); });
      B += "\" }\n"
           "            }\n"
           "          ]";
    }
    if (D.hasEvidence()) {
      // The derivation trail as a SARIF code flow: one threadFlow whose
      // locations walk the solution cell's derivation chronologically.
      // Steps without a source position anchor at the result's own
      // location (SARIF requires a physicalLocation per step).
      B += ",\n          \"codeFlows\": [\n"
           "            {\n"
           "              \"threadFlows\": [\n"
           "                {\n"
           "                  \"locations\": [\n";
      for (size_t E = 0; E != D.Evidence.size(); ++E) {
        const RelatedLoc &Step = D.Evidence[E];
        B += "                    {\n"
             "                      \"location\": {\n";
        AppendPhysical(D.File, Step.Loc.isValid() ? Step.Loc : D.Loc,
                       "                        ");
        B += ",\n"
             "                        \"message\": { \"text\": \"";
        appendJsonEscaped(B, Step.Message);
        strAppend(B,
                  "\" }\n"
                  "                      }\n"
                  "                    }",
                  E + 1 != D.Evidence.size() ? ",\n" : "\n");
      }
      B += "                  ]\n"
           "                }\n"
           "              ]\n"
           "            }\n"
           "          ]";
    }
    bool HasDerivation = D.hasEvidence() && !D.DerivationJson.empty();
    if (D.hasDistance() || D.hasFixHint() || D.StmtId != 0 || D.hasNest() ||
        HasDerivation) {
      B += ",\n          \"properties\": { ";
      const char *Sep = "";
      if (D.hasDistance()) {
        strAppend(B, "\"iterationDistance\": ", D.Distance);
        Sep = ", ";
      }
      if (D.hasNest()) {
        strAppend(B, Sep, "\"nestPath\": \"");
        appendJsonEscaped(B, D.NestPath);
        B += '"';
        if (!D.Levels.empty()) {
          B += ", \"levelDistances\": [";
          appendIntList(B, D.Levels, ", ");
          B += ']';
        }
        Sep = ", ";
      }
      if (D.StmtId != 0) {
        strAppend(B, Sep, "\"stmtId\": ", D.StmtId);
        Sep = ", ";
      }
      if (D.hasFixHint()) {
        strAppend(B, Sep, "\"fix\": \"");
        appendJsonText(B, [&](std::string &T) { D.appendFixHint(T); });
        B += '"';
        Sep = ", ";
      }
      if (HasDerivation)
        strAppend(B, Sep, "\"derivation\": ", D.DerivationJson);
      B += " }";
    }
    strAppend(B, "\n        }", I + 1 != Diags.size() ? ",\n" : "\n");
    Buf.endRecord();
  }
  B += "      ]\n"
       "    }\n"
       "  ]\n"
       "}\n";
}

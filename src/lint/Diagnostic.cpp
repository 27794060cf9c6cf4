//===- lint/Diagnostic.cpp - Structured lint diagnostics ------------------===//

#include "lint/Diagnostic.h"

#include "analysis/Dependence.h"
#include "lint/Checks.h"
#include "lint/Render.h"
#include "support/StrAppend.h"

#include <algorithm>
#include <cstdint>
#include <ostream>

using namespace ardf;

const char *ardf::severityName(DiagSeverity S) {
  switch (S) {
  case DiagSeverity::Error:
    return "error";
  case DiagSeverity::Warning:
    return "warning";
  case DiagSeverity::Note:
    return "note";
  }
  return "?";
}

std::ostream &ardf::operator<<(std::ostream &OS, CheckName Id) {
  return OS << Id.view();
}

FindingCheck ardf::findingCheck(CheckName Id) {
  static constexpr std::string_view Findings[] = {
      checkid::RedundantLoad, checkid::DeadStore, checkid::LoopCarriedReuse,
      checkid::CrossIterationConflict};
  for (int I = 0; I != 4; ++I)
    if (Id == Findings[I])
      return static_cast<FindingCheck>(I);
  return FindingCheck::None;
}

//===----------------------------------------------------------------------===//
// The formatter
//===----------------------------------------------------------------------===//
//
// The text templates of the four framework checks. A finding stores only
// its compact fields; these functions are the one place its message, fix
// hint and related note are spelled out.

namespace {

/// "1 iteration", "3 iterations".
void appendIterations(std::string &Out, int64_t N) {
  strAppend(Out, N, N == 1 ? " iteration" : " iterations");
}

const char *conflictShape(DepKind K) {
  return K == DepKind::Output ? "write/write"
         : K == DepKind::Flow ? "write/read"
                              : "read/write";
}

} // namespace

void Diagnostic::appendMessage(std::string &Out) const {
  switch (findingCheck(CheckId)) {
  case FindingCheck::RedundantLoad:
    strAppend(Out, "redundant load: ", SinkText);
    if (Distance == 0) {
      strAppend(Out, " re-reads the value of ", SourceText,
                " from earlier in the same iteration");
    } else {
      strAppend(Out, " re-reads the value ", SourceText, " produced ");
      appendIterations(Out, Distance);
      Out += " earlier";
    }
    return;
  case FindingCheck::DeadStore:
    strAppend(Out, "dead store: ", SinkText, " is overwritten by ",
              SourceText, ' ');
    if (Distance == 0) {
      Out += "later in the same iteration";
    } else {
      appendIterations(Out, Distance);
      Out += " later";
    }
    Out += " without an intervening read";
    return;
  case FindingCheck::LoopCarriedReuse:
    strAppend(Out, "loop-carried reuse: ", SinkText,
              " always reads the value stored by ", SourceText, ' ');
    appendIterations(Out, Distance);
    strAppend(Out, " earlier; register pipelining candidate (distance ",
              Distance, ", ", Distance + 1,
              " register(s), saves one load per iteration)");
    return;
  case FindingCheck::CrossIterationConflict:
    strAppend(Out, "cross-iteration ", conflictShape(Kind), " conflict: ",
              depKindName(Kind), " dependence ", SourceText, " -> ",
              SinkText, " at distance ", Distance,
              " blocks unordered parallel execution of iterations");
    return;
  case FindingCheck::None:
    Out += Message;
    return;
  }
}

void Diagnostic::appendFixHint(std::string &Out) const {
  switch (findingCheck(CheckId)) {
  case FindingCheck::RedundantLoad:
    if (Distance == 0)
      strAppend(Out, "reuse the scalar that already holds ", SourceText,
                " instead of reloading from memory");
    else
      strAppend(Out, "keep the last ", Distance + 1, " value(s) of ",
                SourceText,
                " in scalar temporaries (register pipeline of depth ",
                Distance, ')');
    return;
  case FindingCheck::DeadStore:
    if (Distance == 0) {
      Out += "remove the store; its value is never observed";
    } else {
      Out += "remove the store from the loop and unpeel the final ";
      appendIterations(Out, Distance);
      Out += " into an epilogue";
    }
    return;
  case FindingCheck::LoopCarriedReuse:
    strAppend(Out, "carry the value in ", Distance + 1,
              " rotating scalar register(s) to eliminate the load of ",
              SinkText);
    return;
  case FindingCheck::CrossIterationConflict:
    Out += "iterations closer than ";
    appendIterations(Out, Distance);
    strAppend(Out, " apart are dependence-free; unroll or block by at most ",
              Distance, " for safe overlap");
    return;
  case FindingCheck::None:
    Out += FixHint;
    return;
  }
}

void Diagnostic::appendRelatedNote(std::string &Out) const {
  switch (findingCheck(CheckId)) {
  case FindingCheck::RedundantLoad:
    strAppend(Out, "value of ", SourceText, " is generated here");
    return;
  case FindingCheck::DeadStore:
    strAppend(Out, SourceText, " overwrites the element here");
    return;
  case FindingCheck::LoopCarriedReuse:
    strAppend(Out, "pipelined value is stored here by ", SourceText);
    return;
  case FindingCheck::CrossIterationConflict:
    strAppend(Out, SourceText, " conflicts from here");
    return;
  case FindingCheck::None:
    return;
  }
}

std::string Diagnostic::message() const {
  std::string Out;
  appendMessage(Out);
  return Out;
}

std::string Diagnostic::fixHint() const {
  std::string Out;
  appendFixHint(Out);
  return Out;
}

std::vector<RelatedLoc> Diagnostic::related() const {
  std::vector<RelatedLoc> Out;
  if (isFinding()) {
    Out.push_back(RelatedLoc{SourcePos, std::string()});
    appendRelatedNote(Out.back().Message);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Presentation order
//===----------------------------------------------------------------------===//

namespace {

/// Orders check ids as text: a known id ranks 2k + 1 for its position k
/// among the known ids sorted as text, and an unknown id takes the even
/// rank before the first known id above it, so only unknown ids of one
/// rank need a text compare.
unsigned checkRank(std::string_view Id) {
  static const std::vector<std::string_view> Known = [] {
    std::vector<std::string_view> Ids;
    for (const CheckInfo &C : allChecks())
      Ids.push_back(C.Id);
    std::sort(Ids.begin(), Ids.end());
    return Ids;
  }();
  auto It = std::lower_bound(Known.begin(), Known.end(), Id);
  unsigned Rank = 2 * static_cast<unsigned>(It - Known.begin());
  return It != Known.end() && *It == Id ? Rank + 1 : Rank;
}

} // namespace

void ardf::sortDiagnostics(std::vector<Diagnostic> &Diags) {
  const size_t N = Diags.size();

  // The distinct files, sorted as text; a file's rank is its position.
  std::vector<std::string_view> Files;
  for (const Diagnostic &D : Diags)
    if (Files.empty() || Files.back() != D.File)
      Files.push_back(D.File);
  std::sort(Files.begin(), Files.end());
  Files.erase(std::unique(Files.begin(), Files.end()), Files.end());

  // Each diagnostic's key (file, line, column, check id) as two
  // integers, sorted together with its index. Diagnostics come in runs
  // of one file and one check, so each run is ranked once.
  struct Entry {
    uint64_t FileLine;
    uint64_t ColCheck;
    uint32_t Index;
  };
  std::vector<Entry> Order(N);
  std::string_view RankedFile, RankedId;
  uint64_t FileRank = 0, IdRank = 0;
  for (size_t I = 0; I != N; ++I) {
    const Diagnostic &D = Diags[I];
    if (I == 0 || D.File != RankedFile) {
      RankedFile = D.File;
      FileRank = std::lower_bound(Files.begin(), Files.end(), RankedFile) -
                 Files.begin();
    }
    std::string_view Id = D.CheckId.view();
    if (I == 0 || Id.data() != RankedId.data() ||
        Id.size() != RankedId.size()) {
      RankedId = Id;
      IdRank = checkRank(Id);
    }
    Order[I] = {FileRank << 32 | D.Loc.Line, uint64_t(D.Loc.Col) << 32 | IdRank,
                static_cast<uint32_t>(I)};
  }

  // Inside a key tie the messages decide, compared as text ("distance
  // 10" sorts before "distance 9"). Each is formatted at most once, into
  // one arena; Spans[I] is its [begin, end), {1, 0} until formatted.
  std::string Arena;
  std::vector<std::pair<size_t, size_t>> Spans;
  auto Format = [&](uint32_t I) {
    if (Spans.empty())
      Spans.assign(N, {1, 0});
    if (Spans[I].first > Spans[I].second) {
      size_t Begin = Arena.size();
      Diags[I].appendMessage(Arena);
      Spans[I] = {Begin, Arena.size()};
    }
  };
  auto MessageOf = [&](uint32_t I) {
    return std::string_view(Arena).substr(Spans[I].first,
                                          Spans[I].second - Spans[I].first);
  };

  std::sort(Order.begin(), Order.end(), [&](const Entry &A, const Entry &B) {
    if (A.FileLine != B.FileLine)
      return A.FileLine < B.FileLine;
    if (A.ColCheck != B.ColCheck)
      return A.ColCheck < B.ColCheck;
    if (!(A.ColCheck & 1)) { // unknown check ids of one rank
      int C = Diags[A.Index].CheckId.view().compare(
          Diags[B.Index].CheckId.view());
      if (C != 0)
        return C < 0;
    }
    Format(A.Index);
    Format(B.Index); // may grow the arena: take both views after this
    int C = MessageOf(A.Index).compare(MessageOf(B.Index));
    return C != 0 ? C < 0 : A.Index < B.Index;
  });

  // Apply the permutation in place, one cycle at a time: every element
  // moves once, straight to its final slot (a cycle's first element
  // passes through one temporary).
  for (size_t Start = 0; Start != N; ++Start) {
    if (Order[Start].Index == Start)
      continue;
    Diagnostic Held = std::move(Diags[Start]);
    size_t To = Start;
    for (size_t From = Order[To].Index; From != Start;
         From = Order[To].Index) {
      Diags[To] = std::move(Diags[From]);
      Order[To].Index = static_cast<uint32_t>(To);
      To = From;
    }
    Diags[To] = std::move(Held);
    Order[To].Index = static_cast<uint32_t>(To);
  }
}

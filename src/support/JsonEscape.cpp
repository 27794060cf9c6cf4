//===- support/JsonEscape.cpp - JSON string escaping ----------------------===//

#include "support/JsonEscape.h"

using namespace ardf;

namespace {

bool needsEscape(char C) {
  return C == '"' || C == '\\' || static_cast<unsigned char>(C) < 0x20;
}

} // namespace

void ardf::appendJsonEscaped(std::string &Out, std::string_view S) {
  static const char Hex[] = "0123456789abcdef";
  size_t Run = 0; // start of the pending run of bytes that pass through
  for (size_t I = 0; I != S.size(); ++I) {
    char C = S[I];
    if (!needsEscape(C))
      continue;
    Out.append(S.data() + Run, I - Run);
    Run = I + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      Out += "\\u00";
      Out += Hex[(C >> 4) & 0xF];
      Out += Hex[C & 0xF];
    }
  }
  Out.append(S.data() + Run, S.size() - Run);
}

void ardf::escapeJsonTail(std::string &Out, size_t Begin) {
  size_t First = Begin;
  while (First != Out.size() && !needsEscape(Out[First]))
    ++First;
  if (First == Out.size())
    return;
  std::string Raw(Out, First);
  Out.resize(First);
  appendJsonEscaped(Out, Raw);
}

std::string ardf::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size() + 8);
  appendJsonEscaped(Out, S);
  return Out;
}

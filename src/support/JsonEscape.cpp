//===- support/JsonEscape.cpp - JSON string escaping ----------------------===//

#include "support/JsonEscape.h"

using namespace ardf;

void ardf::appendJsonEscaped(std::string &Out, std::string_view S) {
  static const char Hex[] = "0123456789abcdef";
  for (char C : S) {
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
      if (static_cast<unsigned char>(C) < 0x20) {
        Out += "\\u00";
        Out += Hex[(C >> 4) & 0xF];
        Out += Hex[C & 0xF];
      } else {
        Out += C;
      }
    }
  }
}

std::string ardf::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size() + 8);
  appendJsonEscaped(Out, S);
  return Out;
}

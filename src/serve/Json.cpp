//===- serve/Json.cpp - Bounded JSON parsing and writing ------------------===//

#include "serve/Json.h"

#include "support/JsonEscape.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace ardf;
using namespace ardf::json;

Value::Value(uint64_t U) {
  if (U <= static_cast<uint64_t>(INT64_MAX)) {
    K = Kind::Int;
    IntV = static_cast<int64_t>(U);
  } else {
    K = Kind::Double;
    DoubleV = static_cast<double>(U);
  }
}

int64_t Value::intValue() const {
  if (K == Kind::Int)
    return IntV;
  if (K == Kind::Double)
    return static_cast<int64_t>(DoubleV);
  return 0;
}

double Value::doubleValue() const {
  if (K == Kind::Double)
    return DoubleV;
  if (K == Kind::Int)
    return static_cast<double>(IntV);
  return 0.0;
}

const Value *Value::find(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  auto It = ObjectV.find(Key);
  return It == ObjectV.end() ? nullptr : &It->second;
}

void json::appendQuoted(std::string &Out, std::string_view S) {
  Out.push_back('"');
  appendJsonEscaped(Out, S);
  Out.push_back('"');
}

void Value::write(std::string &Out) const {
  switch (K) {
  case Kind::Null:
    Out += "null";
    break;
  case Kind::Bool:
    Out += BoolV ? "true" : "false";
    break;
  case Kind::Int: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%lld",
                  static_cast<long long>(IntV));
    Out += Buf;
    break;
  }
  case Kind::Double: {
    if (std::isfinite(DoubleV)) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.17g", DoubleV);
      Out += Buf;
    } else {
      // JSON has no Inf/NaN literal; null is the conventional stand-in.
      Out += "null";
    }
    break;
  }
  case Kind::String:
    appendQuoted(Out, StringV);
    break;
  case Kind::Array: {
    Out.push_back('[');
    bool First = true;
    for (const Value &E : ArrayV) {
      if (!First)
        Out.push_back(',');
      First = false;
      E.write(Out);
    }
    Out.push_back(']');
    break;
  }
  case Kind::Object: {
    Out.push_back('{');
    bool First = true;
    for (const auto &[Key, Member] : ObjectV) {
      if (!First)
        Out.push_back(',');
      First = false;
      appendQuoted(Out, Key);
      Out.push_back(':');
      Member.write(Out);
    }
    Out.push_back('}');
    break;
  }
  }
}

std::string Value::toString() const {
  std::string Out;
  write(Out);
  return Out;
}

namespace {

/// The recursive-descent parser. One instance per parse() call; all
/// errors funnel through fail() so every outcome carries an offset.
class Parser {
public:
  Parser(std::string_view Text, unsigned MaxDepth)
      : Text(Text), MaxDepth(MaxDepth) {}

  ParseOutcome run() {
    ParseOutcome Out;
    skipWs();
    if (!parseValue(Out.V, 0)) {
      Out.Error = Err;
      Out.ErrorAt = ErrAt;
      return Out;
    }
    skipWs();
    if (Pos != Text.size()) {
      Out.Error = "trailing characters after JSON value";
      Out.ErrorAt = Pos;
      return Out;
    }
    Out.Ok = true;
    return Out;
  }

private:
  bool fail(const std::string &Msg) {
    if (Err.empty()) {
      Err = Msg;
      ErrAt = Pos;
    }
    return false;
  }

  void skipWs() {
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C != ' ' && C != '\t' && C != '\n' && C != '\r')
        break;
      ++Pos;
    }
  }

  bool parseValue(Value &V, unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting depth exceeds " + std::to_string(MaxDepth));
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    switch (C) {
    case '{':
      return parseObject(V, Depth);
    case '[':
      return parseArray(V, Depth);
    case '"': {
      std::string S;
      if (!parseString(S))
        return false;
      V = Value(std::move(S));
      return true;
    }
    case 't':
      if (Text.compare(Pos, 4, "true") == 0) {
        Pos += 4;
        V = Value(true);
        return true;
      }
      return fail("invalid literal");
    case 'f':
      if (Text.compare(Pos, 5, "false") == 0) {
        Pos += 5;
        V = Value(false);
        return true;
      }
      return fail("invalid literal");
    case 'n':
      if (Text.compare(Pos, 4, "null") == 0) {
        Pos += 4;
        V = Value(nullptr);
        return true;
      }
      return fail("invalid literal");
    default:
      if (C == '-' || (C >= '0' && C <= '9'))
        return parseNumber(V);
      return fail(std::string("unexpected character '") + C + "'");
    }
  }

  bool parseObject(Value &V, unsigned Depth) {
    ++Pos; // '{'
    Object O;
    skipWs();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      V = Value(std::move(O));
      return true;
    }
    for (;;) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected object key string");
      std::string Key;
      if (!parseString(Key))
        return false;
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != ':')
        return fail("expected ':' after object key");
      ++Pos;
      skipWs();
      Value Member;
      if (!parseValue(Member, Depth + 1))
        return false;
      // Last duplicate key wins (the std::map insert-or-assign).
      O[std::move(Key)] = std::move(Member);
      skipWs();
      if (Pos >= Text.size())
        return fail("unterminated object");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == '}') {
        ++Pos;
        V = Value(std::move(O));
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parseArray(Value &V, unsigned Depth) {
    ++Pos; // '['
    Array A;
    skipWs();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      V = Value(std::move(A));
      return true;
    }
    for (;;) {
      skipWs();
      Value E;
      if (!parseValue(E, Depth + 1))
        return false;
      A.push_back(std::move(E));
      skipWs();
      if (Pos >= Text.size())
        return fail("unterminated array");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == ']') {
        ++Pos;
        V = Value(std::move(A));
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parseString(std::string &Out) {
    ++Pos; // '"'
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("raw control character in string");
      if (C != '\\') {
        Out.push_back(C);
        ++Pos;
        continue;
      }
      ++Pos;
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos];
      switch (E) {
      case '"':
        Out.push_back('"');
        break;
      case '\\':
        Out.push_back('\\');
        break;
      case '/':
        Out.push_back('/');
        break;
      case 'b':
        Out.push_back('\b');
        break;
      case 'f':
        Out.push_back('\f');
        break;
      case 'n':
        Out.push_back('\n');
        break;
      case 'r':
        Out.push_back('\r');
        break;
      case 't':
        Out.push_back('\t');
        break;
      case 'u': {
        if (Pos + 4 >= Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 1; I <= 4; ++I) {
          char H = Text[Pos + I];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code += static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code += static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code += static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("invalid \\u escape digit");
        }
        Pos += 4;
        // UTF-8 encode the BMP code point; surrogate pairs are passed
        // through as two 3-byte sequences (requests are ASCII in
        // practice, so exact pairing is not worth the complexity).
        if (Code < 0x80) {
          Out.push_back(static_cast<char>(Code));
        } else if (Code < 0x800) {
          Out.push_back(static_cast<char>(0xC0 | (Code >> 6)));
          Out.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
        } else {
          Out.push_back(static_cast<char>(0xE0 | (Code >> 12)));
          Out.push_back(static_cast<char>(0x80 | ((Code >> 6) & 0x3F)));
          Out.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
        }
        break;
      }
      default:
        return fail("invalid escape character");
      }
      ++Pos;
    }
    return fail("unterminated string");
  }

  bool parseNumber(Value &V) {
    size_t Start = Pos;
    bool Integral = true;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
      return fail("invalid number");
    while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
      ++Pos;
    if (Pos < Text.size() && Text[Pos] == '.') {
      Integral = false;
      ++Pos;
      if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
        return fail("invalid number fraction");
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      Integral = false;
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
        return fail("invalid number exponent");
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    std::string Num(Text.substr(Start, Pos - Start));
    if (Integral) {
      errno = 0;
      char *End = nullptr;
      long long I = std::strtoll(Num.c_str(), &End, 10);
      if (errno == 0 && End && *End == '\0') {
        V = Value(static_cast<int64_t>(I));
        return true;
      }
      // Out of int64 range: fall through to double.
    }
    errno = 0;
    char *End = nullptr;
    double D = std::strtod(Num.c_str(), &End);
    if (!End || *End != '\0')
      return fail("invalid number");
    V = Value(D);
    return true;
  }

  std::string_view Text;
  unsigned MaxDepth;
  size_t Pos = 0;
  std::string Err;
  size_t ErrAt = 0;
};

} // namespace

ParseOutcome json::parse(std::string_view Text, unsigned MaxDepth) {
  return Parser(Text, MaxDepth).run();
}

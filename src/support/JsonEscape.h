//===- support/JsonEscape.h - JSON string escaping --------------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON string escaper every writer shares: lint JSON and SARIF,
/// explain derivations, telemetry traces and stats, and the serve
/// protocol. Quote and backslash are backslash-escaped, newline, tab and
/// carriage return use their short forms, every other control character
/// below 0x20 becomes \u00xx (lowercase hex), and all other bytes --
/// UTF-8 sequences included -- pass through unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_SUPPORT_JSONESCAPE_H
#define ARDF_SUPPORT_JSONESCAPE_H

#include <cstddef>
#include <string>
#include <string_view>

namespace ardf {

/// Appends \p S to \p Out escaped for a JSON string literal (no quotes).
void appendJsonEscaped(std::string &Out, std::string_view S);

/// Escapes the bytes of \p Out from offset \p Begin on in place, so a
/// writer can append raw text into its buffer and escape it there
/// without a temporary (text needing no escape is left untouched).
void escapeJsonTail(std::string &Out, size_t Begin);

/// \p S escaped for embedding in a JSON string literal (no quotes).
std::string jsonEscape(std::string_view S);

} // namespace ardf

#endif // ARDF_SUPPORT_JSONESCAPE_H

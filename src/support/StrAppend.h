//===- support/StrAppend.h - Appending text and integers -------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Appends a sequence of strings, characters and integers to a
/// std::string: no stream, no locale, no temporary strings. Integers go
/// through std::to_chars, so they read exactly as `operator<<` prints
/// them.
///
/// \code
///   strAppend(Out, File, ':', Line, ": ", Message, '\n');
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_SUPPORT_STRAPPEND_H
#define ARDF_SUPPORT_STRAPPEND_H

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>

namespace ardf {

namespace detail {

inline void appendPart(std::string &Out, std::string_view S) { Out += S; }

inline void appendPart(std::string &Out, char C) { Out += C; }

template <typename Int>
  requires(std::is_integral_v<Int> && !std::is_same_v<Int, char> &&
           !std::is_same_v<Int, bool>)
void appendPart(std::string &Out, Int V) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

} // namespace detail

/// Appends every part of \p Parts to \p Out in order.
template <typename... Parts>
void strAppend(std::string &Out, const Parts &...Ps) {
  (detail::appendPart(Out, Ps), ...);
}

} // namespace ardf

#endif // ARDF_SUPPORT_STRAPPEND_H

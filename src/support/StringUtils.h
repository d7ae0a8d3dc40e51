//===- support/StringUtils.h - Small string helpers -------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String formatting and manipulation helpers used across the project:
/// printf-style formatting into std::string, numeric formatting matching the
/// paper's tables (fixed decimals, percentages, human-readable byte sizes),
/// splitting/trimming, and strict parsing of unsigned flag values.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_SUPPORT_STRINGUTILS_H
#define KREMLIN_SUPPORT_STRINGUTILS_H

#include "support/Status.h"

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace kremlin {

/// printf-style formatting that returns a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Formats \p Value with \p Decimals fractional digits ("145.3").
std::string formatFixed(double Value, unsigned Decimals);

/// Formats \p Value as a percentage with \p Decimals digits ("9.7%").
std::string formatPercent(double Value, unsigned Decimals);

/// Formats a byte count with a binary-unit suffix ("17.9 GB", "150 KB").
std::string formatBytes(uint64_t Bytes);

/// Formats a ratio as a speedup/size factor ("1.57x", "119000x").
std::string formatFactor(double Ratio, unsigned Decimals = 2);

/// Splits \p Text on \p Sep, keeping empty fields.
std::vector<std::string> splitString(std::string_view Text, char Sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trimString(std::string_view Text);

/// Parses \p Text as a base-10 integer no larger than \p Max. Strict where
/// strtoull is lenient: empty text, a sign, whitespace, any other non-digit
/// and values above \p Max are rejected (false, \p Out untouched) instead
/// of silently reading as 0 or wrapping.
bool parseUnsigned(std::string_view Text, uint64_t &Out,
                   uint64_t Max = UINT64_MAX);

/// Reads the value of a `--name=<n>` flag into \p Out via parseUnsigned,
/// multiplied by \p Scale (1 << 20 for a flag given in MiB). A malformed
/// value, or one whose scaled result does not fit in T, is an
/// invalid-argument Status naming the flag; \p Out is then untouched.
template <typename T>
Status parseUnsignedFlag(std::string_view Arg, T &Out, uint64_t Scale = 1) {
  size_t Eq = Arg.find('=');
  std::string_view Text =
      Eq == std::string_view::npos ? std::string_view() : Arg.substr(Eq + 1);
  uint64_t Value = 0;
  if (!parseUnsigned(Text, Value, std::numeric_limits<T>::max() / Scale))
    return Status::error(ErrorCode::InvalidArgument,
                         "invalid value '" + std::string(Text) + "' for " +
                             std::string(Arg.substr(0, Eq)) +
                             ": expected an unsigned integer");
  Out = static_cast<T>(Value * Scale);
  return Status::success();
}

/// Reads the value of a `--name=<x>` flag into \p Out as a non-negative
/// finite decimal number ("2", "0.5", "1e9"). Strict where strtod is
/// lenient: empty text, whitespace, a sign other than a leading '-' on
/// zero, trailing characters, nan, inf, negative values and values beyond
/// the double range are an invalid-argument Status naming the flag; \p Out
/// is then untouched.
Status parseDoubleFlag(std::string_view Arg, double &Out);

} // namespace kremlin

#endif // KREMLIN_SUPPORT_STRINGUTILS_H

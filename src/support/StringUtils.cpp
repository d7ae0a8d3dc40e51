//===- support/StringUtils.cpp --------------------------------------------===//

#include "support/StringUtils.h"

#include <cstdarg>
#include <cstdio>

using namespace kremlin;

std::string kremlin::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  if (Needed < 0) {
    va_end(ArgsCopy);
    return std::string();
  }
  std::string Result(static_cast<size_t>(Needed), '\0');
  std::vsnprintf(Result.data(), Result.size() + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Result;
}

std::string kremlin::formatFixed(double Value, unsigned Decimals) {
  return formatString("%.*f", static_cast<int>(Decimals), Value);
}

std::string kremlin::formatPercent(double Value, unsigned Decimals) {
  return formatString("%.*f%%", static_cast<int>(Decimals), Value);
}

std::string kremlin::formatBytes(uint64_t Bytes) {
  static const char *Units[] = {"B", "KB", "MB", "GB", "TB"};
  double Value = static_cast<double>(Bytes);
  unsigned Unit = 0;
  while (Value >= 1024.0 && Unit + 1 < sizeof(Units) / sizeof(Units[0])) {
    Value /= 1024.0;
    ++Unit;
  }
  if (Unit == 0)
    return formatString("%llu B", static_cast<unsigned long long>(Bytes));
  return formatString("%.1f %s", Value, Units[Unit]);
}

std::string kremlin::formatFactor(double Ratio, unsigned Decimals) {
  return formatString("%.*fx", static_cast<int>(Decimals), Ratio);
}

std::vector<std::string> kremlin::splitString(std::string_view Text,
                                              char Sep) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  while (true) {
    size_t Pos = Text.find(Sep, Start);
    if (Pos == std::string_view::npos) {
      Parts.emplace_back(Text.substr(Start));
      return Parts;
    }
    Parts.emplace_back(Text.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

std::string_view kremlin::trimString(std::string_view Text) {
  while (!Text.empty() && (Text.front() == ' ' || Text.front() == '\t' ||
                           Text.front() == '\n' || Text.front() == '\r'))
    Text.remove_prefix(1);
  while (!Text.empty() && (Text.back() == ' ' || Text.back() == '\t' ||
                           Text.back() == '\n' || Text.back() == '\r'))
    Text.remove_suffix(1);
  return Text;
}

bool kremlin::parseUnsigned(std::string_view Text, uint64_t &Out,
                            uint64_t Max) {
  if (Text.empty())
    return false;
  uint64_t Value = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    unsigned Digit = static_cast<unsigned>(C - '0');
    if (Digit > Max || Value > (Max - Digit) / 10)
      return false;
    Value = Value * 10 + Digit;
  }
  Out = Value;
  return true;
}

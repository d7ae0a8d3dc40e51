//===- compress/TraceIO.cpp -----------------------------------------------===//

#include "compress/TraceIO.h"

#include "support/FaultInjection.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

using namespace kremlin;

std::string kremlin::writeTrace(const DictionaryCompressor &Dict,
                                const TraceMeta &Meta) {
  std::string Out = formatString("kremlin-trace %u\n", TraceSchemaVersion);
  if (!Meta.Source.empty())
    Out += "source " + Meta.Source + "\n";
  Out += formatString("regions %zu\n", Dict.alphabet().size());
  for (const DynRegionSummary &S : Dict.alphabet()) {
    Out += formatString("entry %u %llu %llu %zu", S.Static,
                        static_cast<unsigned long long>(S.Work),
                        static_cast<unsigned long long>(S.Cp),
                        S.Children.size());
    for (const auto &[C, Freq] : S.Children)
      Out += formatString(" %u %llu", C,
                          static_cast<unsigned long long>(Freq));
    Out += '\n';
  }
  for (const auto &[Root, Count] : Dict.roots())
    Out += formatString("root %u %llu\n", Root,
                        static_cast<unsigned long long>(Count));
  Out += formatString("dynregions %llu\n",
                      static_cast<unsigned long long>(
                          Dict.numDynamicRegions()));
  return Out;
}

namespace {

/// One cursor over the trace text. Tokens are separated by whitespace
/// (space, \t, \n, \v, \f, \r); a number is a whole token of unsigned
/// decimal digits that fits its field.
class TraceCursor {
public:
  explicit TraceCursor(std::string_view Text) : Text(Text) {}

  /// The next token; empty at the end of the text.
  std::string_view token() {
    while (Pos < Text.size() && isSpace(Text[Pos]))
      ++Pos;
    size_t Start = Pos;
    while (Pos < Text.size() && !isSpace(Text[Pos]))
      ++Pos;
    return Text.substr(Start, Pos - Start);
  }

  /// Reads the next token into \p Out; false unless it is a number.
  template <typename T> bool number(T &Out) {
    return parse(token(), Out) == std::errc();
  }

  /// Reads the next token into \p Out. On failure sets \p Why to the
  /// reason, naming \p Field and the token ("region id '-1' is not an
  /// unsigned integer"), and returns false.
  template <typename T>
  bool field(const char *Field, T &Out, std::string &Why) {
    std::string_view Tok = token();
    std::errc Ec = parse(Tok, Out);
    if (Ec == std::errc())
      return true;
    if (Tok.empty())
      Why = formatString("missing %s (truncated trace?)", Field);
    else
      Why = formatString("%s '%.*s' ", Field, static_cast<int>(Tok.size()),
                         Tok.data()) +
            (Ec == std::errc::result_out_of_range
                 ? formatString("does not fit in %zu bits", sizeof(T) * 8)
                 : std::string("is not an unsigned integer"));
    return false;
  }

  /// Bytes not yet consumed.
  size_t remaining() const { return Text.size() - Pos; }

  /// The rest of the current line, consuming its newline.
  std::string_view restOfLine() {
    size_t Start = Pos;
    while (Pos < Text.size() && Text[Pos] != '\n')
      ++Pos;
    std::string_view Line = Text.substr(Start, Pos - Start);
    if (Pos < Text.size())
      ++Pos;
    return Line;
  }

private:
  std::string_view Text;
  size_t Pos = 0;

  /// Parses a whole token of decimal digits that fits T: errc() on
  /// success, result_out_of_range on overflow, invalid_argument otherwise.
  template <typename T> static std::errc parse(std::string_view Tok, T &Out) {
    const char *End = Tok.data() + Tok.size();
    auto [Ptr, Ec] = std::from_chars(Tok.data(), End, Out);
    if (Ec == std::errc() && Ptr != End)
      return std::errc::invalid_argument; // Trailing non-digits.
    return Ec;
  }

  static bool isSpace(char C) {
    return C == ' ' || C == '\t' || C == '\n' || C == '\v' || C == '\f' ||
           C == '\r';
  }
};

} // namespace

Expected<DictionaryCompressor> kremlin::readTrace(const std::string &Text,
                                                  TraceMeta *Meta) {
  auto Malformed = [](std::string Msg) {
    return Status::error(ErrorCode::DecodeError, std::move(Msg))
        .withStage("trace-decode");
  };
  if (fault::enabled() && fault::shouldFail(fault::Site::TraceCorrupt))
    return Status::error(ErrorCode::FaultInjected,
                         "trace decode failed (KREMLIN_FAULT=" +
                             fault::activeSpec() + ")")
        .withStage("trace-decode");

  DictionaryCompressor Dict;
  TraceCursor In(Text);
  unsigned Version = 0;
  if (In.token() != "kremlin-trace" || !In.number(Version))
    return Malformed("not a kremlin-trace file");
  // An incompatible schema fails here, by name, instead of as an obscure
  // downstream parse error: the versions involved are in the message.
  if (Version < MinTraceSchemaVersion || Version > TraceSchemaVersion)
    return Malformed(formatString(
        "unsupported trace schema version: found %u, expected %u "
        "(readers accept %u-%u)",
        Version, TraceSchemaVersion, MinTraceSchemaVersion,
        TraceSchemaVersion));
  std::string_view Keyword = In.token();
  if (Keyword == "source") {
    // v2 provenance: the rest of the line is the source name.
    std::string_view Line = In.restOfLine();
    if (Meta)
      Meta->Source = std::string(trimString(Line));
    Keyword = In.token();
  }
  size_t NumEntries = 0;
  if (Keyword != "regions" || !In.number(NumEntries))
    return Malformed("missing regions header");
  uint64_t SeenDynRegions = 0;
  for (size_t E = 0; E < NumEntries; ++E) {
    DynRegionSummary S;
    size_t NumChildren = 0;
    std::string Why;
    std::string_view Kw = In.token();
    if (Kw != "entry")
      Why = Kw.empty() ? "no entry line (truncated trace?)"
                       : "expected 'entry', found '" + std::string(Kw) + "'";
    else if (In.field("region id", S.Static, Why) &&
             In.field("work", S.Work, Why) &&
             In.field("critical path", S.Cp, Why))
      In.field("child count", NumChildren, Why);
    if (!Why.empty())
      return Malformed(formatString("malformed entry %zu: ", E) + Why);
    // Every child takes at least four bytes ("c f "), which bounds what a
    // hostile count can reserve.
    S.Children.reserve(std::min(NumChildren, In.remaining() / 4));
    for (size_t C = 0; C < NumChildren; ++C) {
      SummaryChar Child = 0;
      uint64_t Freq = 0;
      if (!In.field("character", Child, Why) ||
          !In.field("frequency", Freq, Why))
        return Malformed(
            formatString("malformed children of entry %zu: child %zu ", E, C) +
            Why);
      if (Child >= E)
        // Alphabet grows leaves-first: a child must precede its parent.
        return Malformed(formatString(
            "entry %zu references later/self character %u "
            "(dictionary index out of range)",
            E, Child));
      S.Children.emplace_back(Child, Freq);
    }
    SummaryChar Interned = Dict.intern(std::move(S));
    ++SeenDynRegions;
    if (Interned != E)
      return Malformed(formatString("duplicate alphabet entry %zu", E));
  }
  // Roots and the dynamic-region count.
  for (Keyword = In.token(); !Keyword.empty(); Keyword = In.token()) {
    if (Keyword == "root") {
      SummaryChar Root = 0;
      uint64_t Count = 0;
      if (!In.number(Root) || !In.number(Count) ||
          Root >= Dict.alphabet().size())
        return Malformed(
            "malformed root line (dictionary index out of range)");
      if (!Dict.addRootExits(Root, Count))
        return Malformed(formatString(
            "root %u: exit count overflows 64 bits", Root));
    } else if (Keyword == "dynregions") {
      uint64_t Total = 0;
      if (!In.number(Total) || Total < SeenDynRegions)
        return Malformed("malformed dynregions line");
      Dict.setDynamicRegions(Total);
    } else {
      return Malformed("unknown keyword '" + std::string(Keyword) + "'");
    }
  }
  return Dict;
}

Status kremlin::writeTraceFile(const DictionaryCompressor &Dict,
                               const std::string &Path,
                               const TraceMeta &Meta) {
  std::ofstream Out(Path);
  if (!Out)
    return Status::error(ErrorCode::IoError, "cannot open for writing")
        .withInput(Path);
  Out << writeTrace(Dict, Meta);
  if (!Out)
    return Status::error(ErrorCode::IoError, "write failed").withInput(Path);
  return Status::success();
}

Expected<DictionaryCompressor>
kremlin::readTraceFile(const std::string &Path, TraceMeta *Meta,
                       const TraceReadLimits &Limits) {
  namespace tel = telemetry;
  if (fault::enabled() && fault::shouldFail(fault::Site::Ingest))
    return Status::error(ErrorCode::FaultInjected,
                         "profile ingest failed (KREMLIN_FAULT=" +
                             fault::activeSpec() + ")")
        .withStage("ingest")
        .withInput(Path);

  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return Status::error(ErrorCode::IoError, "cannot open")
        .withStage("trace-decode")
        .withInput(Path);
  In.seekg(0, std::ios::end);
  uint64_t Bytes = static_cast<uint64_t>(In.tellg());
  In.seekg(0, std::ios::beg);
  tel::Registry::global().counter("ingest.bytes").add(Bytes);
  if (Limits.MaxBytes && Bytes > Limits.MaxBytes) {
    // Trip the size budget before parsing a single byte (the guardrail a
    // hostile fleet upload hits first).
    tel::Registry::global().counter("ingest.budget_trips").add();
    tel::Registry::global()
        .gauge("ingest.budget_bytes")
        .set(static_cast<double>(Limits.MaxBytes));
    return Status::error(
               ErrorCode::ResourceExhausted,
               formatString("profile file size (%s) exceeds the "
                            "--max-profile-mb budget (%s)",
                            formatBytes(Bytes).c_str(),
                            formatBytes(Limits.MaxBytes).c_str()))
        .withStage("ingest")
        .withInput(Path);
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  Expected<DictionaryCompressor> Result = readTrace(SS.str(), Meta);
  if (!Result.ok())
    return Status(Result.status()).withInput(Path);
  return Result;
}

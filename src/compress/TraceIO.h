//===- compress/TraceIO.h - Compressed trace (de)serialization --*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serialization of the compressed parallelism profile — the "parallelism
/// profile" output file of the paper's Figure 4. The instrumented run
/// writes one of these; the planner consumes it later (and can aggregate
/// several, §2.4: "Kremlin supports aggregation of data from multiple
/// runs").
///
/// The format is a line-oriented text format, schema version 2:
///
///   kremlin-trace 2
///   source <name>                                (optional provenance)
///   regions <count>
///   entry <static> <work> <cp> <nchildren> (<char> <freq>)...
///   root <char> <count>
///   dynregions <count>
///
/// Tokens are separated by whitespace (space, tab, \n, \r, \v, \f). Every
/// number is a whole token of unsigned decimal digits that fits its field
/// (32 bits for region ids and characters, 64 for counts): a sign, a
/// trailing non-digit or an overflow is a DecodeError, as is a root count
/// whose total would overflow 64 bits.
///
/// Version history: v1 had no `source` line; v1 files still parse. A file
/// whose version is outside [MinTraceSchemaVersion, TraceSchemaVersion] is
/// rejected with a structured DecodeError naming the found and expected
/// versions (and, via readTraceFile, the offending path).
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_COMPRESS_TRACEIO_H
#define KREMLIN_COMPRESS_TRACEIO_H

#include "compress/Dictionary.h"
#include "support/Status.h"

#include <string>

namespace kremlin {

/// Schema version writeTrace() emits.
inline constexpr unsigned TraceSchemaVersion = 2;
/// Oldest schema version readTrace() still accepts.
inline constexpr unsigned MinTraceSchemaVersion = 1;

/// Optional header metadata (v2+). Merged fleet profiles record a
/// "fleet(<n> profiles)" source so provenance survives aggregation.
struct TraceMeta {
  /// Source file / benchmark the profile was measured from; "" = unknown.
  std::string Source;
};

/// Size budget for profile/trace reads (--max-profile-mb=). An oversized
/// file trips ResourceExhausted *before* any parsing work happens, so a
/// hostile upload can not balloon memory.
struct TraceReadLimits {
  /// Maximum serialized profile size in bytes; 0 = unlimited.
  uint64_t MaxBytes = 0;
};

/// Serializes \p Dict to the text trace format (schema v2).
std::string writeTrace(const DictionaryCompressor &Dict,
                       const TraceMeta &Meta = TraceMeta());

/// Parses a trace produced by writeTrace(). Validates structure (children
/// must reference earlier characters — the leaves-first alphabet property)
/// and the schema version range. Errors carry DecodeError with the
/// offending line's detail; \p Meta, when given, receives the v2 header
/// metadata.
Expected<DictionaryCompressor> readTrace(const std::string &Text,
                                         TraceMeta *Meta = nullptr);

/// Convenience: writeTrace() to a file. IoError on failure.
Status writeTraceFile(const DictionaryCompressor &Dict,
                      const std::string &Path,
                      const TraceMeta &Meta = TraceMeta());

/// Convenience: readTrace() from a file; errors name the input path.
/// \p Limits.MaxBytes bounds the file size (ResourceExhausted on trip);
/// the fault::Site::Ingest drill point fires here.
Expected<DictionaryCompressor>
readTraceFile(const std::string &Path, TraceMeta *Meta = nullptr,
              const TraceReadLimits &Limits = TraceReadLimits());

} // namespace kremlin

#endif // KREMLIN_COMPRESS_TRACEIO_H

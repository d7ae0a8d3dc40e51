//===- compress/Dictionary.h - Compressed trace dictionary ------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online dictionary compression of paper §4.4. When a dynamic region
/// exits, its tuple (static region, critical path, work, children) is
/// looked up in the current alphabet of unique summaries: a hit reuses the
/// existing character, a miss appends one. Children are expressed as sorted
/// (character, frequency) pairs over the existing alphabet, so the alphabet
/// necessarily grows from leaf regions toward main.
///
/// The planner never decompresses: every analysis (multiplicity counting,
/// self-parallelism, aggregation) walks the alphabet directly, each entry
/// standing for potentially millions of dynamic regions.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_COMPRESS_DICTIONARY_H
#define KREMLIN_COMPRESS_DICTIONARY_H

#include "rt/RegionSummary.h"

#include <cstdint>
#include <vector>

namespace kremlin {

/// Sizes a raw (uncompressed) trace record: one fixed header per dynamic
/// region, the shape a naive profiler log would write.
inline constexpr uint64_t RawRecordBytes = 3 * sizeof(uint64_t);

/// The RegionSummarySink used for real profiling runs: interns summaries
/// into an alphabet and tracks compression statistics.
class DictionaryCompressor : public RegionSummarySink {
public:
  SummaryChar intern(DynRegionSummary Summary) override;
  void onRootExit(SummaryChar Root) override { addRootExits(Root, 1); }

  /// Adds \p Count exits of root \p Root at once (a decoded or merged
  /// root line). The total saturates at UINT64_MAX; returns false when it
  /// would have overflowed.
  bool addRootExits(SummaryChar Root, uint64_t Count);

  /// The alphabet: every unique dynamic-region summary, in interning order
  /// (children always precede parents).
  const std::vector<DynRegionSummary> &alphabet() const { return Alphabet; }

  /// Root characters (whole-program summaries) with occurrence counts.
  const std::vector<std::pair<SummaryChar, uint64_t>> &roots() const {
    return Roots;
  }

  /// Occurrence count of every alphabet entry in the (virtual) full trace,
  /// computed by one top-down pass over the alphabet — the "process each
  /// character instead of each dynamic region" trick of §4.4.
  std::vector<uint64_t> computeMultiplicities() const;

  /// Total dynamic regions summarized (intern calls).
  uint64_t numDynamicRegions() const { return DynRegions; }

  /// Intern calls that reused an existing alphabet character (the
  /// compression win; misses == alphabet().size()).
  uint64_t hits() const { return Hits; }

  /// Bytes a raw, uncompressed region-summary log would occupy.
  uint64_t rawTraceBytes() const { return DynRegions * RawRecordBytes; }

  /// Bytes of the compressed representation (alphabet + child lists +
  /// root table).
  uint64_t compressedBytes() const;

  /// rawTraceBytes() / compressedBytes().
  double compressionRatio() const;

  /// Restores the dynamic-region count when deserializing a trace whose
  /// interning already counted each alphabet entry once.
  void setDynamicRegions(uint64_t Count) { DynRegions = Count; }

private:
  /// One slot of the content-addressed index over the alphabet.
  struct Slot {
    size_t Hash = 0;
    SummaryChar Char = EmptySlot;
  };
  static constexpr SummaryChar EmptySlot = UINT32_MAX;

  static size_t hashOf(const DynRegionSummary &S);
  /// Doubles Index (16 slots at first) and re-places every entry.
  void growIndex();

  std::vector<DynRegionSummary> Alphabet;
  /// Open addressing with linear probing over a power-of-two table at most
  /// half full. Slots name alphabet characters, so each summary is stored
  /// once, in Alphabet.
  std::vector<Slot> Index;
  std::vector<std::pair<SummaryChar, uint64_t>> Roots;
  uint64_t DynRegions = 0;
  uint64_t Hits = 0;
};

} // namespace kremlin

#endif // KREMLIN_COMPRESS_DICTIONARY_H

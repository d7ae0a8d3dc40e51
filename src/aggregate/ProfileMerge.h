//===- aggregate/ProfileMerge.h - HCPA profile merge ------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet-scale merge operator over compressed HCPA profiles. A merged
/// profile is defined as the profile of the *concatenated* runs, and the
/// implementation makes that literal at the dictionary level: merging
/// interns every alphabet entry of the incoming dictionary into the target
/// (remapping child characters through the content-addressed index) and
/// concatenates the root tables. Because `ParallelismProfile` aggregates
/// per dictionary entry with work×multiplicity weights, the merged profile
/// automatically recombines self-parallelism as the work-weighted
/// composition of the inputs and preserves the ΣSelfWork == root-work
/// invariant — no per-metric merge formulas to get wrong, and the operator
/// is associative and commutative up to alphabet numbering.
///
/// Also here: the synthetic module (fleet profiles arrive without source,
/// so views need placeholder static regions) and flat per-region rows used
/// by `kremlin diff` and the merge property tests (row aggregates are
/// alphabet-order independent, unlike the dictionaries themselves).
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_AGGREGATE_PROFILEMERGE_H
#define KREMLIN_AGGREGATE_PROFILEMERGE_H

#include "compress/Dictionary.h"
#include "ir/Module.h"
#include "profile/ParallelismProfile.h"

#include <string>
#include <vector>

namespace kremlin {
namespace aggregate {

/// Merges \p In into \p Out: alphabet union with child-character remapping,
/// root-table concatenation, dynamic-region counts summed. Equivalent to
/// having profiled both runs into one sink.
void mergeInto(DictionaryCompressor &Out, const DictionaryCompressor &In);

/// Merges \p Runs (any count, empties allowed) into a fresh dictionary.
DictionaryCompressor mergeProfiles(
    const std::vector<const DictionaryCompressor *> &Runs);

/// A placeholder module for profiles whose source is unavailable (fleet
/// ingests ship only the compressed trace): one Function-kind region
/// "r<id>" per static region id referenced by \p Dict, so every view and
/// planner path works unmodified. Ids keep their numeric identity —
/// regions merge across profiles by static region id exactly as they
/// would with the real module.
Module syntheticModule(const DictionaryCompressor &Dict);

/// One flat per-region row (the diff/property-test view of a profile).
struct RegionRow {
  RegionId Id = NoRegion;
  uint64_t Instances = 0;
  uint64_t TotalWork = 0;
  uint64_t TotalCp = 0;
  uint64_t TotalChildren = 0;
  double SelfParallelism = 1.0;
  double CoveragePct = 0.0;
};

/// Whole-program work of \p Dict: Σ over root characters of work × count,
/// saturating at UINT64_MAX. Merge preserves this additively below that
/// bound: programWork(merge(a,b)) == programWork(a) + programWork(b).
uint64_t programWork(const DictionaryCompressor &Dict);

/// Executed regions of \p Dict as rows sorted by id. Row aggregates are
/// independent of alphabet numbering, so two dictionaries describing the
/// same runs (e.g. merges in different orders) produce identical rows up
/// to floating-point roundoff in SP.
std::vector<RegionRow> regionRows(const DictionaryCompressor &Dict);

/// Renders the per-region work/SP/coverage deltas between \p Before and
/// \p After as an aligned table (TablePrinter; the `stats --diff`
/// conventions: one row per region present in either side, "n/a" for a
/// side that never executed the region).
std::string renderProfileDiff(const DictionaryCompressor &Before,
                              const DictionaryCompressor &After);

} // namespace aggregate
} // namespace kremlin

#endif // KREMLIN_AGGREGATE_PROFILEMERGE_H

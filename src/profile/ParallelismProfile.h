//===- profile/ParallelismProfile.h - Per-region aggregates -----*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallelism profile: per-static-region aggregation of the compressed
/// HCPA trace. Implements the paper's two key metrics:
///
///   self-parallelism (Eq. 1):
///       SP(R) = (Σ_k cp(child(R,k)) + SW(R)) / cp(R)
///   self-work (Eq. 2):
///       SW(R) = work(R) − Σ_k work(child(R,k))
///
/// computed per dictionary entry (never per dynamic region — §4.4's
/// planning-on-compressed-data property) and aggregated per static region
/// by work-weighted averaging. Also derives total-parallelism (plain CPA's
/// work/cp, the §6.2 comparison baseline), execution coverage, loop
/// classification (DOALL by SP ≈ iteration-count equivalence, §5.1), and
/// the dynamic region graph (observed static nesting with work weights).
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_PROFILE_PARALLELISMPROFILE_H
#define KREMLIN_PROFILE_PARALLELISMPROFILE_H

#include "compress/Dictionary.h"
#include "ir/Module.h"
#include "support/Status.h"

#include <string>
#include <vector>

namespace kremlin {

/// How a loop region executes, judged from its profile.
enum class LoopClass : unsigned char {
  NotLoop,
  Doall,    ///< SP tracks the iteration count: fully parallel iterations.
  Doacross, ///< 1 << SP << iterations: cross-iteration overlap only.
  Serial    ///< SP ≈ 1.
};

const char *loopClassName(LoopClass C);

/// Aggregated profile of one static region.
struct RegionProfileEntry {
  RegionId Id = NoRegion;
  bool Executed = false;

  /// Dynamic instances observed.
  uint64_t Instances = 0;
  /// Σ work over all instances.
  uint64_t TotalWork = 0;
  /// Σ cp over all instances.
  uint64_t TotalCp = 0;
  /// Σ dynamic children over all instances (loop: total iterations).
  uint64_t TotalChildren = 0;

  /// Work-weighted mean self-parallelism (≥ 1).
  double SelfParallelism = 1.0;
  /// Work-weighted mean total-parallelism work/cp (≥ 1) — classic CPA.
  double TotalParallelism = 1.0;
  /// Percent of whole-program work spent in this region [0, 100].
  double CoveragePct = 0.0;

  LoopClass Class = LoopClass::NotLoop;

  /// Mean iterations per instance (loops).
  double avgIterations() const {
    return Instances ? static_cast<double>(TotalChildren) /
                           static_cast<double>(Instances)
                     : 0.0;
  }
  double avgWork() const {
    return Instances ? static_cast<double>(TotalWork) /
                           static_cast<double>(Instances)
                     : 0.0;
  }
};

/// One observed parent->child static nesting edge, work-weighted.
struct RegionEdge {
  RegionId Parent = NoRegion;
  RegionId Child = NoRegion;
  /// Σ over dynamic occurrences of child under parent of the child's work.
  uint64_t Work = 0;
  /// Dynamic occurrence count.
  uint64_t Count = 0;
};

/// Checks that every region id in \p Dict names one of \p M's regions. A
/// trace saved from another program fails here, naming the id and the
/// region count, instead of indexing past the profile's region table.
Status checkTraceRegions(const Module &M, const DictionaryCompressor &Dict);

/// The whole-program parallelism profile.
class ParallelismProfile {
public:
  /// Builds the profile for \p M from a completed profiling run's
  /// dictionary. \p DoallTolerance is the relative slack for the SP ≈
  /// iteration-count DOALL check.
  ParallelismProfile(const Module &M, const DictionaryCompressor &Dict,
                     double DoallTolerance = 0.2);

  /// Multi-run aggregation (paper §2.4): builds one profile from several
  /// profiling runs of the same module (typically with different inputs),
  /// reducing input-dependence risk. Work/instances accumulate across
  /// runs; SP/TP are work-weighted across all runs' dictionary entries.
  ParallelismProfile(const Module &M,
                     const std::vector<const DictionaryCompressor *> &Runs,
                     double DoallTolerance = 0.2);

  const RegionProfileEntry &entry(RegionId R) const { return Entries[R]; }
  const std::vector<RegionProfileEntry> &entries() const { return Entries; }
  const std::vector<RegionEdge> &edges() const { return Edges; }
  uint64_t programWork() const { return ProgramWork; }
  const Module &module() const { return *M; }

  /// Children of \p R in the observed region graph (edge indices).
  const std::vector<uint32_t> &childEdges(RegionId R) const {
    return ChildEdgeIndex[R];
  }

  /// The root region (main's Function region), NoRegion if nothing ran.
  RegionId rootRegion() const { return Root; }

  /// Serializes per-region rows for logging/tests.
  std::string toText() const;

private:
  const Module *M;
  std::vector<RegionProfileEntry> Entries;
  std::vector<RegionEdge> Edges;
  std::vector<std::vector<uint32_t>> ChildEdgeIndex;
  uint64_t ProgramWork = 0;
  RegionId Root = NoRegion;
};

/// Self-parallelism of one summary given its children's summaries — the
/// paper's Eq. 1/2 evaluated on dictionary entries. Exposed for tests.
double summarySelfParallelism(const DynRegionSummary &S,
                              const std::vector<DynRegionSummary> &Alphabet);

} // namespace kremlin

#endif // KREMLIN_PROFILE_PARALLELISMPROFILE_H

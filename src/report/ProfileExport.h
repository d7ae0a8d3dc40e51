//===- report/ProfileExport.h - Profile explorer exports --------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exports the HCPA parallelism profile as artifacts a programmer can
/// actually look at (the gprof lesson: a profiler is its report). The
/// observed region graph is flattened into a work-weighted tree whose
/// frames carry self-parallelism annotations, then rendered as:
///
///  - speedscope JSON ("sampled" profile; one sample per tree node,
///    weighted by self-work) — drop the file on speedscope.app and the
///    flamegraph shows where work and self-parallelism live;
///  - collapsed-stacks text (flamegraph.pl / speedscope both ingest it);
///  - a per-region timeline JSON: every unique dynamic behavior of a
///    region (one per dictionary-alphabet entry, multiplicity-weighted)
///    with its work, cp, and self-parallelism;
///  - a terminal tree view via TablePrinter.
///
/// All exports operate on the compressed profile (never the raw dynamic
/// region stream) — the §4.4 planning-on-compressed-data property extends
/// to reporting.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_REPORT_PROFILEEXPORT_H
#define KREMLIN_REPORT_PROFILEEXPORT_H

#include "compress/Dictionary.h"
#include "profile/ParallelismProfile.h"

#include <string>
#include <vector>

namespace kremlin {
namespace report {

/// Shared knobs for every export format.
struct ReportOptions {
  /// Prune tree nodes whose path-work coverage is below this percentage;
  /// pruned subtrees fold back into the parent's self-work so totals are
  /// preserved.
  double MinCoveragePct = 0.0;
  /// Keep only the N highest-work rows in flat outputs (tree/timeline);
  /// 0 means unlimited. Stack-shaped outputs (speedscope/collapsed) keep
  /// ancestors of kept nodes regardless.
  unsigned Top = 0;
};

/// One node of the flattened region tree, preorder. A static region can
/// appear several times (once per distinct observed call path); recursive
/// back-edges are cut.
struct RegionTreeNode {
  RegionId Region = NoRegion;
  /// Index of the parent node in RegionTree::Nodes, -1 for the root.
  int Parent = -1;
  unsigned Depth = 0;
  /// Inclusive work attributed to this path (the observed edge weight).
  uint64_t Work = 0;
  /// Work minus the work of kept children — the flamegraph sample weight.
  uint64_t SelfWork = 0;
  /// Dynamic visits along this path (edge count; instances for the root).
  uint64_t Visits = 0;
  double SelfParallelism = 1.0;
  /// Work / programWork, percent.
  double CoveragePct = 0.0;
};

/// The flattened, pruned region tree every export renders from.
struct RegionTree {
  std::vector<RegionTreeNode> Nodes; ///< Preorder; Nodes[0] is the root.
  uint64_t ProgramWork = 0;
};

/// Builds the tree from the profile's observed region graph, cutting
/// recursion cycles and applying MinCoveragePct pruning. Children are
/// ordered by descending work.
RegionTree buildRegionTree(const ParallelismProfile &P,
                           const ReportOptions &Opts = ReportOptions());

/// Speedscope file-format JSON (validated: output always parses). \p Name
/// labels the profile inside the UI.
std::string exportSpeedscope(const ParallelismProfile &P, const RegionTree &T,
                             const std::string &Name);

/// Collapsed-stacks text: one "frame;frame;frame weight" line per tree
/// node with nonzero self-work. Frame labels are space-free so
/// flamegraph.pl's last-space split stays unambiguous.
std::string exportCollapsed(const ParallelismProfile &P, const RegionTree &T);

/// Per-region timeline JSON: for each reported region, one entry per
/// unique dynamic behavior (dictionary-alphabet entry) carrying work, cp,
/// self-parallelism, and the multiplicity with which it occurred.
std::string exportTimeline(const ParallelismProfile &P,
                           const DictionaryCompressor &Dict,
                           const ReportOptions &Opts = ReportOptions());

/// Terminal tree view (TablePrinter-aligned).
std::string renderTree(const ParallelismProfile &P, const RegionTree &T,
                       const ReportOptions &Opts = ReportOptions());

} // namespace report
} // namespace kremlin

#endif // KREMLIN_REPORT_PROFILEEXPORT_H

//===- aggregate/AggregateTool.h - merge/diff CLI ---------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Subcommand entry points for offline profile aggregation:
///
///   kremlin merge <a.prof> <b.prof>... --out=<merged.prof> [--store=<dir>]
///   kremlin diff  <a.prof> <b.prof>
///
/// Each main takes argv minus the program and subcommand words, mirroring
/// report::reportMain.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_AGGREGATE_AGGREGATETOOL_H
#define KREMLIN_AGGREGATE_AGGREGATETOOL_H

#include <string>
#include <vector>

namespace kremlin {
namespace aggregate {

/// `kremlin merge`: merge compressed profiles into one.
int mergeMain(const std::vector<std::string> &Args);

/// `kremlin diff`: per-region work/SP deltas between two profiles.
int diffMain(const std::vector<std::string> &Args);

} // namespace aggregate
} // namespace kremlin

#endif // KREMLIN_AGGREGATE_AGGREGATETOOL_H

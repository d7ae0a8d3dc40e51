//===- perfbench/Workloads.h - Seeded inputs and output checks --*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generators behind the seeded workloads and the checks each item's
/// output must pass. Exposed so the benchmark's own tests can drive them
/// with fixed seeds and deliberately corrupted outputs.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_PERFBENCH_WORKLOADS_H
#define KREMLIN_PERFBENCH_WORKLOADS_H

#include "analysis/StaticDependence.h"
#include "ir/Module.h"
#include "planner/Plan.h"
#include "suite/SourceGenerator.h"

#include <cstdint>
#include <string>
#include <vector>

namespace kremlin {
namespace perfbench {

/// lint-corpus: files mixing every SiteKind, sizes log-spaced from 4 KB up
/// to sp's size (~150 KB).
std::vector<GeneratedBenchmark> generateLintCorpus(uint64_t Seed);

/// profile-bigmem: a few HotDoall/SerialChain sites over 10^5..10^6-word
/// arrays per program; total words per program log-spaced.
std::vector<GeneratedBenchmark> generateBigmemCorpus(uint64_t Seed);

/// Fails when a SerialChain loop is proven DOALL. Returns "" when the
/// verdicts agree with the generator's loop map.
std::string checkLintVerdicts(const GeneratedBenchmark &GB, const Module &M,
                              const StaticAnalysisResult &Static);

/// Fails when the plan includes a SerialChain loop or omits a HotDoall
/// outer loop. Returns "" when the plan agrees with the loop map.
std::string checkPlanAgainstLoopMap(const GeneratedBenchmark &GB,
                                    const Module &M, const Plan &P);

} // namespace perfbench
} // namespace kremlin

#endif // KREMLIN_PERFBENCH_WORKLOADS_H

//===- support/FaultInjection.h - Deterministic fault injection -*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seedable, deterministic fault-injection points so the failure paths of
/// the pipeline are *testable*: stress tests (and operators running fault
/// drills) flip faults on and assert that every layer propagates a clean
/// Status instead of crashing, leaking, or wedging the bench harness.
///
/// Activation is via the KREMLIN_FAULT environment variable (read once) or
/// programmatically via configure() in tests. The spec is a comma list:
///
///   KREMLIN_FAULT=alloc:0.01          fail ~1% of shadow-segment allocations
///   KREMLIN_FAULT=trace_corrupt       fail every compressed-trace decode
///   KREMLIN_FAULT=stage:execute       fail the named pipeline stage
///   KREMLIN_FAULT=bench_throw:0.5     throw from ~50% of bench workers
///   KREMLIN_FAULT=ingest:0.5          fail ~50% of profile ingests
///   KREMLIN_FAULT=store_write:0.5     fail ~50% of profile-store writes
///   KREMLIN_FAULT=alloc:0.05,stage:plan     specs combine
///
/// Probabilistic sites draw from a SplitMix64 stream indexed by a global
/// draw counter, seeded by KREMLIN_FAULT_SEED (default 0): single-threaded
/// runs replay exactly; multi-threaded runs fire the same *set* of draws.
///
/// Cost contract: every site first checks enabled() — one relaxed atomic
/// load — so release binaries without KREMLIN_FAULT pay one predictable
/// branch per (rare) injection point: segment allocation, trace decode,
/// stage entry. Nothing on the per-instruction hot path checks faults.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_SUPPORT_FAULTINJECTION_H
#define KREMLIN_SUPPORT_FAULTINJECTION_H

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace kremlin::fault {

/// Probabilistic injection sites (always-on sites use stageShouldFail).
enum class Site : unsigned char {
  /// Shadow-memory segment allocation (models allocation failure / OOM).
  Alloc,
  /// Compressed-trace decode (models a corrupt/truncated trace file).
  TraceCorrupt,
  /// Bench-harness worker entry: throws instead of returning (exercises
  /// the harness exception boundary).
  BenchThrow,
  /// Profile ingest (trace file reads): models a failed read of a saved
  /// profile so the aggregation path's error plumbing is drillable (spec
  /// keyword `ingest`).
  Ingest,
  /// Profile-store durable write (blob or index): models a disk failure /
  /// crash mid-write — the temp file is left behind, the rename never
  /// happens — so store recovery is drillable (spec keyword `store_write`).
  StoreWrite,
};

namespace detail {
/// Fast-path flag; set by env-var initialization and configure().
extern std::atomic<bool> Active;
/// Reads KREMLIN_FAULT / KREMLIN_FAULT_SEED exactly once.
void initFromEnvOnce();
} // namespace detail

/// True when any fault spec is active. The disabled path is a relaxed
/// atomic load (after one-time env initialization).
inline bool enabled() {
  detail::initFromEnvOnce();
  return detail::Active.load(std::memory_order_relaxed);
}

/// Draws \p S's probability; always false when disabled or the site is not
/// in the active spec.
bool shouldFail(Site S);

/// True when the active spec names `stage:<Stage>`.
bool stageShouldFail(std::string_view Stage);

/// Programmatic activation (tests). Returns false and deactivates on a
/// malformed spec. An empty spec deactivates.
bool configure(std::string_view Spec, uint64_t Seed = 0);

/// Deactivates all injection (tests).
void reset();

/// The active spec string ("" when disabled), for diagnostics.
std::string activeSpec();

} // namespace kremlin::fault

#endif // KREMLIN_SUPPORT_FAULTINJECTION_H

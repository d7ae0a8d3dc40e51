//===- perfbench/Bench.h - The repository benchmark -------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository benchmark: a single-thread, closed-loop driver (one
/// client; the next item starts only when the previous one finished) over
/// four seeded workloads. An untraced run times each item as a user runs
/// it (KremlinDriver::runOnSource / lintSource, or the offline re-plan
/// calls); a traced run calls each layer's public entry point itself and
/// records one span per call. Nothing here reaches inside the layers.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_PERFBENCH_BENCH_H
#define KREMLIN_PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace kremlin {
namespace perfbench {

// --- Clocks --------------------------------------------------------------

/// Monotonic wall clock, milliseconds.
double wallMs();
/// CPU time of the calling thread, milliseconds (CLOCK_THREAD_CPUTIME_ID).
double threadCpuMs();

// --- Percentiles -----------------------------------------------------------

/// Nearest-rank percentile of \p Sorted (ascending, non-empty): the value
/// at rank ceil(P/100 * N), 1-based, clamped to [1, N].
double nearestRank(const std::vector<double> &Sorted, double P);

/// The highest whole percentile, at most \p Want, whose nearest-rank value
/// has at least \p MinBeyond samples above its rank. Returns 50 when even
/// the median has fewer (the caller reports that the tail is unresolved).
unsigned tailPercentile(size_t N, unsigned Want = 90,
                        size_t MinBeyond = 10);

// --- Tracing ---------------------------------------------------------------

/// One recorded span. Names are layer metric stems ("parser.parse").
struct SpanRecord {
  const char *Name = "";
  double StartMs = 0.0;
  double EndMs = 0.0;
  /// Thread CPU time inside the span; negative when not measured (the
  /// aggregated intern span: a CPU clock read costs more than an intern).
  double CpuMs = -1.0;
  /// Index of the enclosing span in Tracer::spans(), -1 for an item root.
  int Parent = -1;
  uint64_t Item = 0;
};

/// Spans and counters of a traced run, kept in memory until the end.
class Tracer {
public:
  /// Opens a span under the innermost open one; returns its index.
  int begin(const char *Name);
  void end(int Span);
  /// Records an already-measured span (summed per-call timings) under the
  /// innermost open span.
  void addSummary(const char *Name, double StartMs, double DurMs);
  /// Adds \p V to the per-item counter \p Name.
  void count(const std::string &Name, double V) { Counters[Name] += V; }

  /// Starts item \p Item: later root spans carry its id.
  void setItem(uint64_t Item) { CurItem = Item; }

  const std::vector<SpanRecord> &spans() const { return Spans; }
  const std::map<std::string, double> &counters() const { return Counters; }

  /// Chrome trace_event JSON ("X" events; args carry item id, parent
  /// index and thread CPU ms).
  std::string toChromeJson() const;

private:
  std::vector<SpanRecord> Spans;
  std::vector<int> Open;
  std::map<std::string, double> Counters;
  uint64_t CurItem = 0;
};

/// RAII span.
class Span {
public:
  Span(Tracer &T, const char *Name) : T(T), Id(T.begin(Name)) {}
  ~Span() { T.end(Id); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer &T;
  int Id;
};

// --- Workloads -------------------------------------------------------------

/// Timings of the generation calls inside one setup() (suite layer).
struct SetupTimes {
  double GenerateMs = 0.0;
  double GenerateCpuMs = 0.0;
};

/// One workload: seeded inputs plus the per-item work.
class Workload {
public:
  virtual ~Workload() = default;

  /// Generates the inputs for \p Seed, replacing earlier ones. The same
  /// seed always yields byte-identical inputs.
  virtual SetupTimes setup(uint64_t Seed) = 0;
  /// Items per pass; the runner cycles through them in order.
  virtual size_t size() const = 0;
  /// Runs item \p I the way a user does, keeping the output for check().
  virtual void run(size_t I) = 0;
  /// Runs item \p I through each layer's entry point under spans.
  virtual void runTraced(size_t I, Tracer &T) = 0;
  /// "" when the last run's output is correct, else the first mismatch.
  virtual std::string check(size_t I) const = 0;
  /// Drops the last output (outside the timed region).
  virtual void clear() = 0;
  /// Name of the spans that are probes, not user work (a plain execution
  /// the user path never does); excluded from the traced-vs-untraced gap.
  virtual const char *probeSpan() const { return nullptr; }
};

/// The four workloads by name; nullptr for an unknown one.
/// \p BaselinePath is bench/baseline.json (profile-suite's expected
/// deterministic outputs).
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const std::string &BaselinePath);

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

// --- Runner ----------------------------------------------------------------

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
};

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
  /// Samples the value was computed from.
  uint64_t Samples = 0;
  /// Set when the value deviates from its definition (e.g. the tail
  /// percentile fell back to a lower rank).
  std::string Note;
};

struct RunResult {
  uint64_t Attempted = 0;
  /// Items that threw, failed a stage, or produced a wrong output.
  uint64_t Failed = 0;
  std::string FirstFailure;
  std::vector<Metric> Metrics;
  /// Traced runs only: spans and the per-layer self-time table.
  Tracer Trace;
  std::string SelfTimeTable;
};

/// Sets up \p W, then measures it for Opts.Seconds, rounded up to whole
/// passes over the items. An item that throws or fails its check is
/// counted and the run continues. Untraced runs report their times in
/// reference milliseconds: wall time scaled by the speed of a fixed
/// reference kernel timed between the items (see Runner.cpp).
RunResult runWorkload(Workload &W, const RunOptions &Opts);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string resultJsonLine(const RunResult &R);

/// Human-readable metric table (name, value, unit, samples, note).
std::string renderMetricTable(const RunResult &R);

} // namespace perfbench
} // namespace kremlin

#endif // KREMLIN_PERFBENCH_BENCH_H

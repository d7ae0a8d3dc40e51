//===- bench/bench_micro_telemetry.cpp - Telemetry overhead benches -------===//
//
// Microbenchmarks for the self-telemetry layer, centered on the contract
// the pipeline instrumentation relies on: with tracing disabled, entering
// and leaving a Span costs one relaxed-atomic increment and nothing else.
// Counter/histogram updates and filtered-out log calls are measured too,
// since they sit on the shadow-memory flush and driver diagnostics paths.
//
//===----------------------------------------------------------------------===//

#include "GBenchJson.h"

#include "support/Telemetry.h"

#include <benchmark/benchmark.h>

using namespace kremlin;

namespace {

/// The disabled fast path: one relaxed fetch_add on the event counter,
/// then an early return. This is what every pipeline stage pays when the
/// user did not ask for a trace.
void BM_SpanDisabled(benchmark::State &State) {
  telemetry::setTraceEnabled(false);
  for (auto _ : State) {
    telemetry::Span S("bench.span");
    benchmark::DoNotOptimize(&S);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_SpanDisabled);

/// The enabled path: record start/stop into the lock-sharded trace buffer.
/// Drained each pause so the buffer does not grow across iterations.
void BM_SpanEnabled(benchmark::State &State) {
  telemetry::setTraceEnabled(true);
  for (auto _ : State) {
    telemetry::Span S("bench.span");
    benchmark::DoNotOptimize(&S);
  }
  telemetry::setTraceEnabled(false);
  telemetry::takeTrace();
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_SpanEnabled);

/// Counts and discards chunks so the benchmark measures the ring + sink
/// hand-off itself, not unbounded accumulation or file I/O.
struct DiscardingSink final : telemetry::TraceSink {
  uint64_t Events = 0;
  void writeBatch(std::vector<telemetry::TraceEvent> Batch) override {
    Events += Batch.size();
  }
};

/// The streaming path: a sink is installed, so full ring shards hand
/// their chunks to it instead of overwriting. This pins the cost of
/// producing a bounded-memory trace so the streaming overhead over
/// BM_SpanEnabled stays visible in baselines.
void BM_SpanStreamingSink(benchmark::State &State) {
  telemetry::TraceSinkConfig Cfg;
  Cfg.RingEvents = 4096;
  (void)telemetry::setTraceSink(std::make_unique<DiscardingSink>(), Cfg);
  for (auto _ : State) {
    telemetry::Span S("bench.span");
    benchmark::DoNotOptimize(&S);
  }
  (void)telemetry::closeTraceSink();
  telemetry::setTraceRingEvents(0);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_SpanStreamingSink);

void BM_CounterAdd(benchmark::State &State) {
  telemetry::Counter &C =
      telemetry::Registry::global().counter("bench.counter");
  for (auto _ : State)
    C.add();
  benchmark::DoNotOptimize(C.value());
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramRecord(benchmark::State &State) {
  telemetry::Histogram &H =
      telemetry::Registry::global().histogram("bench.histogram");
  uint64_t V = 1;
  for (auto _ : State) {
    H.record(V);
    V = V * 2862933555777941757ull + 3037000493ull; // Cheap LCG spread.
  }
  benchmark::DoNotOptimize(H.count());
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_HistogramRecord);

/// A debug log call below the active level: must short-circuit before any
/// formatting happens.
void BM_LogFilteredDebug(benchmark::State &State) {
  telemetry::setLogLevel(telemetry::LogLevel::Error);
  uint64_t N = 0;
  for (auto _ : State) {
    telemetry::logf(telemetry::LogLevel::Debug, "bench",
                    "iteration %llu of %llu",
                    static_cast<unsigned long long>(N),
                    static_cast<unsigned long long>(N + 1));
    ++N;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_LogFilteredDebug);

} // namespace

int main(int argc, char **argv) {
  return kremlin::bench::gbenchJsonMain("micro_telemetry", argc, argv);
}

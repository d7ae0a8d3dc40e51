//===- bench/bench_micro_interp.cpp - Execute-stage microbenchmarks -------===//
//
// Microbenchmarks for the execute stage rebuilt around the pre-decoded
// execution tape and the batched-event runtime interface. Three angles:
//
//  * dispatch-only: plain (unprofiled) execution on the threaded-dispatch
//    tape vs. the legacy switch-over-IR engine — the interpreter speedup
//    in isolation;
//  * shadow-only: KremlinRuntime::consumeBatch driven by a synthetic event
//    stream — HCPA consumption cost with no interpreter attached;
//  * combined: the full profiled execution, which is what the suite's
//    *.execute_wall_ms baselines measure end to end.
//
//===----------------------------------------------------------------------===//

#include "GBenchJson.h"

#include "instrument/Instrumenter.h"
#include "interp/Tape.h"
#include "parser/Lower.h"

#include <benchmark/benchmark.h>

using namespace kremlin;

namespace {

/// Compiles + instruments tracking.c once for all measurements.
const Module &trackingModule() {
  static std::unique_ptr<Module> M = [] {
    LowerResult LR = compileMiniC(trackingSource(), "tracking.c");
    if (!LR.succeeded())
      std::abort();
    instrumentModule(*LR.M);
    return std::move(LR.M);
  }();
  return *M;
}

// --- Dispatch only ------------------------------------------------------

void BM_TapeDispatchPlain(benchmark::State &State) {
  InterpConfig Cfg;
  Cfg.UseTape = true;
  Interpreter Interp(trackingModule(), Cfg);
  uint64_t Instructions = 0;
  for (auto _ : State) {
    ExecResult R = Interp.run();
    if (!R.Ok)
      State.SkipWithError("execution failed");
    Instructions += R.DynInstructions;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Instructions));
}
BENCHMARK(BM_TapeDispatchPlain)->Unit(benchmark::kMillisecond);

void BM_SwitchDispatchPlain(benchmark::State &State) {
  InterpConfig Cfg;
  Cfg.UseTape = false;
  Interpreter Interp(trackingModule(), Cfg);
  uint64_t Instructions = 0;
  for (auto _ : State) {
    ExecResult R = Interp.run();
    if (!R.Ok)
      State.SkipWithError("execution failed");
    Instructions += R.DynInstructions;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Instructions));
}
BENCHMARK(BM_SwitchDispatchPlain)->Unit(benchmark::kMillisecond);

/// Module -> tape decode cost, segment summaries included (paid once per
/// profiled execution).
void BM_TapeDecode(benchmark::State &State) {
  const Module &M = trackingModule();
  std::vector<uint64_t> GlobalBase(M.Globals.size(), 0);
  LatencyTable Lat = makeLatencyTable(LatencyModel());
  for (auto _ : State) {
    ModuleTape Tape(M, GlobalBase, &Lat);
    benchmark::DoNotOptimize(Tape.Funcs.data());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_TapeDecode);

// --- Shadow only --------------------------------------------------------

/// A sink that discards summaries (isolates the consumption path).
class NullSink : public RegionSummarySink {
public:
  SummaryChar intern(DynRegionSummary) override { return 0; }
  void onRootExit(SummaryChar) override {}
};

ProfEvent opEvent(Opcode Op, uint32_t Dst, uint32_t A, uint32_t B) {
  ProfEvent E;
  E.Kind = static_cast<uint8_t>(EvKind::Op);
  E.Opc = static_cast<uint8_t>(Op);
  E.A = Dst;
  E.B = A;
  E.C = B;
  return E;
}

/// consumeBatch on a synthetic arithmetic-heavy batch: the suite's measured
/// event mix is dominated by plain ops, so this is the consumption hot
/// path (dispatch + watermark-checked slot loop) with no producer cost.
void BM_ConsumeBatchOps(benchmark::State &State) {
  NullSink Sink;
  KremlinConfig Cfg;
  KremlinRuntime RT(Cfg, Sink);
  RT.pushFrame(/*NumRegs=*/64);
  unsigned Depth = static_cast<unsigned>(State.range(0));
  for (unsigned D = 0; D < Depth; ++D)
    RT.enterRegion(D);
  std::vector<ProfEvent> Batch;
  Batch.reserve(ProfEventBatchSize);
  for (size_t I = 0; I < ProfEventBatchSize; ++I)
    Batch.push_back(opEvent(Opcode::Add, (I + 2) % 64, I % 64, (I + 1) % 64));
  for (auto _ : State)
    RT.consumeBatch(Batch.data(), Batch.size());
  State.SetItemsProcessed(
      static_cast<int64_t>(State.iterations() * Batch.size()));
}
BENCHMARK(BM_ConsumeBatchOps)->Arg(2)->Arg(6)->Arg(12);

/// consumeBatch across a region boundary: enter/exit plus a burst of ops —
/// exercises the structural events (instance retag, summary interning)
/// that a pure op batch skips.
void BM_ConsumeBatchRegionCycle(benchmark::State &State) {
  NullSink Sink;
  KremlinConfig Cfg;
  KremlinRuntime RT(Cfg, Sink);
  RT.pushFrame(/*NumRegs=*/64);
  RT.enterRegion(0);
  std::vector<ProfEvent> Batch;
  Batch.reserve(ProfEventBatchSize);
  for (size_t I = 0; I + 34 <= ProfEventBatchSize;) {
    ProfEvent Enter;
    Enter.Kind = static_cast<uint8_t>(EvKind::RegionEnter);
    Enter.A = 1;
    Batch.push_back(Enter);
    ++I;
    for (unsigned K = 0; K < 32; ++K, ++I)
      Batch.push_back(
          opEvent(Opcode::Add, (I + 2) % 64, I % 64, (I + 1) % 64));
    ProfEvent Exit;
    Exit.Kind = static_cast<uint8_t>(EvKind::RegionExit);
    Exit.A = 1;
    Batch.push_back(Exit);
    ++I;
  }
  for (auto _ : State)
    RT.consumeBatch(Batch.data(), Batch.size());
  State.SetItemsProcessed(
      static_cast<int64_t>(State.iterations() * Batch.size()));
}
BENCHMARK(BM_ConsumeBatchRegionCycle);

/// Frame push/pop churn: the call-heavy path whose per-call cost the
/// watermark scheme collapses from a cell memset to a row-watermark clear.
void BM_ConsumeBatchCallChurn(benchmark::State &State) {
  NullSink Sink;
  KremlinConfig Cfg;
  KremlinRuntime RT(Cfg, Sink);
  RT.pushFrame(/*NumRegs=*/64);
  RT.enterRegion(0);
  std::vector<ProfEvent> Batch;
  Batch.reserve(ProfEventBatchSize);
  for (size_t I = 0; I + 8 <= ProfEventBatchSize;) {
    ProfEvent Push;
    Push.Kind = static_cast<uint8_t>(EvKind::PushFrame);
    Push.A = 96;
    Batch.push_back(Push);
    ++I;
    for (unsigned K = 0; K < 6; ++K, ++I)
      Batch.push_back(
          opEvent(Opcode::Add, (I + 2) % 64, I % 64, (I + 1) % 64));
    ProfEvent Pop;
    Pop.Kind = static_cast<uint8_t>(EvKind::PopFrame);
    Batch.push_back(Pop);
    ++I;
  }
  for (auto _ : State)
    RT.consumeBatch(Batch.data(), Batch.size());
  State.SetItemsProcessed(
      static_cast<int64_t>(State.iterations() * Batch.size()));
}
BENCHMARK(BM_ConsumeBatchCallChurn);

// --- Combined -----------------------------------------------------------

void BM_ProfiledExecutionTape(benchmark::State &State) {
  InterpConfig ICfg;
  ICfg.UseTape = true;
  Interpreter Interp(trackingModule(), ICfg);
  uint64_t Instructions = 0;
  for (auto _ : State) {
    DictionaryCompressor Dict;
    KremlinConfig Cfg;
    KremlinRuntime RT(Cfg, Dict);
    ExecResult R = Interp.run(&RT);
    if (!R.Ok)
      State.SkipWithError("execution failed");
    Instructions += R.DynInstructions;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Instructions));
}
BENCHMARK(BM_ProfiledExecutionTape)->Unit(benchmark::kMillisecond);

void BM_ProfiledExecutionSwitch(benchmark::State &State) {
  InterpConfig ICfg;
  ICfg.UseTape = false;
  Interpreter Interp(trackingModule(), ICfg);
  uint64_t Instructions = 0;
  for (auto _ : State) {
    DictionaryCompressor Dict;
    KremlinConfig Cfg;
    KremlinRuntime RT(Cfg, Dict);
    ExecResult R = Interp.run(&RT);
    if (!R.Ok)
      State.SkipWithError("execution failed");
    Instructions += R.DynInstructions;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Instructions));
}
BENCHMARK(BM_ProfiledExecutionSwitch)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  return kremlin::bench::gbenchJsonMain("micro_interp", argc, argv);
}

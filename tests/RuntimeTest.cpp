//===- tests/RuntimeTest.cpp - shadow memory and KremLib runtime ----------===//

#include "TestUtil.h"

#include "rt/Segment.h"
#include "rt/ShadowMemory.h"
#include "support/Prng.h"

using namespace kremlin;
using namespace kremlin::test;

namespace {

// --- ShadowMemory unit tests -------------------------------------------------

TEST(ShadowMemory, ReadsZeroWhenUntouched) {
  ShadowMemory Mem(8);
  EXPECT_EQ(Mem.read(0, 0, 1), 0u);
  EXPECT_EQ(Mem.read(123456, 7, 99), 0u);
  EXPECT_EQ(Mem.allocatedSegments(), 0u);
}

TEST(ShadowMemory, WriteThenReadSameTag) {
  ShadowMemory Mem(8);
  Mem.write(100, 3, /*Tag=*/42, /*T=*/777);
  EXPECT_EQ(Mem.read(100, 3, 42), 777u);
  // Different slot or address: still zero.
  EXPECT_EQ(Mem.read(100, 2, 42), 0u);
  EXPECT_EQ(Mem.read(101, 3, 42), 0u);
}

TEST(ShadowMemory, StaleTagReadsZero) {
  ShadowMemory Mem(8);
  Mem.write(100, 3, /*Tag=*/42, /*T=*/777);
  EXPECT_EQ(Mem.read(100, 3, /*Tag=*/43), 0u);
  // Rewriting with the new tag replaces the cell.
  Mem.write(100, 3, 43, 5);
  EXPECT_EQ(Mem.read(100, 3, 43), 5u);
  EXPECT_EQ(Mem.read(100, 3, 42), 0u);
}

TEST(ShadowMemory, LazySegmentAllocation) {
  ShadowMemory Mem(4, /*SegmentWords=*/256);
  EXPECT_EQ(Mem.allocatedSegments(), 0u);
  Mem.write(0, 0, 1, 1);
  EXPECT_EQ(Mem.allocatedSegments(), 1u);
  Mem.write(255, 0, 1, 1); // Same segment.
  EXPECT_EQ(Mem.allocatedSegments(), 1u);
  Mem.write(256, 0, 1, 1); // Next segment.
  EXPECT_EQ(Mem.allocatedSegments(), 2u);
  Mem.write(256 * 50, 0, 1, 1); // Far segment; the gap stays unallocated.
  EXPECT_EQ(Mem.allocatedSegments(), 3u);
  EXPECT_GT(Mem.allocatedBytes(), 0u);
}

TEST(ShadowMemory, ReleaseRangeFreesWholeSegments) {
  ShadowMemory Mem(4, /*SegmentWords=*/256);
  for (uint64_t A = 0; A < 1024; A += 64)
    Mem.write(A, 0, 1, A + 1);
  EXPECT_EQ(Mem.allocatedSegments(), 4u);
  // Release the middle two segments exactly.
  Mem.releaseRange(256, 512);
  EXPECT_EQ(Mem.allocatedSegments(), 2u);
  EXPECT_EQ(Mem.read(256, 0, 1), 0u);
  EXPECT_EQ(Mem.read(0, 0, 1), 1u);
  // Partially covered segments must survive.
  Mem.releaseRange(3, 100);
  EXPECT_EQ(Mem.read(0, 0, 1), 1u);
}

// --- Runtime behaviour through profiled execution ----------------------------

TEST(Runtime, WorkCountsLatencyUnits) {
  ProfiledRun Run = profileSource(R"(
    int main() {
      int a = 1;
      int b = a + 2;
      int c = b * 3;
      return c;
    }
  )");
  const RegionProfileEntry *Main =
      findRegion(Run, RegionKind::Function, "main");
  ASSERT_NE(Main, nullptr);
  // add + mul: consts and moves are free, and the final ret executes after
  // the function region has exited. Work is small and positive.
  EXPECT_GE(Main->TotalWork, 2u);
  EXPECT_LE(Main->TotalWork, 8u);
}

TEST(Runtime, SerialChainCpEqualsWork) {
  // A pure dependence chain: every op depends on the previous one, so at
  // the function level cp == chain length.
  ProfiledRun Run = profileSource(R"(
    int main() {
      int x = 1;
      x = x * 3;
      x = x + 5;
      x = x * 2;
      x = x - 7;
      return x;
    }
  )");
  const RegionProfileEntry *Main =
      findRegion(Run, RegionKind::Function, "main");
  ASSERT_NE(Main, nullptr);
  EXPECT_NEAR(Main->TotalParallelism, 1.0, 0.35);
}

TEST(Runtime, IndependentOpsOverlap) {
  ProfiledRun Run = profileSource(R"(
    int main() {
      int a = 3 * 5;
      int b = 4 * 6;
      int c = 7 * 2;
      int d = 9 * 9;
      return a + b + (c + d);
    }
  )");
  const RegionProfileEntry *Main =
      findRegion(Run, RegionKind::Function, "main");
  ASSERT_NE(Main, nullptr);
  // Four independent muls + a 2-level add tree: TP around 2+.
  EXPECT_GT(Main->TotalParallelism, 1.8);
}

TEST(Runtime, MemoryCarriesDependences) {
  // The dependence flows through the array cell: serial at function level.
  ProfiledRun Run = profileSource(R"(
    int a[2];
    int main() {
      a[0] = 1;
      a[1] = a[0] * 3;
      a[0] = a[1] * 7;
      a[1] = a[0] + a[1];
      return a[1];
    }
  )");
  const RegionProfileEntry *Main =
      findRegion(Run, RegionKind::Function, "main");
  ASSERT_NE(Main, nullptr);
  EXPECT_LT(Main->TotalParallelism, 2.6);
}

TEST(Runtime, AntiAndOutputDependencesIgnored) {
  // Overwriting a cell (output dep) and writing after reading (anti dep)
  // must NOT serialize: only flow dependences count (§4.1).
  ProfiledRun Run = profileSource(R"(
    int a[1];
    int main() {
      int s = 0;
      for (int i = 0; i < 64; i = i + 1) {
        a[0] = i * 3 + 1; // Output dependence across iterations only.
        s = s + a[0] % 7;
      }
      return s;
    }
  )");
  const RegionProfileEntry *L = findRegion(Run, RegionKind::Loop, "main");
  ASSERT_NE(L, nullptr);
  // Despite every iteration touching a[0], iterations overlap: within an
  // iteration the read sees its own store (flow), but no cross-iteration
  // chain exists once anti/output deps are ignored and s is a reduction.
  EXPECT_GT(L->SelfParallelism, 20.0);
}

TEST(Runtime, DepthWindowLimitsTracking) {
  // With a 1-level window only the outermost region gets a measured cp;
  // deeper regions fall back to cp == work (serial assumption), but all
  // work totals stay exact.
  const char *Src = R"(
    int a[16];
    int main() {
      for (int i = 0; i < 16; i = i + 1) { a[i] = i * 3; }
      return a[5];
    }
  )";
  KremlinConfig Narrow;
  Narrow.NumLevels = 1;
  ProfiledRun NarrowRun = profileSource(Src, Narrow);
  ProfiledRun WideRun = profileSource(Src);

  const RegionProfileEntry *NarrowMain =
      findRegion(NarrowRun, RegionKind::Function, "main");
  const RegionProfileEntry *WideMain =
      findRegion(WideRun, RegionKind::Function, "main");
  ASSERT_NE(NarrowMain, nullptr);
  ASSERT_NE(WideMain, nullptr);
  EXPECT_EQ(NarrowMain->TotalWork, WideMain->TotalWork);

  const RegionProfileEntry *NarrowLoop =
      findRegion(NarrowRun, RegionKind::Loop, "main");
  const RegionProfileEntry *WideLoop =
      findRegion(WideRun, RegionKind::Loop, "main");
  ASSERT_NE(NarrowLoop, nullptr);
  ASSERT_NE(WideLoop, nullptr);
  // Outside the window: cp == work at the loop level.
  EXPECT_EQ(NarrowLoop->TotalCp, NarrowLoop->TotalWork);
  EXPECT_LT(WideLoop->TotalCp, WideLoop->TotalWork);
}

TEST(Runtime, MinLevelSkipsShallowLevels) {
  // MinLevel=1: level 0 (main) untracked, loop level tracked — the paper's
  // partitioned-collection flag.
  const char *Src = R"(
    int a[16];
    int main() {
      for (int i = 0; i < 16; i = i + 1) { a[i] = i * 3; }
      return a[5];
    }
  )";
  KremlinConfig Cfg;
  Cfg.MinLevel = 1;
  ProfiledRun Run = profileSource(Src, Cfg);
  const RegionProfileEntry *Main =
      findRegion(Run, RegionKind::Function, "main");
  const RegionProfileEntry *Loop = findRegion(Run, RegionKind::Loop, "main");
  ASSERT_NE(Main, nullptr);
  ASSERT_NE(Loop, nullptr);
  EXPECT_EQ(Main->TotalCp, Main->TotalWork); // Untracked: serial fallback.
  EXPECT_LT(Loop->TotalCp, Loop->TotalWork); // Tracked normally.
}

TEST(Runtime, InstanceCountsAndIterations) {
  ProfiledRun Run = profileSource(R"(
    int square(int x) { return x * x; }
    int main() {
      int s = 0;
      for (int t = 0; t < 3; t = t + 1) {
        for (int i = 0; i < 5; i = i + 1) { s = s + square(i); }
      }
      return s;
    }
  )");
  EXPECT_EQ(Run.Exec.ExitValue, 90);
  const RegionProfileEntry *Sq =
      findRegion(Run, RegionKind::Function, "square");
  ASSERT_NE(Sq, nullptr);
  EXPECT_EQ(Sq->Instances, 15u);
  const RegionProfileEntry *Outer = findRegion(Run, RegionKind::Loop, "main");
  ASSERT_NE(Outer, nullptr);
  EXPECT_EQ(Outer->Instances, 1u);
  EXPECT_EQ(Outer->TotalChildren, 3u);
  const RegionProfileEntry *Inner =
      findRegion(Run, RegionKind::Loop, "main", /*Skip=*/1);
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Inner->Instances, 3u);
  EXPECT_EQ(Inner->TotalChildren, 15u);
}

TEST(Runtime, StatsCounters) {
  std::unique_ptr<Module> M = compileOrDie(R"(
    int a[4];
    int main() {
      a[0] = 1;
      a[1] = a[0] + 1;
      return a[1];
    }
  )");
  DictionaryCompressor Dict;
  KremlinConfig Cfg;
  KremlinRuntime RT(Cfg, Dict);
  Interpreter I(*M);
  ExecResult R = I.run(&RT);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(RT.stats().Stores, 2u);
  EXPECT_EQ(RT.stats().Loads, 2u);
  EXPECT_EQ(RT.stats().DynRegionEntries, 1u);
  EXPECT_EQ(RT.stats().MaxDepth, 1u);
  EXPECT_GT(RT.stats().DynInstructions, 4u);
}

TEST(Runtime, MaxDepthIsTheDeepestNesting) {
  // Observed depth, not the configured cap; a later shallower stretch
  // does not lower it.
  std::unique_ptr<Module> M = compileOrDie(R"(
    int a[16];
    int main() {
      for (int i = 0; i < 4; i = i + 1) {
        for (int j = 0; j < 4; j = j + 1) { a[i * 4 + j] = i + j; }
      }
      int s = 0;
      for (int k = 0; k < 16; k = k + 1) { s = s + a[k]; }
      return s;
    }
  )");
  ASSERT_TRUE(instrumentModule(*M).Warnings.empty());
  auto DepthOf = [&](unsigned Cap) {
    DictionaryCompressor Dict;
    KremlinConfig Cfg;
    Cfg.MaxRegionDepth = Cap;
    KremlinRuntime RT(Cfg, Dict);
    Interpreter I(*M);
    EXPECT_TRUE(I.run(&RT).Ok);
    return RT.stats().MaxDepth;
  };
  unsigned Depth = DepthOf(0);
  EXPECT_GE(Depth, 3u); // main + two loop levels at least.
  EXPECT_EQ(DepthOf(1000), Depth);
}

// --- Page pool and frame-row watermarks ----------------------------------

TEST(ShadowMemory, PoolRecyclesReleasedPagesZeroed) {
  ShadowMemory Mem(4, /*SegmentWords=*/256);
  for (uint64_t A = 0; A < 1024; A += 64)
    Mem.write(A, 0, /*Tag=*/1, /*T=*/A + 1);
  EXPECT_EQ(Mem.allocatedSegments(), 4u);
  Mem.releaseRange(0, 1024);
  EXPECT_EQ(Mem.allocatedSegments(), 0u);
  EXPECT_EQ(Mem.releasedSegments(), 4u);
  // A write to a far page must be served from the pool (no new slab page)
  // and the recycled page must come back zeroed: the old tags would
  // otherwise alias a later region instance.
  Mem.write(/*Addr=*/1 << 20, 0, /*Tag=*/1, /*T=*/9);
  EXPECT_EQ(Mem.allocatedSegments(), 1u);
  EXPECT_EQ(Mem.read(1 << 20, 0, 1), 9u);
  EXPECT_EQ(Mem.read((1 << 20) + 1, 0, 1), 0u);
  EXPECT_EQ(Mem.read(0, 0, 1), 0u); // Released page is detached.
}

TEST(ShadowMemory, LevelMajorCellsAreIndependent) {
  // Level-major pages: (w, l) sits next to (w + 1, l) in memory and one
  // level stride from (w, l + 1); the last word of a level run is adjacent
  // to the first word of the next level. Every neighbour reads 0 under the
  // very tag that was written, so a mis-strided index would show.
  ShadowMemory Mem(8, /*SegmentWords=*/256);
  EXPECT_EQ(Mem.levelStride(), 256u);
  Mem.write(100, 3, /*Tag=*/42, /*T=*/777);
  Mem.write(255, 2, /*Tag=*/42, /*T=*/555);
  EXPECT_EQ(Mem.read(100, 3, 42), 777u);
  EXPECT_EQ(Mem.read(99, 3, 42), 0u);
  EXPECT_EQ(Mem.read(101, 3, 42), 0u);
  EXPECT_EQ(Mem.read(100, 2, 42), 0u);
  EXPECT_EQ(Mem.read(100, 4, 42), 0u);
  EXPECT_EQ(Mem.read(255, 2, 42), 555u);
  EXPECT_EQ(Mem.read(0, 3, 42), 0u);   // Next cell in memory.
  EXPECT_EQ(Mem.read(254, 2, 42), 0u);
  EXPECT_EQ(Mem.read(255, 1, 42), 0u);
  EXPECT_EQ(Mem.read(255, 3, 42), 0u);
  EXPECT_EQ(Mem.read(256, 2, 42), 0u); // First word of the next page.
  EXPECT_EQ(Mem.allocatedSegments(), 1u);
  EXPECT_EQ(Mem.levelsTouched(), 4u);
}

TEST(ShadowMemory, RecycledPageReadsZeroAtEveryLevel) {
  // A shallow run (levels 0-1) fills a page and releases it; the page is
  // re-zeroed only over the two touched levels. Its reuse writes deeper
  // levels, and must still read 0 everywhere else, at every level and
  // under every tag that was ever written.
  constexpr unsigned Levels = 8;
  constexpr uint64_t Words = 256;
  uint64_t PageBytes = Words * Levels * sizeof(ShadowCell);
  ShadowMemory Mem(Levels, Words, /*ByteBudget=*/PageBytes);
  for (uint64_t W = 0; W < Words; ++W) {
    Mem.write(W, 0, /*Tag=*/1, /*T=*/W + 1);
    Mem.write(W, 1, /*Tag=*/2, /*T=*/W + 1);
  }
  EXPECT_EQ(Mem.levelsTouched(), 2u);
  EXPECT_EQ(Mem.touchedBytes(), 2 * Words * sizeof(ShadowCell));
  Mem.releaseRange(0, Words);
  EXPECT_EQ(Mem.allocatedSegments(), 0u);

  auto ExpectOnly = [&](uint64_t Base, uint64_t Word, unsigned Level,
                        uint64_t Tag, Time T) {
    for (uint64_t W = 0; W < Words; ++W)
      for (unsigned L = 0; L < Levels; ++L)
        for (uint64_t G = 1; G <= 4; ++G) {
          Time Want = (W == Word && L == Level && G == Tag) ? T : 0;
          ASSERT_EQ(Mem.read(Base + W, L, G), Want)
              << "word " << W << " level " << L << " tag " << G;
        }
  };

  // The budget admits one page: every reuse must come from the pool. The
  // first reuse stays shallow, so both stale levels must have been zeroed.
  const uint64_t Far = 1 << 20;
  Mem.write(Far + 7, 0, /*Tag=*/3, /*T=*/9);
  ASSERT_TRUE(Mem.status().ok());
  EXPECT_EQ(Mem.allocatedSegments(), 1u);
  EXPECT_EQ(Mem.allocatedBytes(), PageBytes);
  EXPECT_EQ(Mem.levelsTouched(), 2u);
  ExpectOnly(Far, 7, 0, 3, 9);

  // The next reuse writes deeper than anything before it.
  Mem.releaseRange(Far, Words);
  Mem.write(Far + 9, 5, /*Tag=*/4, /*T=*/10);
  ASSERT_TRUE(Mem.status().ok());
  EXPECT_EQ(Mem.levelsTouched(), 6u);
  ExpectOnly(Far, 9, 5, 4, 10);

  // And once more: the deep write is now inside the zeroed prefix.
  Mem.releaseRange(Far, Words);
  Mem.write(Words * 3 + 200, Levels - 1, /*Tag=*/4, /*T=*/11);
  ASSERT_TRUE(Mem.status().ok());
  EXPECT_EQ(Mem.levelsTouched(), Levels);
  EXPECT_EQ(Mem.releasedSegments(), 3u);
  ExpectOnly(Words * 3, 200, Levels - 1, 4, 11);

  // Budget accounting counts whole pages, however few levels were touched.
  Mem.write(Words * 9, 0, 1, 1);
  EXPECT_EQ(Mem.status().code(), ErrorCode::ResourceExhausted);
  EXPECT_EQ(Mem.allocatedSegments(), 1u);
  EXPECT_EQ(Mem.touchedBytes(), Mem.allocatedBytes());
}

TEST(ShadowMemory, ByteBudgetTripsWithStatusAndDropsWrites) {
  // Budget for exactly one page of 4-level cells.
  uint64_t PageBytes = 256 * 4 * sizeof(ShadowCell);
  ShadowMemory Mem(4, /*SegmentWords=*/256, /*ByteBudget=*/PageBytes);
  Mem.write(0, 0, 1, 7);
  EXPECT_TRUE(Mem.status().ok());
  EXPECT_EQ(Mem.read(0, 0, 1), 7u);
  // Second page exceeds the budget: the write is dropped, the status
  // records ResourceExhausted, and existing pages stay readable.
  Mem.write(4096, 0, 1, 9);
  EXPECT_FALSE(Mem.status().ok());
  EXPECT_EQ(Mem.status().code(), ErrorCode::ResourceExhausted);
  EXPECT_EQ(Mem.read(4096, 0, 1), 0u);
  EXPECT_EQ(Mem.read(0, 0, 1), 7u);
  EXPECT_EQ(Mem.allocatedSegments(), 1u);
}

TEST(Runtime, ShadowBudgetTripSurfacesOnShortRuns) {
  // The budget trips inside the run's final event batch, after the last
  // engine-side guardrail poll — the end-of-run check must still fail the
  // execution instead of reporting success with a tripped runtime.
  std::unique_ptr<Module> M = compileOrDie(R"(
    int big[100000];
    int main() {
      int s = 0;
      for (int i = 0; i < 100000; i = i + 4096) { big[i] = i; s = s + 1; }
      return s;
    }
  )");
  instrumentModule(*M);
  DictionaryCompressor Dict;
  KremlinConfig Cfg;
  Cfg.MaxShadowBytes = // Exactly one shadow page fits.
      Cfg.SegmentWords * Cfg.NumLevels * sizeof(ShadowCell);
  for (bool UseTape : {true, false}) {
    InterpConfig ICfg;
    ICfg.UseTape = UseTape;
    KremlinRuntime RT(Cfg, Dict);
    Interpreter I(*M, ICfg);
    ExecResult R = I.run(&RT);
    EXPECT_FALSE(R.Ok) << (UseTape ? "tape" : "switch");
    EXPECT_EQ(R.Err.code(), ErrorCode::ResourceExhausted);
  }
}

/// Collects every interned summary so tests can assert on work/cp exactly.
class CaptureSink : public RegionSummarySink {
public:
  std::vector<DynRegionSummary> Summaries;
  SummaryChar intern(DynRegionSummary S) override {
    Summaries.push_back(std::move(S));
    return static_cast<SummaryChar>(Summaries.size() - 1);
  }
  void onRootExit(SummaryChar) override {}
};

TEST(Runtime, RecycledFrameRowsReadZero) {
  // Frames are recycled by depth without clearing their cell arrays; the
  // per-row watermark must make stale times from a previous call at the
  // same depth unreadable. A leak here would lift cp from 10 to 11.
  CaptureSink Sink;
  KremlinConfig Cfg;
  KremlinRuntime RT(Cfg, Sink);
  RT.pushFrame(8);
  RT.enterRegion(0);
  RT.pushFrame(8);
  for (int I = 0; I < 10; ++I) // Serial chain: reg 3 available at t=10.
    RT.onOp(Opcode::Add, 3, I ? 3 : NoValue, NoValue, false);
  RT.popFrame();
  RT.pushFrame(8); // Recycled storage; reg 3 must read as 0.
  RT.onOp(Opcode::Add, 4, 3, NoValue, false);
  RT.popFrame();
  RT.exitRegion(0);
  ASSERT_EQ(Sink.Summaries.size(), 1u);
  EXPECT_EQ(Sink.Summaries[0].Work, 11u);
  EXPECT_EQ(Sink.Summaries[0].Cp, 10u);
}

TEST(Runtime, CopyParamHonorsSourceWatermark) {
  CaptureSink Sink;
  KremlinConfig Cfg;
  KremlinRuntime RT(Cfg, Sink);
  RT.pushFrame(8);
  RT.enterRegion(0);
  for (int I = 0; I < 5; ++I) // Caller reg 2 available at t=5.
    RT.onOp(Opcode::Add, 2, I ? 2 : NoValue, NoValue, false);
  RT.pushFrame(8);
  RT.copyParamFromCaller(/*DstParam=*/0, /*SrcArgInCaller=*/2);
  RT.copyParamFromCaller(/*DstParam=*/1, /*SrcArgInCaller=*/6); // Unwritten.
  RT.onOp(Opcode::Add, 2, 0, NoValue, false); // Completes at 6.
  RT.onOp(Opcode::Add, 3, 1, NoValue, false); // Unwritten param: t=1.
  RT.popFrame();
  RT.exitRegion(0);
  ASSERT_EQ(Sink.Summaries.size(), 1u);
  EXPECT_EQ(Sink.Summaries[0].Work, 7u);
  EXPECT_EQ(Sink.Summaries[0].Cp, 6u); // Not 7: param 1 carried no time.
}

TEST(Runtime, ConstWriteResetsRowWatermark) {
  // A const-class op makes its register "available at 0": the row reset
  // must hide the earlier chain, so a dependent op completes at t=1.
  CaptureSink Sink;
  KremlinConfig Cfg;
  KremlinRuntime RT(Cfg, Sink);
  RT.pushFrame(8);
  RT.enterRegion(0);
  for (int I = 0; I < 7; ++I)
    RT.onOp(Opcode::Add, 3, I ? 3 : NoValue, NoValue, false);
  RT.onOp(Opcode::ConstInt, 3, NoValue, NoValue, false); // Free; resets row.
  RT.onOp(Opcode::Add, 4, 3, NoValue, false);
  RT.exitRegion(0);
  ASSERT_EQ(Sink.Summaries.size(), 1u);
  EXPECT_EQ(Sink.Summaries[0].Work, 8u); // Consts are latency-free.
  EXPECT_EQ(Sink.Summaries[0].Cp, 7u);   // The dependent op ran off t=0.
}

// --- Compound segment events ------------------------------------------------

/// Registers 0..11 take part in runs; 12..15 are written only by elided
/// constants, so their rows read 0 in every slot (the producer's elision
/// precondition).
constexpr ValueId SegRegs = 12;
constexpr ValueId SegFrameRegs = 16;

/// One random register run: aliasing destinations, BreakDepA, constants
/// (some as a live-out's last definition), elided constants and dead
/// temporaries, over a small register pool.
std::vector<SegmentOp> randomRun(Prng &R) {
  static const Opcode Ops[] = {Opcode::Add,   Opcode::Mul,      Opcode::Sub,
                               Opcode::Move,  Opcode::Neg,      Opcode::CmpLT,
                               Opcode::ConstInt, Opcode::PtrAdd, Opcode::Br};
  std::vector<bool> LiveOut(SegRegs);
  for (ValueId Reg = 0; Reg < SegRegs; ++Reg)
    LiveOut[Reg] = R.nextBelow(3) != 0;
  auto reg = [&]() { return static_cast<ValueId>(R.nextBelow(SegRegs)); };
  auto operand = [&]() -> ValueId {
    uint64_t K = R.nextBelow(8);
    if (K == 0)
      return SegRegs + static_cast<ValueId>(R.nextBelow(4)); // Elided const.
    return reg();
  };
  std::vector<SegmentOp> Run;
  size_t Len = 2 + R.nextBelow(14);
  for (size_t I = 0; I < Len; ++I) {
    SegmentOp O;
    if (R.nextBelow(6) == 0) { // Elided constant materialization.
      O.Op = Opcode::ConstInt;
      O.Dst = SegRegs + static_cast<ValueId>(R.nextBelow(4));
      O.Elided = true;
      Run.push_back(O);
      continue;
    }
    O.Op = Ops[R.nextBelow(sizeof(Ops) / sizeof(Ops[0]))];
    if (O.Op == Opcode::Br && I + 1 != Len)
      O.Op = Opcode::Add; // A branch can only end a run.
    if (O.Op != Opcode::Br)
      O.Dst = reg();
    if (O.Op == Opcode::Move || O.Op == Opcode::Neg) {
      O.A = operand();
    } else if (O.Op != Opcode::ConstInt && O.Op != Opcode::Br) {
      O.A = R.nextBelow(8) == 0 ? NoValue : operand();
      O.B = R.nextBelow(8) == 0 ? NoValue : operand();
    }
    O.BreakDepA = O.A != NoValue && R.nextBelow(5) == 0;
    if (O.Dst != NoValue)
      O.LiveOut = LiveOut[O.Dst];
    Run.push_back(O);
  }
  return Run;
}

TEST(Segment, MatchesPerOpHooks) {
  // A folded run must leave exactly what its onOp calls leave: every
  // live-out row (value and validity per slot), the running level max,
  // work and instruction count, and the region summaries that follow.
  // Prefixes vary the window (MinLevel deeper than the stack gives
  // Slots == 0), retag the innermost slot so rows written before read as
  // invalid, and open a control dependence.
  struct Window {
    unsigned MinLevel, NumLevels;
  };
  const Window Windows[] = {{0, 16}, {0, 1}, {1, 2}, {2, 16}, {6, 4}};
  Prng R(2011);
  for (int Trial = 0; Trial < 3000; ++Trial) {
    SCOPED_TRACE(Trial);
    KremlinConfig Cfg;
    Cfg.MinLevel = Windows[Trial % 5].MinLevel;
    Cfg.NumLevels = Windows[Trial % 5].NumLevels;
    unsigned Depth = 1 + static_cast<unsigned>(R.nextBelow(5));
    std::vector<SegmentOp> Run = randomRun(R);
    std::vector<SegmentOp> Prefix;
    for (int I = 0; I < 24; ++I) { // Random chains over the run's inputs.
      SegmentOp O;
      O.Op = Opcode::Add;
      O.Dst = static_cast<ValueId>(R.nextBelow(SegRegs));
      O.A = static_cast<ValueId>(R.nextBelow(SegRegs));
      O.B = static_cast<ValueId>(R.nextBelow(SegRegs));
      Prefix.push_back(O);
    }
    bool Retag = R.nextBelow(2) != 0;
    bool Branch = R.nextBelow(2) != 0;

    CaptureSink SinkA, SinkB;
    KremlinRuntime A(Cfg, SinkA), B(Cfg, SinkB);
    for (KremlinRuntime *RT : {&A, &B}) {
      RT->pushFrame(SegFrameRegs);
      for (unsigned L = 0; L < Depth; ++L) {
        RT->enterRegion(L);
        for (size_t I = L; I < Prefix.size(); I += Depth)
          RT->onOp(Prefix[I].Op, Prefix[I].Dst, Prefix[I].A, Prefix[I].B,
                   false);
      }
      if (Retag) {
        RT->exitRegion(Depth - 1);
        RT->enterRegion(Depth - 1);
        RT->onOp(Opcode::Mul, 3, 4, 5, false);
      }
      if (Branch)
        RT->onCondBranch(7, /*MergeBlock=*/9, /*PushBlock=*/8);
    }

    uint64_t Elided = 0;
    for (const SegmentOp &O : Run) {
      if (O.Elided)
        ++Elided;
      else
        A.onOp(O.Op, O.Dst, O.A, O.B, O.BreakDepA);
    }
    A.noteFreeOps(Elided);
    SegmentBuilder Builder(B.latencies());
    SegmentSummary S = Builder.build(Run);
    B.onSegment(S);
    B.noteFreeOps(Elided);

    std::vector<bool> Dead(SegFrameRegs, false);
    for (const SegmentOp &O : Run)
      if (O.Dst != NoValue)
        Dead[O.Dst] = !O.LiveOut;
    unsigned Slots =
        Depth <= Cfg.MinLevel ? 0 : std::min(Depth - Cfg.MinLevel,
                                              Cfg.NumLevels);
    for (ValueId Reg = 0; Reg < SegFrameRegs; ++Reg)
      for (unsigned Slot = 0; !Dead[Reg] && Slot < Slots; ++Slot)
        ASSERT_EQ(A.regTime(Reg, Slot), B.regTime(Reg, Slot))
            << "reg " << Reg << " slot " << Slot;
    ASSERT_EQ(A.currentMaxTime(), B.currentMaxTime());
    ASSERT_EQ(A.currentWork(), B.currentWork());
    ASSERT_EQ(A.stats().DynInstructions, B.stats().DynInstructions);
    EXPECT_EQ(B.stats().SegmentOps, S.NumOps);

    // Live rows keep flowing into later ops and the region summaries.
    for (KremlinRuntime *RT : {&A, &B}) {
      for (ValueId Reg = 0; Reg < SegRegs; ++Reg)
        if (!Dead[Reg])
          RT->onOp(Opcode::Add, Reg, Reg, NoValue, false);
      for (unsigned L = Depth; L-- > 0;)
        RT->exitRegion(L);
    }
    ASSERT_EQ(SinkA.Summaries.size(), SinkB.Summaries.size());
    for (size_t I = 0; I < SinkA.Summaries.size(); ++I) {
      EXPECT_EQ(SinkA.Summaries[I].Work, SinkB.Summaries[I].Work);
      EXPECT_EQ(SinkA.Summaries[I].Cp, SinkB.Summaries[I].Cp);
    }
  }
}

TEST(Segment, DeadTemporariesCostNoRow) {
  // t = a * b; u = t + a; x = u - b with t and u used nowhere else: only
  // x is a row, max(Cd + 3, a + 3, b + 3), and the level max takes it
  // without terms of its own. 6 per-slot terms against the ops' 12.
  LatencyTable Lat = makeLatencyTable(LatencyModel());
  std::vector<SegmentOp> Run = {
      {Opcode::Mul, 5, 1, 2, false, false, /*LiveOut=*/false},
      {Opcode::Add, 6, 5, 1, false, false, /*LiveOut=*/false},
      {Opcode::Sub, 7, 6, 2, false, false, /*LiveOut=*/true},
  };
  SegmentBuilder Builder(Lat);
  SegmentSummary S = Builder.build(Run);
  ASSERT_EQ(S.Rows.size(), 1u);
  EXPECT_EQ(S.Rows[0].Reg, 7u);
  EXPECT_EQ(S.Inputs, (std::vector<ValueId>{1, 2}));
  ASSERT_EQ(S.Rows[0].E.End - S.Rows[0].E.Begin, 3u);
  EXPECT_EQ(S.Terms[S.Rows[0].E.Begin + 2].Dist, 3u);
  EXPECT_EQ(S.LevelMax.Begin, S.LevelMax.End);
  EXPECT_EQ(S.NumOps, 3u);
  EXPECT_EQ(S.Work, 3u);
  EXPECT_EQ(S.perSlotTerms(), 6u);
  EXPECT_EQ(perOpTerms(Run), 12u);
  EXPECT_TRUE(foldsProfitably(S, Run));
  // A single counted op never folds.
  std::vector<SegmentOp> One = {Run[2]};
  EXPECT_FALSE(foldsProfitably(Builder.build(One), One));
}

} // namespace

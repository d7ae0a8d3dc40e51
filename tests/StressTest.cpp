//===- tests/StressTest.cpp - robustness under extreme shapes -------------===//
//
// Stress shapes the pipeline must survive: recursion deeper than the
// shadow depth window, degenerate loops (0/1 iterations), very wide
// switch-like if chains, many-region programs, and empty functions.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "planner/Personality.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <future>

using namespace kremlin;
using namespace kremlin::test;

namespace {

TEST(Stress, RecursionDeeperThanDepthWindow) {
  // 200 nested function regions with a 8-level window: levels beyond the
  // window fall back to cp == work; the run must stay correct.
  KremlinConfig Cfg;
  Cfg.NumLevels = 8;
  ProfiledRun Run = profileSource(R"(
    int down(int n) {
      if (n <= 0) { return 0; }
      return down(n - 1) + n;
    }
    int main() { return down(200) % 1000; }
  )", Cfg);
  EXPECT_EQ(Run.Exec.ExitValue, (200 * 201 / 2) % 1000);
  const RegionProfileEntry *Down =
      findRegion(Run, RegionKind::Function, "down");
  ASSERT_NE(Down, nullptr);
  EXPECT_EQ(Down->Instances, 201u);
  // The profile stays well-formed despite the window overflow.
  for (const DynRegionSummary &S : Run.Dict->alphabet())
    EXPECT_LE(S.Cp, S.Work);
}

TEST(Stress, DeepLoopNestBeyondWindow) {
  // 12 nested loops with a 4-level window.
  std::string Src = "int a[64];\nint main() {\n";
  for (int D = 0; D < 12; ++D)
    Src += formatString("for (int i%d = 0; i%d < 2; i%d = i%d + 1) {\n", D,
                        D, D, D);
  Src += "a[(i0 + i5 + i11) % 64] = a[(i0 + i5 + i11) % 64] + 1;\n";
  for (int D = 0; D < 12; ++D)
    Src += "}\n";
  Src += "return a[0];\n}\n";
  KremlinConfig Cfg;
  Cfg.NumLevels = 4;
  ProfiledRun Run = profileSource(Src, Cfg);
  EXPECT_TRUE(Run.Exec.Ok);
  // 12 loops + 12 bodies + 1 function executed.
  unsigned Executed = 0;
  for (const RegionProfileEntry &E : Run.Profile->entries())
    Executed += E.Executed;
  EXPECT_EQ(Executed, 25u);
}

TEST(Stress, ZeroAndOneIterationLoops) {
  ProfiledRun Run = profileSource(R"(
    int a[4];
    int main() {
      for (int i = 0; i < 0; i = i + 1) { a[0] = 99; } // Never runs.
      for (int i = 0; i < 1; i = i + 1) { a[1] = 7; }  // Runs once.
      return a[0] * 100 + a[1];
    }
  )");
  EXPECT_EQ(Run.Exec.ExitValue, 7);
  const RegionProfileEntry *Zero = findRegion(Run, RegionKind::Loop, "main");
  ASSERT_NE(Zero, nullptr);
  EXPECT_EQ(Zero->TotalChildren, 0u); // Loop entered, no iterations.
  const RegionProfileEntry *One =
      findRegion(Run, RegionKind::Loop, "main", 1);
  ASSERT_NE(One, nullptr);
  EXPECT_EQ(One->TotalChildren, 1u);
  EXPECT_GE(One->SelfParallelism, 1.0);
}

TEST(Stress, WideIfChain) {
  std::string Src = "int main() {\n  int x = 17;\n  int r = 0;\n";
  for (int I = 0; I < 64; ++I)
    Src += formatString("  if (x %% 67 == %d) { r = %d; }\n", I, I * 3);
  Src += "  return r;\n}\n";
  ProfiledRun Run = profileSource(Src);
  EXPECT_EQ(Run.Exec.ExitValue, 51);
}

TEST(Stress, ManyRegionsProgram) {
  // 300 small loops in one function: region table, profile and planner
  // must scale.
  std::string Src = "int a[64];\nint main() {\n";
  for (int I = 0; I < 300; ++I)
    Src += formatString("  for (int i = 0; i < 4; i = i + 1) "
                        "{ a[(i + %d) %% 64] = a[(i + %d) %% 64] + i; }\n",
                        I, I);
  Src += "  return a[3] % 100;\n}\n";
  ProfiledRun Run = profileSource(Src);
  EXPECT_TRUE(Run.Exec.Ok);
  EXPECT_EQ(Run.M->numCandidateRegions(), 301u);
  Plan P = makeOpenMPPersonality()->plan(*Run.Profile, PlannerOptions());
  // Tiny 4-iteration loops: below thresholds; plan stays small.
  EXPECT_LE(P.Items.size(), 301u);
}

TEST(Stress, EmptyAndTrivialFunctions) {
  ProfiledRun Run = profileSource(R"(
    void nop() { }
    int id(int x) { return x; }
    int main() {
      nop();
      nop();
      return id(42);
    }
  )");
  EXPECT_EQ(Run.Exec.ExitValue, 42);
  const RegionProfileEntry *Nop =
      findRegion(Run, RegionKind::Function, "nop");
  ASSERT_NE(Nop, nullptr);
  EXPECT_EQ(Nop->Instances, 2u);
  EXPECT_GE(Nop->SelfParallelism, 1.0);
}

TEST(Stress, LoopWithEarlyReturnEveryPath) {
  // Region enter/exit balancing when the loop never reaches its latch.
  ProfiledRun Run = profileSource(R"(
    int find(int target) {
      for (int i = 0; i < 100; i = i + 1) {
        if (i * 7 % 31 == target) { return i; }
      }
      return 0 - 1;
    }
    int main() { return find(5); }
  )");
  EXPECT_TRUE(Run.Exec.Ok);
  const RegionProfileEntry *F = findRegion(Run, RegionKind::Function, "find");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Instances, 1u);
}

TEST(Stress, MinLevelBeyondDepth) {
  // A window starting deeper than the program ever nests: everything
  // falls back to serial cp, nothing crashes.
  KremlinConfig Cfg;
  Cfg.MinLevel = 30;
  ProfiledRun Run = profileSource(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 8; i = i + 1) { s = s + i; }
      return s;
    }
  )", Cfg);
  EXPECT_EQ(Run.Exec.ExitValue, 28);
  for (const RegionProfileEntry &E : Run.Profile->entries())
    if (E.Executed) {
      EXPECT_EQ(E.TotalCp, E.TotalWork);
    }
}

TEST(Stress, ConcurrentTraceWritersStayBoundedWithoutSink) {
  namespace tel = kremlin::telemetry;
  // Many times more events than the ring holds: memory must stay at the
  // configured bound, with every overwrite accounted as a drop.
  (void)tel::closeTraceSink();
  tel::takeTrace();
  tel::Registry::global().resetValues();
  constexpr size_t RingEvents = tel::NumTraceShards * 8;
  tel::setTraceRingEvents(RingEvents);
  tel::setTraceEnabled(true);

  constexpr unsigned Workers = 8;
  constexpr uint64_t PerWorker = 20000;
  ThreadPool Pool(Workers);
  std::vector<std::future<void>> Futures;
  for (unsigned W = 0; W < Workers; ++W)
    Futures.push_back(Pool.submit([]() {
      for (uint64_t I = 0; I < PerWorker; ++I) {
        tel::Span S("stress.span", "test");
        S.end();
      }
    }));
  for (auto &F : Futures)
    F.get();
  tel::setTraceEnabled(false);

  uint64_t Recorded =
      tel::Registry::global().counter("telemetry.trace.recorded").value();
  uint64_t Dropped =
      tel::Registry::global().counter("telemetry.trace.dropped").value();
  std::vector<tel::TraceEvent> Remaining = tel::takeTrace();
  EXPECT_EQ(Recorded, Workers * PerWorker);
  // Peak telemetry memory is the ring bound, not the event count.
  EXPECT_LE(Remaining.size(), RingEvents);
  // Full accounting: every recorded event either still sits in the ring
  // or was counted as dropped when overwritten.
  EXPECT_EQ(Dropped + Remaining.size(), Recorded);
  tel::setTraceRingEvents(0);
}

TEST(Stress, ConcurrentTraceWritersStreamLosslesslyThroughSink) {
  namespace tel = kremlin::telemetry;
  (void)tel::closeTraceSink();
  tel::takeTrace();
  tel::Registry::global().resetValues();

  auto Sink = std::make_unique<tel::InMemoryTraceSink>();
  tel::InMemoryTraceSink *Raw = Sink.get();
  tel::TraceSinkConfig Cfg;
  Cfg.RingEvents = tel::NumTraceShards * 8; // Tiny ring: constant chunking.
  ASSERT_TRUE(tel::setTraceSink(std::move(Sink), Cfg).ok());

  constexpr unsigned Workers = 8;
  constexpr uint64_t PerWorker = 5000;
  ThreadPool Pool(Workers);
  std::vector<std::future<void>> Futures;
  for (unsigned W = 0; W < Workers; ++W)
    Futures.push_back(Pool.submit([W]() {
      for (uint64_t I = 0; I < PerWorker; ++I)
        tel::instantEvent("stream." + std::to_string(W), "test");
    }));
  for (auto &F : Futures)
    F.get();

  tel::flushTraceRings();
  std::vector<tel::TraceEvent> Streamed = Raw->take();
  uint64_t Dropped =
      tel::Registry::global().counter("telemetry.trace.dropped").value();
  uint64_t Flushes =
      tel::Registry::global().counter("telemetry.trace.flushes").value();
  // The streaming path loses nothing and flushed chunk-wise throughout.
  EXPECT_EQ(Streamed.size(), Workers * PerWorker);
  EXPECT_EQ(Dropped, 0u);
  EXPECT_GT(Flushes, Workers * PerWorker / Cfg.RingEvents / 2);
  ASSERT_TRUE(tel::closeTraceSink().ok());
  tel::setTraceRingEvents(0);
}

} // namespace

//===- perfbench/SelfTest.cpp - The benchmark's own tests -----------------===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//

#include "perfbench/Bench.h"
#include "perfbench/Workloads.h"

#include "driver/KremlinDriver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

using namespace kremlin;
using namespace kremlin::perfbench;

TEST(Percentiles, NearestRankOnFixedArrays) {
  std::vector<double> Ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(nearestRank(Ten, 50), 5);
  EXPECT_EQ(nearestRank(Ten, 90), 9);
  EXPECT_EQ(nearestRank(Ten, 91), 10);
  EXPECT_EQ(nearestRank(Ten, 100), 10);
  EXPECT_EQ(nearestRank(Ten, 0), 1);

  std::vector<double> Five = {15, 20, 35, 40, 50};
  EXPECT_EQ(nearestRank(Five, 30), 20);
  EXPECT_EQ(nearestRank(Five, 40), 20);
  EXPECT_EQ(nearestRank(Five, 50), 35);
  EXPECT_EQ(nearestRank(Five, 100), 50);
}

TEST(Percentiles, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(tailPercentile(100), 90u); // rank 90, 10 beyond
  EXPECT_EQ(tailPercentile(99), 89u);  // p90 -> rank 90, only 9 beyond
  EXPECT_EQ(tailPercentile(50), 80u);  // rank 40, 10 beyond
  EXPECT_EQ(tailPercentile(15), 50u);  // not even the median qualifies
  EXPECT_EQ(tailPercentile(1000), 90u);
}

TEST(Generation, SameSeedGivesByteIdenticalInputs) {
  for (auto Gen : {generateLintCorpus, generateBigmemCorpus}) {
    std::vector<GeneratedBenchmark> A = Gen(7), B = Gen(7), C = Gen(8);
    ASSERT_EQ(A.size(), B.size());
    bool AllSame = true, AnyDiffers = false;
    for (size_t I = 0; I < A.size(); ++I) {
      AllSame = AllSame && A[I].Source == B[I].Source;
      AnyDiffers = AnyDiffers || A[I].Source != C[I].Source;
    }
    EXPECT_TRUE(AllSame);
    EXPECT_TRUE(AnyDiffers);
  }
}

TEST(Generation, LintCorpusSpansSizesAndKinds) {
  std::vector<GeneratedBenchmark> Corpus = generateLintCorpus(1);
  size_t Min = ~size_t(0), Max = 0;
  for (const GeneratedBenchmark &GB : Corpus) {
    Min = std::min(Min, GB.Source.size());
    Max = std::max(Max, GB.Source.size());
    std::set<SiteKind> Kinds;
    for (const GeneratedLoop &L : GB.Loops)
      Kinds.insert(L.Kind);
    EXPECT_EQ(Kinds.size(), 10u) << GB.Name;
  }
  EXPECT_LT(Min, 8u * 1024);
  EXPECT_GT(Max, 140u * 1024);
}

TEST(Checks, CorruptedVerdictIsCaught) {
  GeneratedBenchmark GB = generateLintCorpus(3).front();
  DriverResult R = KremlinDriver().lintSource(GB.Source, GB.Name + ".c");
  ASSERT_TRUE(R.succeeded());
  EXPECT_EQ(checkLintVerdicts(GB, *R.M, R.Static), "");

  bool Corrupted = false;
  for (StaticLoopResult &L : R.Static.Loops) {
    std::vector<RegionId> Serial;
    for (const GeneratedLoop &Loop : GB.Loops)
      if (Loop.Kind == SiteKind::SerialChain)
        Serial.push_back(loopRegionsAtLines(*R.M, {Loop.Line}).front());
    if (std::find(Serial.begin(), Serial.end(), L.Region) != Serial.end()) {
      L.Verdict = LoopVerdict::ProvablyDoall;
      Corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(Corrupted);
  EXPECT_NE(checkLintVerdicts(GB, *R.M, R.Static), "");
}

TEST(Checks, CorruptedPlanIsCaught) {
  BenchmarkSpec Spec;
  Spec.Name = "small";
  Spec.Timesteps = 1;
  SiteSpec Hot;
  Hot.Kind = SiteKind::HotDoall;
  Hot.Iters = 2000;
  Hot.Work = 2;
  SiteSpec Serial = Hot;
  Serial.Kind = SiteKind::SerialChain;
  Spec.Sites = {Hot, Serial};
  GeneratedBenchmark GB = generateBenchmark(Spec);
  DriverResult R = KremlinDriver().runOnSource(GB.Source, "small.c");
  ASSERT_TRUE(R.succeeded());
  EXPECT_EQ(checkPlanAgainstLoopMap(GB, *R.M, R.ThePlan), "");

  RegionId HotLoop = loopRegionsAtLines(*R.M, {GB.Loops[0].Line}).front();
  RegionId SerialLoop = loopRegionsAtLines(*R.M, {GB.Loops[1].Line}).front();
  Plan Missing = R.ThePlan;
  std::erase_if(Missing.Items,
                [&](const PlanItem &I) { return I.Region == HotLoop; });
  EXPECT_NE(checkPlanAgainstLoopMap(GB, *R.M, Missing), "");

  Plan Extra = R.ThePlan;
  PlanItem Bad;
  Bad.Region = SerialLoop;
  Extra.Items.push_back(Bad);
  EXPECT_NE(checkPlanAgainstLoopMap(GB, *R.M, Extra), "");
}

namespace {

/// Three items: item 1 produces a wrong output, item 2 throws.
class FaultyWorkload final : public Workload {
public:
  SetupTimes setup(uint64_t) override { return {0.1, 0.1}; }
  size_t size() const override { return 3; }
  void run(size_t I) override {
    if (I == 2)
      throw std::runtime_error("item 2 failed");
    Ran = I;
  }
  void runTraced(size_t I, Tracer &T) override {
    Span S(T, "parser.parse");
    run(I);
  }
  std::string check(size_t) const override {
    return Ran == 1 ? "item 1: wrong plan" : "";
  }
  void clear() override { Ran = ~size_t(0); }

private:
  size_t Ran = ~size_t(0);
};

} // namespace

TEST(Runner, FailuresCountAndEveryMetricStillPrints) {
  FaultyWorkload W;
  RunOptions Opts;
  Opts.Seconds = 0.05;
  RunResult R = runWorkload(W, Opts);
  ASSERT_GE(R.Attempted, 3u);
  EXPECT_GT(R.Failed, 0u);
  EXPECT_EQ(R.FirstFailure, "item 1: wrong plan");
  std::string Line = resultJsonLine(R);
  EXPECT_NE(Line.find("\"correct\": false"), std::string::npos);
  for (const char *Name : {"setup_s", "items_per_s", "latency_ms_p50",
                           "latency_ms_p90", "peak_rss_mb", "success_rate"})
    EXPECT_NE(Line.find(std::string("\"") + Name + "\""), std::string::npos)
        << Name;
  const Metric &Success = R.Metrics.back();
  ASSERT_EQ(Success.Name, "success_rate");
  EXPECT_DOUBLE_EQ(Success.Value,
                   double(R.Attempted - R.Failed) / double(R.Attempted));

  Opts.Trace = true;
  R = runWorkload(W, Opts);
  EXPECT_GT(R.Failed, 0u);
  Line = resultJsonLine(R);
  for (const char *Name : {"parser.parse_ms", "driver.unattributed_ms",
                           "trace.overhead_pct", "rt.slowdown"})
    EXPECT_NE(Line.find(std::string("\"") + Name + "\""), std::string::npos)
        << Name;
}

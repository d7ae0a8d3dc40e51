//===- tests/DriverTest.cpp - end-to-end pipeline tests -------------------===//

#include "TestUtil.h"

#include "driver/KremlinDriver.h"
#include "support/Json.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

using namespace kremlin;
using namespace kremlin::test;

namespace {

const char *PipelineSrc = R"(
  int a[128];
  int main() {
    for (int i = 0; i < 128; i = i + 1) {
      int x = a[i] + i;
      x = x * 3 + 1;
      x = x + x / 7;
      x = x * 2 - x / 5;
      a[i] = x;
    }
    return a[3] % 100;
  }
)";

TEST(Driver, FullPipelineProducesPlan) {
  KremlinDriver Driver;
  DriverResult R = Driver.runOnSource(PipelineSrc, "p.c");
  ASSERT_TRUE(R.succeeded());
  EXPECT_TRUE(R.Exec.Ok);
  EXPECT_GT(R.Exec.DynInstructions, 128u);
  ASSERT_NE(R.Dict, nullptr);
  EXPECT_GT(R.Dict->numDynamicRegions(), 128u);
  ASSERT_NE(R.Profile, nullptr);
  ASSERT_EQ(R.ThePlan.Items.size(), 1u);
  EXPECT_EQ(R.ThePlan.Personality, "openmp");
  EXPECT_GT(R.ThePlan.EstProgramSpeedup, 1.5);
}

TEST(Driver, ExecutionGaugesReportObservedUsage) {
  // rt.max_region_depth is the deepest nesting the run reached, next to the
  // configured cap; shadow.touched_bytes is the share of shadow.bytes
  // within the levels any write reached.
  KremlinDriver Driver;
  Driver.options().Runtime.MaxRegionDepth = 500;
  DriverResult R = Driver.runOnSource(PipelineSrc, "p.c");
  ASSERT_TRUE(R.succeeded());
  telemetry::Registry &Reg = telemetry::Registry::global();
  double Depth = Reg.gauge("rt.max_region_depth").value();
  double Levels = Reg.gauge("shadow.levels_touched").value();
  double Bytes = Reg.gauge("shadow.bytes").value();
  EXPECT_EQ(Reg.gauge("rt.region_depth_limit").value(), 500.0);
  EXPECT_GE(Depth, 2.0);
  EXPECT_LT(Depth, 500.0);
  EXPECT_GE(Levels, 1.0);
  EXPECT_LE(Levels, Depth);
  EXPECT_GT(Bytes, 0.0);
  unsigned NumLevels = Driver.options().Runtime.NumLevels;
  EXPECT_EQ(Reg.gauge("shadow.touched_bytes").value(),
            Bytes / NumLevels * Levels);
}

TEST(Driver, EventCountersConserveInstructions) {
  // Every profiled instruction reaches the runtime exactly one way: its own
  // event, a compound segment event, or the elided-constant tally. The
  // registry counters are process-wide, so the test reads deltas.
  telemetry::Registry &Reg = telemetry::Registry::global();
  const char *Names[] = {"rt.dyn_instructions", "rt.events",
                         "rt.segment_events", "rt.segment_ops",
                         "rt.elided_ops"};
  uint64_t Delta[5];
  for (int I = 0; I < 5; ++I)
    Delta[I] = Reg.counter(Names[I]).value();
  DriverResult R = profilePaperProgram("sp");
  ASSERT_TRUE(R.succeeded());
  for (int I = 0; I < 5; ++I)
    Delta[I] = Reg.counter(Names[I]).value() - Delta[I];
  auto [Dyn, Events, SegEvents, SegOps, Elided] = Delta;
  EXPECT_EQ(Events + SegOps + Elided, Dyn);
  EXPECT_GT(SegEvents, 0u);
  EXPECT_GE(SegOps, 2 * SegEvents); // A segment folds two ops or more.
  EXPECT_GT(SegOps, Events);        // sp is mostly straight-line arithmetic.
}

TEST(Driver, ParseErrorsPropagate) {
  KremlinDriver Driver;
  DriverResult R = Driver.runOnSource("int main( { return 0; }", "bad.c");
  EXPECT_FALSE(R.succeeded());
  ASSERT_FALSE(R.Errors.empty());
}

TEST(Driver, SemanticErrorsPropagate) {
  KremlinDriver Driver;
  DriverResult R =
      Driver.runOnSource("int main() { return ghost; }", "bad.c");
  EXPECT_FALSE(R.succeeded());
}

TEST(Driver, ExecutionErrorsPropagate) {
  KremlinDriver Driver;
  Driver.options().Interp.MaxSteps = 100;
  DriverResult R = Driver.runOnSource(
      "int main() { int s = 0; while (1) { s = s + 1; } return s; }",
      "loop.c");
  EXPECT_FALSE(R.succeeded());
  ASSERT_FALSE(R.Errors.empty());
  // The failure is rendered as a structured Status naming the stage and
  // the input file, and carries a resource-exhausted code (step budget).
  EXPECT_NE(R.Errors[0].find("stage 'execute' failed"), std::string::npos)
      << R.Errors[0];
  EXPECT_NE(R.Errors[0].find("loop.c"), std::string::npos) << R.Errors[0];
  EXPECT_FALSE(R.Err.ok());
  EXPECT_EQ(R.Err.code(), ErrorCode::ResourceExhausted);
  EXPECT_EQ(R.failedStage(), "execute");
}

TEST(Driver, UnknownPersonalityFails) {
  DriverOptions Opts;
  Opts.PersonalityName = "mystery";
  KremlinDriver Driver(Opts);
  DriverResult R = Driver.runOnSource(PipelineSrc, "p.c");
  EXPECT_FALSE(R.succeeded());
}

TEST(Driver, ReplanWithExclusions) {
  KremlinDriver Driver;
  DriverResult R = Driver.runOnSource(PipelineSrc, "p.c");
  ASSERT_TRUE(R.succeeded());
  ASSERT_FALSE(R.ThePlan.Items.empty());
  PlannerOptions Opts = Driver.options().Planner;
  Opts.Excluded.insert(R.ThePlan.Items[0].Region);
  Plan Replanned = Driver.replan(R, Opts);
  EXPECT_FALSE(Replanned.contains(R.ThePlan.Items[0].Region));
}

TEST(Driver, ReplanDifferentPersonality) {
  KremlinDriver Driver;
  DriverResult R = Driver.runOnSource(PipelineSrc, "p.c");
  ASSERT_TRUE(R.succeeded());
  Plan Work = Driver.replan(R, PlannerOptions(), "work");
  EXPECT_EQ(Work.Personality, "work");
  EXPECT_GE(Work.Items.size(), R.ThePlan.Items.size());
}

TEST(Driver, RunOnPrebuiltModule) {
  LowerResult LR = compileMiniC(PipelineSrc, "p.c");
  ASSERT_TRUE(LR.succeeded());
  KremlinDriver Driver;
  DriverResult R = Driver.runOnModule(std::move(LR.M));
  EXPECT_TRUE(R.succeeded());
  EXPECT_EQ(R.ThePlan.Items.size(), 1u);
}

TEST(Driver, DeterministicAcrossRuns) {
  KremlinDriver Driver;
  DriverResult A = Driver.runOnSource(PipelineSrc, "p.c");
  DriverResult B = Driver.runOnSource(PipelineSrc, "p.c");
  ASSERT_TRUE(A.succeeded());
  ASSERT_TRUE(B.succeeded());
  EXPECT_EQ(A.Exec.DynInstructions, B.Exec.DynInstructions);
  EXPECT_EQ(A.Dict->alphabet().size(), B.Dict->alphabet().size());
  ASSERT_EQ(A.ThePlan.Items.size(), B.ThePlan.Items.size());
  for (size_t I = 0; I < A.ThePlan.Items.size(); ++I) {
    EXPECT_EQ(A.ThePlan.Items[I].Region, B.ThePlan.Items[I].Region);
    EXPECT_DOUBLE_EQ(A.ThePlan.Items[I].SelfP, B.ThePlan.Items[I].SelfP);
  }
}

TEST(Driver, InstrumentStatsReported) {
  KremlinDriver Driver;
  DriverResult R = Driver.runOnSource(R"(
    int a[32];
    int main() {
      int s = 0;
      for (int i = 0; i < 32; i = i + 1) { s = s + a[i]; }
      return s;
    }
  )", "p.c");
  ASSERT_TRUE(R.succeeded());
  EXPECT_EQ(R.Instrument.NumInductionUpdates, 1u);
  EXPECT_EQ(R.Instrument.NumReductionUpdates, 1u);
  EXPECT_EQ(R.Instrument.NumCondBranches, 1u);
  EXPECT_TRUE(R.Instrument.Warnings.empty());
}

std::string readWholeFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

// The lint golden: the full `kremlin lint --json` report of every
// examples/minic/*.c file must match tests/golden/lint_verdicts.json
// exactly, and the golden may name no file the corpus lacks. Drift means a
// regression or an intended analyzer change (then regenerate the golden
// from the repository root: `kremlin lint examples/minic/<f>.c --json=-`).
TEST(LintGolden, ExamplesCorpusMatchesGoldenReports) {
  JsonValue Golden;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(
      readWholeFile(KREMLIN_GOLDEN_DIR "/lint_verdicts.json"), Golden, &Error))
      << Error;
  ASSERT_TRUE(Golden.isObject());

  std::vector<std::string> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(KREMLIN_EXAMPLES_DIR "/minic"))
    if (Entry.path().extension() == ".c")
      Files.push_back(Entry.path().filename().string());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty());

  std::set<std::string> Seen;
  for (const std::string &File : Files) {
    Seen.insert(File);
    const JsonValue *Want = Golden.get(File);
    if (!Want) {
      ADD_FAILURE() << File << ": not in the golden (add it)";
      continue;
    }
    // The golden pins repository-relative source names.
    std::string Name = "examples/minic/" + File;
    KremlinDriver Driver;
    DriverResult R = Driver.lintSource(
        readWholeFile(std::string(KREMLIN_EXAMPLES_DIR "/minic/") + File),
        Name);
    ASSERT_TRUE(R.succeeded()) << File;
    EXPECT_EQ(lintReportJson(R, Name).serialize(), Want->serialize())
        << File << ": lint --json drifted from the golden";
  }
  for (const auto &[File, Want] : Golden.members())
    EXPECT_TRUE(Seen.count(File)) << File << ": in the golden but not in "
                                  << "examples/minic";
}

} // namespace

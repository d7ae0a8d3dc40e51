//===- driver/KremlinDriver.h - End-to-end pipeline --------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end Kremlin pipeline of Figure 4: source -> static
/// instrumentation -> profiled execution (shadow-memory HCPA) -> compressed
/// parallelism profile -> planner -> ordered parallelism plan. This is the
/// programmatic equivalent of:
///
///   $> make CC=kremlin-cc
///   $> ./tracking data
///   $> kremlin tracking --personality=openmp
///
//======---------------------------------------------------------------------===//

#ifndef KREMLIN_DRIVER_KREMLINDRIVER_H
#define KREMLIN_DRIVER_KREMLINDRIVER_H

#include "analysis/StaticDependence.h"
#include "compress/Dictionary.h"
#include "instrument/Instrumenter.h"
#include "interp/Interpreter.h"
#include "ir/Module.h"
#include "planner/Personality.h"
#include "profile/ParallelismProfile.h"
#include "rt/KremlinRuntime.h"
#include "support/Json.h"
#include "support/Status.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace kremlin {

/// Pipeline configuration.
struct DriverOptions {
  KremlinConfig Runtime;
  InterpConfig Interp;
  PlannerOptions Planner;
  /// "openmp", "cilk", "work", or "selfp".
  std::string PersonalityName = "openmp";
  /// Run the static loop-dependence analyzer after instrumentation; its
  /// verdicts annotate the plan and demote provably serial regions.
  bool StaticAnalysis = true;
  /// Re-verify the IR after each instrumentation pass (--verify-ir).
  /// Defaults on in Debug builds, off in Release.
#ifdef NDEBUG
  bool VerifyIR = false;
#else
  bool VerifyIR = true;
#endif
};

/// Everything one pipeline run produces. Check succeeded() before using
/// the analysis products.
struct DriverResult {
  /// Human-readable error lines (parse diagnostics may contribute several).
  std::vector<std::string> Errors;
  /// Structured failure: names the Figure-4 stage that failed and the input
  /// involved; Status::ok() iff succeeded().
  Status Err;
  /// The source/benchmark name this pipeline ran on (error context).
  std::string SourceName;
  std::unique_ptr<Module> M;
  InstrumentResult Instrument;
  /// Static loop-dependence verdicts (empty when StaticAnalysis is off).
  StaticAnalysisResult Static;
  ExecResult Exec;
  std::unique_ptr<DictionaryCompressor> Dict;
  std::unique_ptr<ParallelismProfile> Profile;
  Plan ThePlan;
  /// Non-fatal diagnostics: instrumentation inconsistencies and
  /// static-vs-dynamic disagreements (input-sensitivity warnings).
  std::vector<std::string> Warnings;

  /// Wall-clock milliseconds per Figure-4 stage, in execution order
  /// (parse, lower, verify, instrument, execute, compress, plan). Stages
  /// not reached (errors) are absent. The same stages are recorded as
  /// telemetry spans; this copy keeps per-run timings attributable when
  /// many pipelines share the process (kremlin-bench).
  std::vector<std::pair<std::string, double>> StageMs;

  bool succeeded() const { return Errors.empty(); }
  /// The Figure-4 stage that failed ("" while healthy).
  const std::string &failedStage() const { return Err.stage(); }
};

/// Runs the Kremlin pipeline.
class KremlinDriver {
public:
  explicit KremlinDriver(DriverOptions Opts = DriverOptions())
      : Opts(std::move(Opts)) {}

  const DriverOptions &options() const { return Opts; }
  DriverOptions &options() { return Opts; }

  /// Full pipeline from MiniC source.
  DriverResult runOnSource(std::string_view Source, std::string Name);

  /// Full pipeline from an already-lowered (uninstrumented) module.
  /// \p Name labels the input in error context.
  DriverResult runOnModule(std::unique_ptr<Module> M, std::string Name = "");

  /// Static-only pipeline (`kremlin lint`): parse -> lower -> verify ->
  /// instrument -> analyze. Never executes the program; the result's
  /// Static field carries the loop-dependence verdicts.
  DriverResult lintSource(std::string_view Source, std::string Name);

  /// Re-plans an existing result under different planner settings (the
  /// exclusion-list workflow: no re-profiling needed). Returns the new
  /// plan.
  Plan replan(const DriverResult &Result, const PlannerOptions &NewOpts,
              const std::string &PersonalityName = "") const;

private:
  /// Frontend stages (parse -> lower) shared by runOnSource/lintSource.
  /// Returns false when a stage failed (Result carries the diagnostics).
  bool runFrontend(DriverResult &Result, std::string_view Source);

  /// Static stages (verify -> instrument -> analyze) shared by the full
  /// pipeline and lintSource. \p ForceAnalysis runs the dependence
  /// analyzer even when Opts.StaticAnalysis is off (lint mode). Returns
  /// false when a stage failed.
  bool runStaticStages(DriverResult &Result, bool ForceAnalysis);

  /// Stages shared by runOnSource/runOnModule: verify -> instrument ->
  /// analyze -> execute -> compress -> plan, recording spans and stage
  /// timings into \p Result (which already owns the module).
  void runPipeline(DriverResult &Result);

  DriverOptions Opts;
};

/// Machine-readable lint report (`kremlin lint --json`): per-loop verdicts
/// and reasons, the module summary, and the per-function mod/ref summaries
/// the verdicts used. Wall time is deliberately omitted so the output is
/// byte-stable and can be compared against tests/golden/lint_verdicts.json.
JsonValue lintReportJson(const DriverResult &Result,
                         const std::string &SourceName);

} // namespace kremlin

#endif // KREMLIN_DRIVER_KREMLINDRIVER_H

//===- driver/KremlinTool.cpp - The kremlin command-line tool -------------===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Command-line front end mirroring the paper's Figure 3 workflow:
//
//   kremlin prog.c --personality=openmp            profile + print the plan
//   kremlin prog.c --profile                       also dump per-region rows
//   kremlin prog.c --dump-ir                       compile + instrument only
//   kremlin prog.c --exclude=12,17                 exclusion-list replanning
//   kremlin --bench=ft                             run a suite benchmark
//   kremlin prog.c --trace-out=trace.json          Chrome trace of the run
//                                                  (streamed through the
//                                                  bounded telemetry ring)
//   kremlin stats prog.c                           telemetry registry table
//   kremlin lint prog.c                            static loop-dependence
//                                                  verdicts, no execution
//   kremlin report prog.c --format=speedscope      flamegraph/timeline
//                                                  exports of the profile
//
// plus the regression harness (also built as the `kremlin-bench` binary):
//
//   kremlin bench                                  parallel suite run + JSON
//   kremlin bench --check-baseline                 fail on metric regression
//   kremlin bench --update-baseline                refresh bench/baseline.json
//
// Diagnostics go through the telemetry logger (KREMLIN_LOG=error|warn|
// info|debug); results and tables go to stdout untouched.
//
//===----------------------------------------------------------------------===//

#include "aggregate/AggregateTool.h"
#include "compress/TraceIO.h"
#include "driver/BenchHarness.h"
#include "driver/KremlinDriver.h"
#include "ir/IRPrinter.h"
#include "parser/Lower.h"
#include "report/ReportTool.h"
#include "suite/PaperSuite.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace kremlin;
namespace tel = kremlin::telemetry;

namespace {

void printUsage() {
  std::fprintf(
      stderr,
      "usage: kremlin [stats|lint|report|merge|diff] "
      "(<source.c> | --bench=<name> | --tracking) [options]\n"
      "  --personality=<openmp|cilk|work|selfp>   planner personality\n"
      "  --exclude=<id,id,...>                    exclude region ids, replan\n"
      "  --min-sp=<f>                             self-parallelism cutoff\n"
      "  --rows=<n>                               plan rows to print\n"
      "  --max-shadow-mb=<n>                      shadow-memory byte budget\n"
      "                                           (0 = unlimited; exceeded =>\n"
      "                                           structured error, not OOM)\n"
      "  --max-region-depth=<n>                   region-nesting depth cap\n"
      "                                           (0 = unlimited)\n"
      "  --profile                                dump per-region profile\n"
      "  --save-trace=<path>                      write the compressed trace\n"
      "  --load-trace=<path>                      decode a compressed trace\n"
      "                                           and print its summary (no\n"
      "                                           source; `kremlin report\n"
      "                                           --load-trace=` plans from\n"
      "                                           a saved trace)\n"
      "  --max-profile-mb=<n>                     size budget for profile/\n"
      "                                           trace file reads (0 =\n"
      "                                           unlimited; exceeded =>\n"
      "                                           structured error)\n"
      "  --trace-out=<path>                       stream a Chrome trace_event\n"
      "                                           JSON of the pipeline run\n"
      "                                           through the bounded ring\n"
      "  --trace-ring-events=<n>                  trace ring capacity in\n"
      "                                           events (default 65536)\n"
      "  --trace-flush-kb=<n>                     trace file write-buffer\n"
      "                                           size in KiB (default 64)\n"
      "  --metrics-out=<path>                     write the telemetry\n"
      "                                           registry as metrics JSON\n"
      "  --dump-ir                                print instrumented IR\n"
      "  --stats                                  runtime/compression stats\n"
      "  --verify-ir / --no-verify-ir             re-verify the IR after\n"
      "                                           each instrumentation pass\n"
      "                                           (default: on in Debug)\n"
      "  --no-static-analysis                     skip the static loop-\n"
      "                                           dependence analyzer\n"
      "  --no-tape                                execute on the reference\n"
      "                                           switch engine instead of\n"
      "                                           the pre-decoded tape\n"
      "The `lint` subcommand runs frontend + static passes only (no\n"
      "execution) and prints per-loop dependence verdicts (doall,\n"
      "reduction, serial, unknown); `--json=<path>` additionally writes\n"
      "a machine-readable report (per-loop verdicts + reasons, callee\n"
      "mod/ref summaries); `-` means stdout.\n"
      "The `stats` subcommand runs the same pipeline and renders the\n"
      "telemetry registry as a table instead of the plan;\n"
      "`kremlin stats --diff <a.json> <b.json>` compares two metrics files.\n"
      "The `report` subcommand exports the profiled region tree as a\n"
      "flamegraph (speedscope/collapsed), per-region timeline JSON, or\n"
      "terminal tree; see `kremlin report --help`.\n"
      "The `merge` and `diff` subcommands aggregate saved profiles:\n"
      "merge unions compressed traces (optionally into a crash-safe\n"
      "profile store), diff prints per-region deltas; see each\n"
      "subcommand's --help.\n"
      "KREMLIN_LOG=error|warn|info|debug selects diagnostic verbosity.\n"
      "KREMLIN_FAULT=alloc:<p>|trace_corrupt|stage:<name>|bench_throw:<p>|\n"
      "ingest:<p>|store_write:<p> (comma-combined,\n"
      "KREMLIN_FAULT_SEED=<n>) enables deterministic fault injection for\n"
      "testing failure paths.\n");
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

void printBenchUsage() {
  std::fprintf(
      stderr,
      "usage: kremlin-bench [options]   (or: kremlin bench [options])\n"
      "  --threads=<n>            worker threads (default: hardware)\n"
      "  --benchmarks=<a,b,...>   subset of the paper suite\n"
      "  --personality=<name>     planner personality (default openmp)\n"
      "  --out=<path>             results JSON (default BENCH_results.json)\n"
      "  --baseline=<path>        baseline JSON (default bench/baseline.json)\n"
      "  --check-baseline         compare against baseline; nonzero on "
      "regression\n"
      "  --update-baseline        rewrite the baseline from this run\n"
      "  --tolerance=<f>          override the default relative tolerance\n"
      "  --deadline-ms=<n>        per-benchmark wall-clock deadline; one\n"
      "                           retry, then the benchmark is marked failed\n"
      "  --trace-out=<path>       stream a Chrome trace of the suite run;\n"
      "                           per-benchmark traces + speedscope\n"
      "                           profiles land in bench_traces/ next to it\n"
      "  --trace-ring-events=<n>  trace ring capacity in events\n"
      "  --trace-flush-kb=<n>     trace file write-buffer size in KiB\n"
      "  --metrics-out=<path>     write the telemetry registry as JSON\n"
      "  --no-simulate            skip machine-model plan evaluation\n");
}

/// Opens a streaming file sink for --trace-out: spans flow through the
/// bounded ring and are flushed chunk-wise to \p TraceOut as the run
/// executes instead of accumulating in memory.
bool installTraceSink(const std::string &TraceOut,
                      const tel::TraceSinkConfig &Cfg) {
  if (TraceOut.empty())
    return true;
  Expected<std::unique_ptr<tel::FileTraceSink>> Sink =
      tel::FileTraceSink::open(TraceOut, Cfg);
  if (!Sink.ok()) {
    tel::logError("cli", Sink.status().toString());
    return false;
  }
  // The returned status reports closing a *previous* sink; none is
  // installed at tool startup.
  (void)tel::setTraceSink(std::move(*Sink), Cfg);
  return true;
}

/// Finalizes the pending trace stream and/or writes the registry snapshot
/// when the respective --trace-out/--metrics-out path is set. Returns
/// false on I/O failure.
bool writeTelemetryOutputs(const std::string &TraceOut,
                           const std::string &MetricsOut) {
  bool Ok = true;
  if (!TraceOut.empty()) {
    Status CloseSt = tel::closeTraceSink();
    if (CloseSt.ok()) {
      std::printf("trace written to %s\n", TraceOut.c_str());
    } else {
      tel::logError("cli", CloseSt.toString());
      Ok = false;
    }
  }
  if (!MetricsOut.empty()) {
    if (writeStringToFile(MetricsOut,
                          tel::Registry::global().toJson().serialize() +
                              "\n")) {
      std::printf("metrics written to %s\n", MetricsOut.c_str());
    } else {
      tel::logf(tel::LogLevel::Error, "cli", "cannot write metrics to '%s'",
                MetricsOut.c_str());
      Ok = false;
    }
  }
  return Ok;
}

/// The `kremlin-bench` harness entry point; \p Args excludes argv[0] and
/// the `bench` subcommand word.
int benchMain(const std::vector<std::string> &Args) {
  BenchSuiteOptions Opts;
  std::string OutPath = "BENCH_results.json";
  std::string BaselinePath = "bench/baseline.json";
  std::string TraceOut, MetricsOut;
  tel::TraceSinkConfig SinkCfg;
  bool CheckBaseline = false, UpdateBaseline = false;
  double Tolerance = -1.0;

  for (const std::string &Arg : Args) {
    auto Value = [&Arg]() { return Arg.substr(Arg.find('=') + 1); };
    Status FlagError;
    if (Arg.rfind("--threads=", 0) == 0) {
      FlagError = parseUnsignedFlag(Arg, Opts.Threads);
    } else if (Arg.rfind("--benchmarks=", 0) == 0) {
      for (const std::string &Tok : splitString(Value(), ','))
        if (!Tok.empty())
          Opts.Benchmarks.push_back(Tok);
    } else if (Arg.rfind("--personality=", 0) == 0) {
      Opts.PersonalityName = Value();
    } else if (Arg.rfind("--out=", 0) == 0) {
      OutPath = Value();
    } else if (Arg.rfind("--baseline=", 0) == 0) {
      BaselinePath = Value();
    } else if (Arg.rfind("--tolerance=", 0) == 0) {
      FlagError = parseDoubleFlag(Arg, Tolerance);
    } else if (Arg.rfind("--deadline-ms=", 0) == 0) {
      FlagError = parseDoubleFlag(Arg, Opts.DeadlineMs);
    } else if (Arg.rfind("--trace-out=", 0) == 0) {
      TraceOut = Value();
    } else if (Arg.rfind("--trace-ring-events=", 0) == 0) {
      FlagError = parseUnsignedFlag(Arg, SinkCfg.RingEvents);
    } else if (Arg.rfind("--trace-flush-kb=", 0) == 0) {
      FlagError = parseUnsignedFlag(Arg, SinkCfg.FlushKb);
    } else if (Arg.rfind("--metrics-out=", 0) == 0) {
      MetricsOut = Value();
    } else if (Arg == "--check-baseline") {
      CheckBaseline = true;
    } else if (Arg == "--update-baseline") {
      UpdateBaseline = true;
    } else if (Arg == "--no-simulate") {
      Opts.Simulate = false;
    } else if (Arg == "--help" || Arg == "-h") {
      printBenchUsage();
      return 0;
    } else {
      tel::logf(tel::LogLevel::Error, "bench", "unknown option '%s'",
                Arg.c_str());
      printBenchUsage();
      return 1;
    }
    if (!FlagError.ok()) {
      tel::logError("bench", FlagError.toString());
      return 1;
    }
  }

  if (!TraceOut.empty()) {
    // Suite-level spans stream to TraceOut; per-benchmark traces go to a
    // bench_traces/ directory beside it (workers share one process-wide
    // ring, so each benchmark's trace is rebuilt from its own stage
    // timings — see BenchHarness::stageTraceJson).
    if (!installTraceSink(TraceOut, SinkCfg))
      return 1;
    size_t Slash = TraceOut.find_last_of('/');
    Opts.TraceDir = (Slash == std::string::npos
                         ? std::string()
                         : TraceOut.substr(0, Slash + 1)) +
                    "bench_traces";
  }

  BenchSuiteResult Result = runBenchSuite(Opts);
  for (const std::string &E : Result.Errors)
    tel::logError("bench", E);
  // Fault isolation: a failed benchmark never aborts the suite. Its row is
  // marked, its metrics are excluded from baseline gating, and the exit
  // code reports the failure after everything else completes.
  std::vector<std::string> Failed = Result.failedBenchmarks();

  // Per-benchmark summary table.
  TablePrinter Table;
  Table.setHeader({"Benchmark", "status", "dyn insns", "plan", "manual",
                   "overlap", "ratio", "sim", "wall"});
  std::vector<std::string> Names =
      Opts.Benchmarks.empty() ? paperBenchmarkNames() : Opts.Benchmarks;
  auto Get = [&Result](const std::string &Name, const char *Key) {
    auto It = Result.Metrics.find(Name + "." + std::string(Key));
    return It == Result.Metrics.end() ? 0.0 : It->second;
  };
  for (const BenchmarkOutcome &O : Result.Outcomes) {
    const std::string &Name = O.Name;
    if (O.failed()) {
      Table.addRow({Name, "failed", "-", "-", "-", "-", "-", "-"});
      continue;
    }
    Table.addRow(
        {Name, "ok", formatString("%.0f", Get(Name, "dyn_instructions")),
         formatString("%.0f", Get(Name, "plan_size")),
         formatString("%.0f", Get(Name, "manual_plan_size")),
         formatString("%.0f", Get(Name, "plan_overlap")),
         formatFactor(Get(Name, "compression_ratio"), 0),
         Opts.Simulate ? formatFactor(Get(Name, "sim_speedup")) : "-",
         formatString("%.0f ms", Get(Name, "wall_ms"))});
  }
  std::fputs(Table.render().c_str(), stdout);
  std::printf("suite: %zu benchmarks (%zu failed) on %u threads in %.0f ms\n",
              Names.size(), Failed.size(), Result.ThreadsUsed,
              Result.Metrics["suite.wall_ms"]);

  if (!writeStringToFile(OutPath, suiteResultToJson(Result))) {
    tel::logf(tel::LogLevel::Error, "bench", "cannot write '%s'",
              OutPath.c_str());
    return 1;
  }
  std::printf("results written to %s\n", OutPath.c_str());

  if (!writeTelemetryOutputs(TraceOut, MetricsOut))
    return 1;

  if (UpdateBaseline) {
    if (!Failed.empty()) {
      tel::logf(tel::LogLevel::Error, "bench",
                "refusing to write a baseline from a run with %zu failed "
                "benchmark(s)",
                Failed.size());
      return 1;
    }
    MetricMap ToWrite = Result.Metrics;
    std::string OldJson;
    if (readFileToString(BaselinePath, OldJson)) {
      // Never rewrite silently: surface everything that moved beyond its
      // tolerance against the outgoing baseline — the same per-metric diff
      // the --check-baseline gate renders — so a refresh that launders a
      // regression is visible in the run log (and in the CI step summary).
      BaselineComparison Cmp =
          compareToBaseline(Result.Metrics, OldJson, Tolerance, Failed);
      unsigned Moved = 0;
      for (const MetricDelta &D : Cmp.Deltas)
        if (!D.Missing && D.RelError > std::abs(D.Tolerance))
          ++Moved;
      if (Moved > 0 || Cmp.NumFailed > 0) {
        std::printf("baseline update: %u metric(s) moved beyond tolerance "
                    "against %s\n",
                    Moved, BaselinePath.c_str());
        for (const MetricDelta &D : Cmp.Deltas)
          if (!D.Missing && D.RelError > std::abs(D.Tolerance))
            std::printf("  %-48s %14.4f -> %14.4f  (%+.1f%%)\n",
                        D.Name.c_str(), D.Expected, D.Actual,
                        (D.Actual - D.Expected) /
                            std::max(std::abs(D.Expected), 1e-12) * 100.0);
      } else {
        std::printf("baseline update: no metric moved beyond tolerance\n");
      }
      // Keep old-baseline metrics this run did not produce (micro-bench
      // entries recorded by the separate gbench binaries): a suite-only
      // refresh must not drop them from the gate.
      MetricMap Old;
      if (parseMetricsJson(OldJson, Old)) {
        unsigned Kept = 0;
        for (const auto &M : Old)
          if (ToWrite.emplace(M.first, M.second).second)
            ++Kept;
        if (Kept > 0)
          std::printf("baseline update: kept %u metric(s) absent from this "
                      "run\n",
                      Kept);
      }
    }
    if (!writeStringToFile(BaselinePath, makeBaselineJson(ToWrite))) {
      tel::logf(tel::LogLevel::Error, "bench", "cannot write '%s'",
                BaselinePath.c_str());
      return 1;
    }
    std::printf("baseline written to %s\n", BaselinePath.c_str());
    return 0;
  }

  if (CheckBaseline) {
    std::string BaselineJson;
    if (!readFileToString(BaselinePath, BaselineJson)) {
      tel::logf(tel::LogLevel::Error, "bench",
                "cannot read baseline '%s' "
                "(run with --update-baseline to create it)",
                BaselinePath.c_str());
      return 1;
    }
    BaselineComparison Cmp =
        compareToBaseline(Result.Metrics, BaselineJson, Tolerance, Failed);
    std::fputs(Cmp.render().c_str(), stdout);
    if (!Cmp.passed()) {
      // One grep-able line naming every regressed metric; the rendered
      // report above carries baseline-vs-observed values per metric.
      std::string List;
      for (const std::string &Name : Cmp.failedMetricNames())
        List += (List.empty() ? "" : ", ") + Name;
      tel::logf(tel::LogLevel::Error, "bench",
                "baseline gate failed: %u metric(s) regressed: %s",
                Cmp.NumFailed, List.c_str());
      return 1;
    }
  }
  return Failed.empty() ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
#ifdef KREMLIN_TOOL_FORCE_BENCH
  return benchMain(std::vector<std::string>(argv + 1, argv + argc));
#endif
  if (argc > 1 && std::strcmp(argv[1], "bench") == 0)
    return benchMain(std::vector<std::string>(argv + 2, argv + argc));
  if (argc > 1 && std::strcmp(argv[1], "report") == 0)
    return report::reportMain(
        std::vector<std::string>(argv + 2, argv + argc));
  if (argc > 1 && std::strcmp(argv[1], "merge") == 0)
    return aggregate::mergeMain(
        std::vector<std::string>(argv + 2, argv + argc));
  if (argc > 1 && std::strcmp(argv[1], "diff") == 0)
    return aggregate::diffMain(
        std::vector<std::string>(argv + 2, argv + argc));

  // `kremlin stats ...` runs the same pipeline but renders the telemetry
  // registry instead of the plan. `kremlin lint ...` runs only the static
  // half (no execution) and renders per-loop dependence verdicts.
  bool StatsMode = false, LintMode = false;
  int ArgStart = 1;
  if (argc > 1 && std::strcmp(argv[1], "stats") == 0) {
    StatsMode = true;
    ArgStart = 2;
  } else if (argc > 1 && std::strcmp(argv[1], "lint") == 0) {
    LintMode = true;
    ArgStart = 2;
  }

  std::string Source;
  std::string SourceName;
  DriverOptions Opts;
  bool DumpIR = false, DumpProfile = false, DumpStats = false;
  bool DiffMode = false;
  std::vector<std::string> DiffPaths;
  std::string SaveTracePath, LoadTracePath;
  std::string TraceOut, MetricsOut;
  std::string LintJsonPath;
  tel::TraceSinkConfig SinkCfg;
  TraceReadLimits ReadLimits;
  size_t Rows = 25;

  for (int I = ArgStart; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Value = [&Arg]() { return Arg.substr(Arg.find('=') + 1); };
    Status FlagError;
    if (Arg.rfind("--bench=", 0) == 0) {
      Expected<GeneratedBenchmark> GB = tryGeneratePaperBenchmark(Value());
      if (!GB.ok()) {
        tel::logError("cli", GB.status().toString());
        return 1;
      }
      Source = GB->Source;
      SourceName = GB->Name + ".c";
    } else if (Arg == "--diff") {
      if (!StatsMode) {
        tel::logError("cli", "--diff is a `kremlin stats` mode "
                             "(kremlin stats --diff <a.json> <b.json>)");
        return 1;
      }
      DiffMode = true;
    } else if (Arg == "--tracking") {
      Source = trackingSource();
      SourceName = "tracking.c";
    } else if (Arg.rfind("--personality=", 0) == 0) {
      Opts.PersonalityName = Value();
    } else if (Arg.rfind("--exclude=", 0) == 0) {
      // Each id is checked on its own, so the error names the bad token.
      for (const std::string &Tok : splitString(Value(), ',')) {
        RegionId Id = 0;
        if (Tok.empty())
          continue;
        FlagError = parseUnsignedFlag("--exclude=" + Tok, Id);
        if (!FlagError.ok())
          break;
        Opts.Planner.Excluded.insert(Id);
      }
    } else if (Arg.rfind("--min-sp=", 0) == 0) {
      FlagError = parseDoubleFlag(Arg, Opts.Planner.MinSelfParallelism);
    } else if (Arg.rfind("--rows=", 0) == 0) {
      FlagError = parseUnsignedFlag(Arg, Rows);
    } else if (Arg.rfind("--max-shadow-mb=", 0) == 0) {
      FlagError = parseUnsignedFlag(Arg, Opts.Runtime.MaxShadowBytes, 1 << 20);
    } else if (Arg.rfind("--max-region-depth=", 0) == 0) {
      FlagError = parseUnsignedFlag(Arg, Opts.Runtime.MaxRegionDepth);
    } else if (Arg.rfind("--save-trace=", 0) == 0) {
      SaveTracePath = Value();
    } else if (Arg.rfind("--load-trace=", 0) == 0) {
      LoadTracePath = Value();
    } else if (Arg.rfind("--max-profile-mb=", 0) == 0) {
      FlagError = parseUnsignedFlag(Arg, ReadLimits.MaxBytes, 1 << 20);
    } else if (Arg.rfind("--trace-out=", 0) == 0) {
      TraceOut = Value();
    } else if (Arg.rfind("--trace-ring-events=", 0) == 0) {
      FlagError = parseUnsignedFlag(Arg, SinkCfg.RingEvents);
    } else if (Arg.rfind("--trace-flush-kb=", 0) == 0) {
      FlagError = parseUnsignedFlag(Arg, SinkCfg.FlushKb);
    } else if (Arg.rfind("--metrics-out=", 0) == 0) {
      MetricsOut = Value();
    } else if (Arg.rfind("--json=", 0) == 0) {
      if (!LintMode) {
        tel::logError("cli", "--json=<path> is a `kremlin lint` option");
        return 1;
      }
      LintJsonPath = Value();
    } else if (Arg == "--profile") {
      DumpProfile = true;
    } else if (Arg == "--verify-ir") {
      Opts.VerifyIR = true;
    } else if (Arg == "--no-verify-ir") {
      Opts.VerifyIR = false;
    } else if (Arg == "--no-static-analysis") {
      Opts.StaticAnalysis = false;
    } else if (Arg == "--no-tape") {
      Opts.Interp.UseTape = false;
    } else if (Arg == "--dump-ir") {
      DumpIR = true;
    } else if (Arg == "--stats") {
      DumpStats = true;
    } else if (Arg == "--help" || Arg == "-h") {
      printUsage();
      return 0;
    } else if (!Arg.empty() && Arg[0] != '-') {
      if (DiffMode) {
        DiffPaths.push_back(Arg);
        continue;
      }
      if (!readFile(Arg, Source)) {
        tel::logf(tel::LogLevel::Error, "cli", "cannot read '%s'",
                  Arg.c_str());
        return 1;
      }
      SourceName = Arg;
    } else {
      tel::logf(tel::LogLevel::Error, "cli", "unknown option '%s'",
                Arg.c_str());
      printUsage();
      return 1;
    }
    if (!FlagError.ok()) {
      tel::logError("cli", FlagError.toString());
      return 1;
    }
  }
  // `kremlin stats --diff a.json b.json`: compare two metrics documents
  // (bench results, baselines, or --metrics-out snapshots) and exit.
  if (DiffMode) {
    if (DiffPaths.size() != 2) {
      tel::logError("cli", "--diff needs exactly two metrics JSON files");
      return 1;
    }
    MetricMap Maps[2];
    for (int Side = 0; Side < 2; ++Side) {
      std::string Json, Error;
      if (!readFileToString(DiffPaths[Side], Json)) {
        tel::logError("cli", Status::error(ErrorCode::IoError, "cannot read")
                                 .withStage("stats-diff")
                                 .withInput(DiffPaths[Side])
                                 .toString());
        return 1;
      }
      if (!parseMetricsJson(Json, Maps[Side], &Error)) {
        tel::logError("cli", Status::error(ErrorCode::DecodeError, Error)
                                 .withStage("stats-diff")
                                 .withInput(DiffPaths[Side])
                                 .toString());
        return 1;
      }
    }
    std::printf("a: %s\nb: %s\n", DiffPaths[0].c_str(), DiffPaths[1].c_str());
    std::fputs(renderMetricsDiff(Maps[0], Maps[1]).c_str(), stdout);
    return 0;
  }

  // `--load-trace=<path>`: decode a compressed parallelism profile and
  // print its summary (the aggregation entry point of §2.4). It never
  // plans, so a source next to it would be profiled from scratch with the
  // trace ignored; planning from a saved trace is `kremlin report`'s job.
  if (!LoadTracePath.empty() && !SourceName.empty()) {
    tel::logError(
        "cli",
        Status::error(ErrorCode::InvalidArgument,
                      "--load-trace= prints a trace's summary and takes no "
                      "source ('" +
                          SourceName +
                          "' given); to plan from a saved trace, run "
                          "`kremlin report --load-trace=<trace> <source>`")
            .toString());
    return 1;
  }
  if (!LoadTracePath.empty()) {
    Expected<DictionaryCompressor> Dict =
        readTraceFile(LoadTracePath, nullptr, ReadLimits);
    if (!Dict.ok()) {
      tel::logError("cli", Dict.status().toString());
      return 1;
    }
    std::printf("trace %s: %zu alphabet entries, %llu dynamic regions, "
                "%s compressed (%.0fx)\n",
                LoadTracePath.c_str(), Dict->alphabet().size(),
                static_cast<unsigned long long>(Dict->numDynamicRegions()),
                formatBytes(Dict->compressedBytes()).c_str(),
                Dict->compressionRatio());
    return 0;
  }

  // No input at all (a zero-byte *file* is real input: the pipeline runs
  // and reports its structured no-main error rather than usage text).
  if (SourceName.empty() && !StatsMode) {
    printUsage();
    return 1;
  }

  if (!installTraceSink(TraceOut, SinkCfg))
    return 1;

  // `kremlin lint`: frontend + static passes only; never executes the
  // program. The verdicts are advisory, so a clean run exits 0 even when
  // serial loops were found; only pipeline errors exit nonzero.
  if (LintMode) {
    KremlinDriver Driver(Opts);
    DriverResult Result = Driver.lintSource(Source, SourceName);
    for (const std::string &E : Result.Errors)
      tel::logError("cli", E);
    if (!Result.succeeded())
      return 1;
    for (const std::string &W : Result.Warnings)
      tel::logWarn("cli", W);
    TablePrinter Table;
    Table.setHeader({"#", "File (lines)", "Verdict", "Detail"});
    size_t RowIdx = 0;
    for (const StaticLoopResult &L : Result.Static.Loops) {
      std::string Where =
          L.Region != NoRegion ? Result.M->Regions[L.Region].sourceSpan()
          : L.Func != NoFunc   ? Result.M->Functions[L.Func].Name
                               : "?";
      Table.addRow({std::to_string(++RowIdx), Where,
                    loopVerdictName(L.Verdict), L.Reason});
    }
    std::fputs(Table.render().c_str(), stdout);
    std::printf("lint: %zu loop(s) analyzed -- %u doall, %u reduction, "
                "%u serial, %u unknown (%.0f%% unknown); %u/%u call "
                "site(s) summarized (%.1f ms)\n",
                Result.Static.Loops.size(), Result.Static.NumDoall,
                Result.Static.NumReduction, Result.Static.NumSerial,
                Result.Static.NumUnknown,
                100.0 * Result.Static.unknownFraction(),
                Result.Static.CallsSummarized, Result.Static.CallSites,
                Result.Static.WallMs);
    if (!LintJsonPath.empty()) {
      std::string Doc = lintReportJson(Result, SourceName).serialize() + "\n";
      if (LintJsonPath == "-") {
        std::fputs(Doc.c_str(), stdout);
      } else {
        std::ofstream JsonOut(LintJsonPath);
        if (!JsonOut || !(JsonOut << Doc)) {
          tel::logf(tel::LogLevel::Error, "cli", "cannot write '%s'",
                    LintJsonPath.c_str());
          return 1;
        }
      }
    }
    if (!writeTelemetryOutputs(TraceOut, MetricsOut))
      return 1;
    return 0;
  }

  if (DumpIR) {
    LowerResult LR = compileMiniC(Source, SourceName);
    for (const std::string &E : LR.Errors)
      tel::logError("frontend", E);
    if (!LR.succeeded())
      return 1;
    instrumentModule(*LR.M);
    std::fputs(printModule(*LR.M).c_str(), stdout);
    return 0;
  }

  if (StatsMode && SourceName.empty()) {
    // Nothing ran: render the (empty) registry so scripts always get a
    // table on stdout.
    std::fputs(tel::Registry::global().renderTable().c_str(), stdout);
    return 0;
  }

  KremlinDriver Driver(Opts);
  DriverResult Result = Driver.runOnSource(Source, SourceName);
  for (const std::string &E : Result.Errors)
    tel::logError("cli", E);
  if (!Result.succeeded())
    return 1;

  if (!SaveTracePath.empty()) {
    Status WriteSt = writeTraceFile(*Result.Dict, SaveTracePath);
    if (!WriteSt.ok()) {
      tel::logError("cli", WriteSt.toString());
      return 1;
    }
    std::printf("trace written to %s\n", SaveTracePath.c_str());
  }
  if (DumpProfile)
    std::fputs(Result.Profile->toText().c_str(), stdout);
  if (DumpStats) {
    std::printf("dynamic instructions : %llu\n",
                static_cast<unsigned long long>(Result.Exec.DynInstructions));
    std::printf("dynamic regions      : %llu\n",
                static_cast<unsigned long long>(
                    Result.Dict->numDynamicRegions()));
    std::printf("raw trace size       : %s\n",
                formatBytes(Result.Dict->rawTraceBytes()).c_str());
    std::printf("compressed size      : %s (%.0fx)\n",
                formatBytes(Result.Dict->compressedBytes()).c_str(),
                Result.Dict->compressionRatio());
  }

  if (StatsMode)
    std::fputs(tel::Registry::global().renderTable().c_str(), stdout);
  else
    std::fputs(printPlan(*Result.M, Result.ThePlan, Rows).c_str(), stdout);

  if (!writeTelemetryOutputs(TraceOut, MetricsOut))
    return 1;
  return 0;
}

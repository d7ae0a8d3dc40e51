//===- report/ReportTool.cpp ----------------------------------------------===//

#include "report/ReportTool.h"

#include "compress/TraceIO.h"
#include "driver/KremlinDriver.h"
#include "report/ProfileExport.h"
#include "suite/PaperSuite.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace kremlin;
using namespace kremlin::report;
namespace tel = kremlin::telemetry;

namespace {

void printReportUsage() {
  std::fprintf(
      stderr,
      "usage: kremlin report (<source.c> | --bench=<name> | --tracking) "
      "[options]\n"
      "  --format=<speedscope|collapsed|tree|timeline>  output format\n"
      "                                                 (default tree)\n"
      "  --top=<n>              keep only the N highest-work rows\n"
      "                         (tree/timeline; 0 = all)\n"
      "  --min-coverage=<pct>   prune regions below this %% of program work\n"
      "  --out=<path>           write to a file instead of stdout\n"
      "  --load-trace=<path>    analyze a saved compressed trace (the\n"
      "                         source is still needed for the region\n"
      "                         table; only static passes run)\n"
      "  --max-profile-mb=<n>   reject loaded traces larger than N MiB\n"
      "                         (0 = unlimited)\n"
      "speedscope output loads directly at https://www.speedscope.app;\n"
      "collapsed output feeds flamegraph.pl or speedscope's import.\n");
}

bool readReportFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

} // namespace

int report::reportMain(const std::vector<std::string> &Args) {
  std::string Source, SourceName;
  std::string Format = "tree";
  std::string OutPath, LoadTracePath;
  ReportOptions Opts;
  TraceReadLimits Limits;

  for (const std::string &Arg : Args) {
    auto Value = [&Arg]() { return Arg.substr(Arg.find('=') + 1); };
    Status FlagError;
    if (Arg.rfind("--format=", 0) == 0) {
      Format = Value();
    } else if (Arg.rfind("--top=", 0) == 0) {
      FlagError = parseUnsignedFlag(Arg, Opts.Top);
    } else if (Arg.rfind("--min-coverage=", 0) == 0) {
      Opts.MinCoveragePct = std::strtod(Value().c_str(), nullptr);
    } else if (Arg.rfind("--out=", 0) == 0) {
      OutPath = Value();
    } else if (Arg.rfind("--load-trace=", 0) == 0) {
      LoadTracePath = Value();
    } else if (Arg.rfind("--max-profile-mb=", 0) == 0) {
      FlagError = parseUnsignedFlag(Arg, Limits.MaxBytes, 1 << 20);
    } else if (Arg.rfind("--bench=", 0) == 0) {
      Expected<GeneratedBenchmark> GB = tryGeneratePaperBenchmark(Value());
      if (!GB.ok()) {
        tel::logError("report", GB.status().toString());
        return 1;
      }
      Source = GB->Source;
      SourceName = GB->Name + ".c";
    } else if (Arg == "--tracking") {
      Source = trackingSource();
      SourceName = "tracking.c";
    } else if (Arg == "--help" || Arg == "-h") {
      printReportUsage();
      return 0;
    } else if (!Arg.empty() && Arg[0] != '-') {
      if (!readReportFile(Arg, Source)) {
        tel::logf(tel::LogLevel::Error, "report", "cannot read '%s'",
                  Arg.c_str());
        return 1;
      }
      SourceName = Arg;
    } else {
      tel::logf(tel::LogLevel::Error, "report", "unknown option '%s'",
                Arg.c_str());
      printReportUsage();
      return 1;
    }
    if (!FlagError.ok()) {
      tel::logError("report", FlagError.toString());
      return 1;
    }
  }

  if (Format != "speedscope" && Format != "collapsed" && Format != "tree" &&
      Format != "timeline") {
    tel::logf(tel::LogLevel::Error, "report", "unknown format '%s'",
              Format.c_str());
    printReportUsage();
    return 1;
  }
  if (SourceName.empty()) {
    printReportUsage();
    return 1;
  }

  // Obtain module + dictionary: either a fresh profiling run, or static
  // passes only plus a saved trace (the §2.4 offline-analysis workflow).
  KremlinDriver Driver;
  DriverResult Result;
  std::unique_ptr<DictionaryCompressor> LoadedDict;
  if (!LoadTracePath.empty()) {
    Expected<DictionaryCompressor> Dict =
        readTraceFile(LoadTracePath, nullptr, Limits);
    if (!Dict.ok()) {
      tel::logError("report", Dict.status().toString());
      return 1;
    }
    LoadedDict = std::make_unique<DictionaryCompressor>(std::move(*Dict));
    Result = Driver.lintSource(Source, SourceName);
  } else {
    Result = Driver.runOnSource(Source, SourceName);
  }
  for (const std::string &E : Result.Errors)
    tel::logError("report", E);
  if (!Result.succeeded())
    return 1;

  const DictionaryCompressor &Dict =
      LoadedDict ? *LoadedDict : *Result.Dict;
  std::unique_ptr<ParallelismProfile> LoadedProfile;
  if (LoadedDict)
    LoadedProfile = std::make_unique<ParallelismProfile>(*Result.M, Dict);
  const ParallelismProfile &Profile =
      LoadedProfile ? *LoadedProfile : *Result.Profile;

  tel::Span RenderSpan("report.render", "report");
  RenderSpan.arg("format", Format);
  RegionTree Tree = buildRegionTree(Profile, Opts);
  std::string Output;
  if (Format == "speedscope")
    Output = exportSpeedscope(Profile, Tree, SourceName);
  else if (Format == "collapsed")
    Output = exportCollapsed(Profile, Tree);
  else if (Format == "timeline")
    Output = exportTimeline(Profile, Dict, Opts);
  else
    Output = renderTree(Profile, Tree, Opts);
  RenderSpan.end();

  // JSON formats are self-validated before anything is written: report
  // output must always parse (the CI artifact contract).
  if (Format == "speedscope" || Format == "timeline") {
    JsonValue Parsed;
    std::string Error;
    if (!JsonValue::parse(Output, Parsed, &Error)) {
      tel::logf(tel::LogLevel::Error, "report",
                "internal error: %s output is not valid JSON: %s",
                Format.c_str(), Error.c_str());
      return 2;
    }
  }

  if (OutPath.empty()) {
    std::fputs(Output.c_str(), stdout);
  } else {
    if (!writeStringToFile(OutPath, Output)) {
      tel::logf(tel::LogLevel::Error, "report", "cannot write '%s'",
                OutPath.c_str());
      return 1;
    }
    std::printf("report written to %s\n", OutPath.c_str());
  }
  return 0;
}

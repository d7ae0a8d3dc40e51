//===- aggregate/AggregateTool.cpp ----------------------------------------===//

#include "aggregate/AggregateTool.h"

#include "aggregate/ProfileMerge.h"
#include "aggregate/ProfileStore.h"
#include "compress/TraceIO.h"
#include "report/ProfileExport.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <cstdio>

using namespace kremlin;
using namespace kremlin::aggregate;
namespace tel = kremlin::telemetry;

namespace {

void printMergeUsage() {
  std::fprintf(
      stderr,
      "usage: kremlin merge <a.prof> <b.prof>... [options]\n"
      "  --out=<path>           write the merged kremlin-trace here\n"
      "  --speedscope=<path>    also export the merged profile as\n"
      "                         speedscope JSON (self-validated)\n"
      "  --store=<dir>          record the merge into a profile store\n"
      "  --name=<name>          store entry name (default 'merged')\n"
      "  --max-profile-mb=<n>   per-file size budget (0 = unlimited);\n"
      "                         exceeded => structured resource-exhausted\n"
      "                         error, never OOM\n"
      "Merging unions the compressed dictionaries (child characters\n"
      "remapped through the content-addressed index) and concatenates the\n"
      "root tables -- exactly the profile of the concatenated runs, so\n"
      "work sums and self-parallelism recombines work-weighted.\n");
}

void printDiffUsage() {
  std::fprintf(stderr,
               "usage: kremlin diff <a.prof> <b.prof> [options]\n"
               "  --max-profile-mb=<n>   per-file size budget\n"
               "Prints per-region work/SP/coverage deltas, `stats --diff`\n"
               "style ('added'/'removed' for one-sided regions).\n");
}

} // namespace

int aggregate::mergeMain(const std::vector<std::string> &Args) {
  std::vector<std::string> Inputs;
  std::string OutPath, SpeedscopePath, StoreDir, Name = "merged";
  TraceReadLimits Limits;

  for (const std::string &Arg : Args) {
    auto Value = [&Arg]() { return Arg.substr(Arg.find('=') + 1); };
    Status FlagError;
    if (Arg.rfind("--out=", 0) == 0) {
      OutPath = Value();
    } else if (Arg.rfind("--speedscope=", 0) == 0) {
      SpeedscopePath = Value();
    } else if (Arg.rfind("--store=", 0) == 0) {
      StoreDir = Value();
    } else if (Arg.rfind("--name=", 0) == 0) {
      Name = Value();
    } else if (Arg.rfind("--max-profile-mb=", 0) == 0) {
      FlagError = parseUnsignedFlag(Arg, Limits.MaxBytes, 1 << 20);
    } else if (Arg == "--help" || Arg == "-h") {
      printMergeUsage();
      return 0;
    } else if (!Arg.empty() && Arg[0] != '-') {
      Inputs.push_back(Arg);
    } else {
      tel::logf(tel::LogLevel::Error, "merge", "unknown option '%s'",
                Arg.c_str());
      printMergeUsage();
      return 1;
    }
    if (!FlagError.ok()) {
      tel::logError("merge", FlagError.toString());
      return 1;
    }
  }
  if (Inputs.empty()) {
    printMergeUsage();
    return 1;
  }

  DictionaryCompressor Merged;
  std::string Sources;
  for (const std::string &Path : Inputs) {
    TraceMeta Meta;
    Expected<DictionaryCompressor> In = readTraceFile(Path, &Meta, Limits);
    if (!In.ok()) {
      tel::logError("merge", In.status().toString());
      return 1;
    }
    mergeInto(Merged, In.value());
    std::string Label = Meta.Source.empty() ? Path : Meta.Source;
    Sources += (Sources.empty() ? "" : "+") + Label;
  }

  std::printf("merged %zu profile(s): %zu alphabet entries, %llu dynamic "
              "regions, program work %llu\n",
              Inputs.size(), Merged.alphabet().size(),
              static_cast<unsigned long long>(Merged.numDynamicRegions()),
              static_cast<unsigned long long>(programWork(Merged)));

  TraceMeta OutMeta;
  OutMeta.Source = Sources;
  if (!OutPath.empty()) {
    if (Status St = writeTraceFile(Merged, OutPath, OutMeta); !St.ok()) {
      tel::logError("merge", St.toString());
      return 1;
    }
    std::printf("merged trace written to %s\n", OutPath.c_str());
  }

  if (!StoreDir.empty()) {
    Expected<ProfileStore> Store = ProfileStore::open(StoreDir);
    if (!Store.ok()) {
      tel::logError("merge", Store.status().toString());
      return 1;
    }
    if (const StoreRecovery &Rec = Store.value().recovery(); Rec.dirty()) {
      // Operators (and the crash-recovery drill) read this line to see
      // exactly which entries survived and which were quarantined.
      std::printf("kremlin merge: %s\n", Rec.summary().c_str());
    }
    if (Status St = Store.value().add(Name, Merged, OutMeta); !St.ok()) {
      tel::logError("merge", St.toString());
      return 1;
    }
    std::printf("stored as '%s' in %s (%zu entries)\n", Name.c_str(),
                StoreDir.c_str(), Store.value().entries().size());
  }

  if (!SpeedscopePath.empty()) {
    Module M = syntheticModule(Merged);
    ParallelismProfile P(M, Merged);
    report::RegionTree Tree = report::buildRegionTree(P);
    std::string Output = report::exportSpeedscope(P, Tree, "merge");
    // Same contract as `kremlin report`: JSON artifacts self-validate
    // before anything is written; an invalid document is exit 2.
    JsonValue Parsed;
    std::string Error;
    if (!JsonValue::parse(Output, Parsed, &Error)) {
      tel::logf(tel::LogLevel::Error, "merge",
                "internal error: speedscope output is not valid JSON: %s",
                Error.c_str());
      return 2;
    }
    if (!writeStringToFile(SpeedscopePath, Output)) {
      tel::logf(tel::LogLevel::Error, "merge", "cannot write '%s'",
                SpeedscopePath.c_str());
      return 1;
    }
    std::printf("speedscope profile written to %s\n", SpeedscopePath.c_str());
  }
  return 0;
}

int aggregate::diffMain(const std::vector<std::string> &Args) {
  std::vector<std::string> Inputs;
  TraceReadLimits Limits;
  for (const std::string &Arg : Args) {
    Status FlagError;
    if (Arg.rfind("--max-profile-mb=", 0) == 0) {
      FlagError = parseUnsignedFlag(Arg, Limits.MaxBytes, 1 << 20);
    } else if (Arg == "--help" || Arg == "-h") {
      printDiffUsage();
      return 0;
    } else if (!Arg.empty() && Arg[0] != '-') {
      Inputs.push_back(Arg);
    } else {
      tel::logf(tel::LogLevel::Error, "diff", "unknown option '%s'",
                Arg.c_str());
      printDiffUsage();
      return 1;
    }
    if (!FlagError.ok()) {
      tel::logError("diff", FlagError.toString());
      return 1;
    }
  }
  if (Inputs.size() != 2) {
    printDiffUsage();
    return 1;
  }
  DictionaryCompressor Dicts[2];
  for (int Side = 0; Side < 2; ++Side) {
    Expected<DictionaryCompressor> In =
        readTraceFile(Inputs[Side], nullptr, Limits);
    if (!In.ok()) {
      tel::logError("diff", In.status().toString());
      return 1;
    }
    Dicts[Side] = In.takeValue();
  }
  std::printf("a: %s\nb: %s\n", Inputs[0].c_str(), Inputs[1].c_str());
  std::fputs(renderProfileDiff(Dicts[0], Dicts[1]).c_str(), stdout);
  return 0;
}

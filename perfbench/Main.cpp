//===- perfbench/Main.cpp - kremlin-perfbench entry point -----------------===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   kremlin-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///       [--baseline bench/baseline.json] [--trace-out <chrome.json>]
///       [--result-out <result.json>] [--git-rev <rev>]
///
/// Prints the run manifest, a metric table (name, value, unit, samples),
/// with --trace 1 the per-layer self-time table, and as its last line the
/// result object {"correct", "attempted", "failed", "metrics"}.
///
//===----------------------------------------------------------------------===//

#include "perfbench/Bench.h"

#include "support/Json.h"
#include "support/StringUtils.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

using namespace kremlin;
using namespace kremlin::perfbench;

namespace {

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned Regs[12] = {};
  unsigned Max = __get_cpuid_max(0x80000000, nullptr);
  if (Max >= 0x80000004) {
    for (unsigned L = 0; L < 3; ++L)
      __get_cpuid(0x80000002 + L, &Regs[4 * L], &Regs[4 * L + 1],
                  &Regs[4 * L + 2], &Regs[4 * L + 3]);
    char Brand[49] = {};
    std::memcpy(Brand, Regs, 48);
    return std::string(trimString(Brand));
  }
#endif
  return "unknown";
}

std::string compilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

JsonValue manifest(const RunOptions &Opts, const std::string &GitRev) {
  JsonValue M = JsonValue::makeObject();
  M.set("compiler", compilerName());
  M.set("build_type", PERFBENCH_BUILD_TYPE);
  M.set("cxx_flags", std::string(trimString(PERFBENCH_CXX_FLAGS)));
  M.set("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  M.set("cpu_model", cpuModel());
  M.set("git_rev", GitRev);
  M.set("workload", Opts.Workload);
  M.set("seed", Opts.Seed);
  M.set("seconds", Opts.Seconds);
  M.set("trace", Opts.Trace);
  return M;
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "kremlin-perfbench: %s\n"
               "usage: kremlin-perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--baseline <path>] "
               "[--trace-out <path>] [--result-out <path>] [--git-rev <rev>]\n",
               Msg);
  return 2;
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || End == S || *End || S[0] == '-')
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int argc, char **argv) {
  RunOptions Opts;
  std::string Baseline = "bench/baseline.json", TraceOut, ResultOut;
  std::string GitRev = "unknown";
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + Flag).c_str());
    const char *V = argv[++I];
    uint64_t N = 0;
    if (Flag == "--workload") {
      Opts.Workload = V;
      HaveWorkload = true;
    } else if (Flag == "--seed" && parseUnsigned(V, N)) {
      Opts.Seed = N;
      HaveSeed = true;
    } else if (Flag == "--seconds" && parseUnsigned(V, N) && N > 0) {
      Opts.Seconds = static_cast<double>(N);
      HaveSeconds = true;
    } else if (Flag == "--trace" && parseUnsigned(V, N) && N <= 1) {
      Opts.Trace = N == 1;
    } else if (Flag == "--baseline") {
      Baseline = V;
    } else if (Flag == "--trace-out") {
      TraceOut = V;
    } else if (Flag == "--result-out") {
      ResultOut = V;
    } else if (Flag == "--git-rev") {
      GitRev = V;
    } else {
      return usage(("bad flag or value: " + Flag + " " + V).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds)
    return usage("--workload, --seed and --seconds are required");

  RunResult R;
  try {
    std::unique_ptr<Workload> W = makeWorkload(Opts.Workload, Baseline);
    if (!W) {
      std::string Known;
      for (const std::string &Name : workloadNames())
        Known += (Known.empty() ? "" : ", ") + Name;
      return usage(("unknown workload '" + Opts.Workload + "'; one of " +
                    Known).c_str());
    }
    R = runWorkload(*W, Opts);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "kremlin-perfbench: %s: %s\n", Opts.Workload.c_str(),
                 E.what());
    return 1;
  }

  JsonValue Manifest = manifest(Opts, GitRev);
  std::string Line = resultJsonLine(R);
  std::printf("manifest: %s\n", Manifest.serialize().c_str());
  std::printf("%s", renderMetricTable(R).c_str());
  if (Opts.Trace)
    std::printf("\nper-layer self time (traced run):\n%s",
                R.SelfTimeTable.c_str());
  if (R.Failed)
    std::printf("first failure: %s\n", R.FirstFailure.c_str());

  if (Opts.Trace && !TraceOut.empty() &&
      !writeStringToFile(TraceOut, R.Trace.toChromeJson()))
    std::fprintf(stderr, "kremlin-perfbench: cannot write '%s'\n",
                 TraceOut.c_str());
  if (!ResultOut.empty()) {
    JsonValue Doc = JsonValue::makeObject();
    Doc.set("manifest", Manifest);
    JsonValue Ms = JsonValue::makeObject();
    for (const Metric &M : R.Metrics) {
      JsonValue E = JsonValue::makeObject();
      E.set("value", M.Value);
      E.set("unit", M.Unit);
      E.set("samples", M.Samples);
      if (!M.Note.empty())
        E.set("note", M.Note);
      Ms.set(M.Name, E);
    }
    Doc.set("metrics", Ms);
    Doc.set("attempted", R.Attempted);
    Doc.set("failed", R.Failed);
    Doc.set("first_failure", R.FirstFailure);
    if (!writeStringToFile(ResultOut, Doc.serialize() + "\n"))
      std::fprintf(stderr, "kremlin-perfbench: cannot write '%s'\n",
                   ResultOut.c_str());
  }
  std::printf("%s\n", Line.c_str());
  return 0;
}

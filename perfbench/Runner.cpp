//===- perfbench/Runner.cpp - Closed-loop runner and metrics --------------===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//

#include "perfbench/Bench.h"

#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <exception>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <sys/resource.h>
#include <unordered_map>

using namespace kremlin;
using namespace kremlin::perfbench;

double perfbench::wallMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double perfbench::threadCpuMs() {
  timespec TS{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &TS);
  return static_cast<double>(TS.tv_sec) * 1e3 +
         static_cast<double>(TS.tv_nsec) * 1e-6;
}

double perfbench::nearestRank(const std::vector<double> &Sorted, double P) {
  size_t N = Sorted.size();
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * N));
  Rank = std::clamp<size_t>(Rank, 1, N);
  return Sorted[Rank - 1];
}

unsigned perfbench::tailPercentile(size_t N, unsigned Want, size_t MinBeyond) {
  for (unsigned P = Want; P > 50; --P) {
    size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * N));
    if (N >= Rank + MinBeyond)
      return P;
  }
  return 50;
}

// --- Tracer ------------------------------------------------------------------

int Tracer::begin(const char *Name) {
  SpanRecord S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Item = CurItem;
  S.CpuMs = -threadCpuMs(); // Completed in end().
  S.StartMs = wallMs();
  Spans.push_back(S);
  Open.push_back(static_cast<int>(Spans.size() - 1));
  return Open.back();
}

void Tracer::end(int Id) {
  SpanRecord &S = Spans[Id];
  S.EndMs = wallMs();
  S.CpuMs += threadCpuMs();
  Open.pop_back();
}

void Tracer::addSummary(const char *Name, double StartMs, double DurMs) {
  SpanRecord S;
  S.Name = Name;
  S.StartMs = StartMs;
  S.EndMs = StartMs + DurMs;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Item = CurItem;
  Spans.push_back(S);
}

std::string Tracer::toChromeJson() const {
  std::string Out = "{\"traceEvents\": [\n";
  double Origin = Spans.empty() ? 0.0 : Spans.front().StartMs;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    Out += formatString(
        "%s{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
        "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
        "{\"item\": %llu, \"span\": %zu, \"parent\": %d",
        I ? ",\n" : "", S.Name, (S.StartMs - Origin) * 1e3,
        (S.EndMs - S.StartMs) * 1e3, static_cast<unsigned long long>(S.Item),
        I, S.Parent);
    if (S.CpuMs >= 0.0)
      Out += formatString(", \"cpu_ms\": %.6f", S.CpuMs);
    Out += "}}";
  }
  Out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return Out;
}

// --- Runner ------------------------------------------------------------------

namespace {

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return nearestRank(V, 50);
}

/// Reference milliseconds are wall milliseconds on a host where one
/// kernel run takes this long (about what it takes on the quiet 4-vCPU
/// Xeon VM the bounds were tuned on).
constexpr double KernelNominalMs = 2.0;
/// Untraced runs time the kernel between items at most this often ...
constexpr double KernelEveryMs = 50.0;
/// ... and scale each item by the median of the samples within this many
/// samples of the last one taken before it.
constexpr size_t KernelWindow = 4;

/// The reference kernel: fixed work that calls nothing of the program
/// under test, written like the items' code rather than as a tight loop:
/// formatted keys in a std::map, an unordered_map of vectors, stream
/// formatting and parsing, a sort, and reads and writes at hashed indices
/// of a 4 MiB table. Its code footprint, branches and allocations make a
/// busy host slow it about as much as it slows the items on average (a
/// tight arithmetic loop followed them less closely). A change to the
/// program leaves it alone. Returns its wall time.
double referenceKernelMs() {
  static std::vector<uint32_t> Table(1u << 20);
  double Start = wallMs();
  uint64_t X = 0x9E3779B97F4A7C15ull, Acc = 1;
  auto Next = [&X] {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    return X;
  };
  for (int Round = 0; Round < 4; ++Round) {
    std::map<std::string, uint64_t> Names;
    std::unordered_map<uint64_t, std::vector<uint32_t>> Buckets;
    std::ostringstream OS;
    std::vector<uint32_t> Keys;
    for (unsigned I = 0; I < 300; ++I) {
      uint64_t V = Next();
      Names[formatString("r%llu.%u", static_cast<unsigned long long>(V % 997),
                         I % 7)] += V;
      Buckets[V & 127].push_back(static_cast<uint32_t>(V));
      OS << (V & 0xffff) << ' ' << static_cast<double>(V % 1000) / 7.0 << '\n';
      for (int J = 0; J < 8; ++J) {
        uint32_t &Slot = Table[Next() & (Table.size() - 1)];
        Slot += static_cast<uint32_t>(Acc);
        Acc ^= Slot;
      }
      Keys.push_back(static_cast<uint32_t>(V >> 20));
    }
    std::sort(Keys.begin(), Keys.end());
    std::istringstream IS(OS.str());
    uint64_t A = 0;
    double D = 0.0;
    while (IS >> A >> D)
      Acc += A + static_cast<uint64_t>(D);
    for (const auto &[K, V] : Names)
      Acc += K.size() + (V & 1);
    Acc += Buckets.size() + Keys[Keys.size() / 2];
  }
  Table[0] += static_cast<uint32_t>(Acc); // Keeps the work observable.
  return wallMs() - Start;
}

double peakRssMb() {
  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

/// One item through the workload, guarded: an exception or a wrong output
/// is returned as the failure text. Only the work itself is timed.
struct ItemTiming {
  double WallMs = 0.0;
  double CpuMs = 0.0;
  std::string Failure;
};

template <typename Fn>
ItemTiming runGuarded(Workload &W, size_t I, Fn &&Body) {
  ItemTiming T;
  double Cpu = threadCpuMs(), Wall = wallMs();
  try {
    Body();
  } catch (const std::exception &E) {
    T.Failure = std::string("exception: ") + E.what();
  } catch (...) {
    T.Failure = "unknown exception";
  }
  T.WallMs = wallMs() - Wall;
  T.CpuMs = threadCpuMs() - Cpu;
  if (T.Failure.empty()) {
    try {
      T.Failure = W.check(I);
    } catch (const std::exception &E) {
      T.Failure = std::string("check threw: ") + E.what();
    }
  }
  W.clear();
  return T;
}

/// Layer spans whose time becomes a *_ms metric (and a *_cpu_ms twin when
/// the span measured CPU), in output order.
const char *const LayerSpans[] = {
    "parser.parse",    "parser.lower",   "ir.verify",       "instrument",
    "analysis",        "interp.plain",   "rt.profiled",     "compress.intern",
    "compress.write",  "compress.read",  "aggregate.merge", "profile.build",
    "planner.plan",    "machine.simulate", "report.tree",   "report.export"};

/// "parser.parse" -> "parser.parse_ms"; a one-word layer ("instrument")
/// gets "instrument.ms".
std::string msName(const std::string &Stem) {
  return Stem + (Stem.find('.') == std::string::npos ? ".ms" : "_ms");
}
std::string cpuName(const std::string &Stem) {
  return Stem + (Stem.find('.') == std::string::npos ? ".cpu_ms" : "_cpu_ms");
}

struct SpanTotals {
  double Wall = 0.0, Self = 0.0, Cpu = 0.0;
  uint64_t Calls = 0;
  bool HasCpu = true;
};

/// Untraced and traced timings of the same items, for the gap metrics.
struct TraceGap {
  double UntracedMs = 0.0, UntracedCpuMs = 0.0;
  double TracedMs = 0.0;
  uint64_t Items = 0;
};

void addLayerMetrics(RunResult &R, const Workload &W, const SetupTimes &Setup,
                     const TraceGap &Gap) {
  const Tracer &T = R.Trace;
  const double N = std::max<double>(1.0, static_cast<double>(Gap.Items));
  auto Put = [&R, &Gap](const std::string &Name, double V, const char *Unit) {
    R.Metrics.push_back({Name, V, Unit, Gap.Items, ""});
  };
  auto Ratio = [](double A, double B) { return B != 0.0 ? A / B : 0.0; };
  auto C = [&T](const char *Name) {
    auto It = T.counters().find(Name);
    return It == T.counters().end() ? 0.0 : It->second;
  };

  // Per-name totals, self time = duration minus child spans.
  std::map<std::string, SpanTotals> Totals;
  std::vector<double> ChildMs(T.spans().size(), 0.0);
  for (const SpanRecord &S : T.spans())
    if (S.Parent >= 0)
      ChildMs[S.Parent] += S.EndMs - S.StartMs;
  const char *Probe = W.probeSpan();
  double LayerWall = 0.0, LayerCpu = 0.0, ProbeMs = 0.0;
  for (size_t I = 0; I < T.spans().size(); ++I) {
    const SpanRecord &S = T.spans()[I];
    SpanTotals &Tot = Totals[S.Name];
    double Dur = S.EndMs - S.StartMs;
    Tot.Wall += Dur;
    Tot.Self += Dur - ChildMs[I];
    Tot.Cpu += std::max(0.0, S.CpuMs);
    Tot.HasCpu = Tot.HasCpu && S.CpuMs >= 0.0;
    ++Tot.Calls;
    bool Root = S.Parent >= 0 && T.spans()[S.Parent].Parent < 0;
    if (!Root)
      continue;
    if (Probe && std::string(S.Name) == Probe) {
      ProbeMs += Dur;
    } else {
      LayerWall += Dur;
      LayerCpu += S.CpuMs;
    }
  }
  auto Get = [&Totals](const char *Name) {
    auto It = Totals.find(Name);
    return It == Totals.end() ? SpanTotals() : It->second;
  };
  auto Wall = [&Get](const char *Name) { return Get(Name).Wall; };

  R.Metrics.push_back(
      {"suite.generate_ms", Setup.GenerateMs, "ms", 1, "per setup"});
  R.Metrics.push_back(
      {"suite.generate_cpu_ms", Setup.GenerateCpuMs, "ms", 1, "per setup"});
  for (const char *Stem : LayerSpans) {
    const SpanTotals Tot = Get(Stem);
    Put(msName(Stem), Tot.Wall / N, "ms");
    if (std::string(Stem) != "compress.intern")
      Put(cpuName(Stem), Tot.Cpu / N, "ms");
  }

  double SrcKb = C("parser.src_bytes") / 1024.0;
  Put("parser.src_kb", SrcKb / N, "KB");
  Put("parser.kb_per_s",
      Ratio(SrcKb, (Wall("parser.parse") + Wall("parser.lower")) / 1e3),
      "KB/s");
  Put("ir.insts", C("ir.insts") / N, "count");
  Put("instrument.insts_added", C("instrument.insts_added") / N, "count");
  Put("instrument.annotations", C("instrument.annotations") / N, "count");
  Put("analysis.loops", C("analysis.loops") / N, "count");
  Put("analysis.decided_ratio",
      Ratio(C("analysis.decided"), C("analysis.loops")), "ratio");
  Put("interp.dyn_insts", C("interp.dyn_insts") / N, "count");
  Put("interp.plain_ns_per_inst",
      Ratio(Wall("interp.plain") * 1e6, C("interp.dyn_insts")), "ns");
  Put("rt.overhead_ms",
      (Wall("rt.profiled") - Wall("interp.plain") - Wall("compress.intern")) /
          N,
      "ms");
  Put("rt.ns_per_inst", Ratio(Wall("rt.profiled") * 1e6, C("rt.dyn_insts")),
      "ns");
  Put("rt.slowdown", Ratio(Wall("rt.profiled"), Wall("interp.plain")),
      "ratio");
  for (const char *Count : {"rt.region_entries", "rt.loads", "rt.stores",
                            "rt.level_retags"})
    Put(Count, C(Count) / N, "count");
  Put("rt.shadow_slab_mb", C("rt.shadow_slab_bytes") / (1024.0 * 1024.0) / N,
      "MB");
  for (const char *Count :
       {"rt.shadow_segments", "rt.shadow_reads", "rt.shadow_writes",
        "compress.interns"})
    Put(Count, C(Count) / N, "count");
  Put("compress.hit_ratio", Ratio(C("compress.hits"), C("compress.interns")),
      "ratio");
  Put("compress.alphabet", C("compress.alphabet") / N, "count");
  Put("compress.profile_kb", C("compress.profile_bytes") / 1024.0 / N, "KB");
  Put("aggregate.merged_alphabet", C("aggregate.merged_alphabet") / N,
      "count");
  Put("aggregate.reuse_ratio",
      Ratio(C("aggregate.merged_alphabet"), C("aggregate.input_alphabet")),
      "ratio");
  Put("planner.plan_regions", C("planner.plan_regions") / N, "count");
  Put("report.export_kb", C("report.export_bytes") / 1024.0 / N, "KB");

  // The gap between the two runs of the same items.
  Put("driver.unattributed_ms", (Gap.UntracedMs - LayerWall) / N, "ms");
  Put("driver.unattributed_cpu_ms", (Gap.UntracedCpuMs - LayerCpu) / N, "ms");
  Put("trace.overhead_pct",
      Ratio(Gap.TracedMs - ProbeMs - Gap.UntracedMs, Gap.UntracedMs) * 100.0,
      "%");

  // Self-time table.
  TablePrinter TP;
  TP.setHeader({"span", "calls/item", "total ms/item", "self ms/item",
                "cpu ms/item", "share of traced item"});
  double ItemMs = Wall("item");
  std::vector<std::pair<std::string, SpanTotals>> Rows(Totals.begin(),
                                                       Totals.end());
  std::sort(Rows.begin(), Rows.end(), [](const auto &A, const auto &B) {
    return A.second.Self > B.second.Self;
  });
  for (const auto &[Name, Tot] : Rows)
    TP.addRow({Name, formatString("%.2f", Tot.Calls / N),
               formatString("%.3f", Tot.Wall / N),
               formatString("%.3f", Tot.Self / N),
               Tot.HasCpu ? formatString("%.3f", Tot.Cpu / N) : "n/a",
               formatString("%.1f%%", Ratio(Tot.Self, ItemMs) * 100.0)});
  R.SelfTimeTable =
      TP.render() +
      formatString("untraced item: %.3f ms (cpu %.3f ms); traced item: %.3f "
                   "ms, of which probe %.3f ms; %llu item pairs\n",
                   Gap.UntracedMs / N, Gap.UntracedCpuMs / N,
                   Gap.TracedMs / N, ProbeMs / N,
                   static_cast<unsigned long long>(Gap.Items));
}

} // namespace

RunResult perfbench::runWorkload(Workload &W, const RunOptions &Opts) {
  RunResult R;
  // Untraced runs time the reference kernel between items (at most every
  // KernelEveryMs) and before each setup. Kernel[J] is the J-th sample;
  // an item or setup remembers the index of the sample taken before it.
  std::vector<double> Kernel;
  double LastKernel = -1e300;
  auto sampleKernel = [&](bool Force) {
    if (!Opts.Trace && (Force || wallMs() - LastKernel >= KernelEveryMs)) {
      Kernel.push_back(referenceKernelMs());
      LastKernel = wallMs();
    }
    return Kernel.empty() ? 0 : Kernel.size() - 1;
  };
  for (int Rep = 0; Rep < 3; ++Rep) // The table's pages are faulted in.
    referenceKernelMs();

  std::vector<double> SetupSeconds;
  std::vector<size_t> SetupKernel;
  SetupTimes Setup;
  auto timeSetup = [&] {
    SetupKernel.push_back(sampleKernel(true));
    double Start = wallMs();
    Setup = W.setup(Opts.Seed);
    SetupSeconds.push_back((wallMs() - Start) / 1e3);
    return SetupSeconds.back();
  };
  for (int Rep = 0; Rep < 3; ++Rep)
    timeSetup();
  const bool InterleaveSetup = median(SetupSeconds) < Opts.Seconds * 0.01;

  // One untimed item first: lazy allocations and caches settle.
  runGuarded(W, 0, [&] { W.run(0); });

  std::vector<double> Latency;
  std::vector<size_t> ItemKernel;
  TraceGap Gap;
  const double Budget = Opts.Seconds * 1e3;
  const double Start = wallMs();
  for (uint64_t K = 0;; ++K) {
    size_t I = K % W.size();
    auto Traced = [&] {
      R.Trace.setItem(K);
      return runGuarded(W, I, [&] {
        Span Item(R.Trace, "item");
        W.runTraced(I, R.Trace);
      });
    };
    ItemKernel.push_back(sampleKernel(false));
    // A traced run pairs each untraced item with a traced run of the same
    // input, alternating which goes first so neither always finds the
    // caches warm.
    ItemTiming Tr;
    if (Opts.Trace && K % 2)
      Tr = Traced();
    ItemTiming U = runGuarded(W, I, [&] { W.run(I); });
    if (Opts.Trace && K % 2 == 0)
      Tr = Traced();

    ++R.Attempted;
    Latency.push_back(U.WallMs);
    if (!U.Failure.empty() && R.Failed++ == 0)
      R.FirstFailure = U.Failure;
    if (Opts.Trace) {
      ++R.Attempted;
      if (!Tr.Failure.empty() && R.Failed++ == 0)
        R.FirstFailure = "traced: " + Tr.Failure;
      Gap.UntracedMs += U.WallMs;
      Gap.UntracedCpuMs += U.CpuMs;
      Gap.TracedMs += Tr.WallMs;
      ++Gap.Items;
    }
    if ((K + 1) % W.size() != 0)
      continue;
    // A cheap setup is also timed after every pass, so its median samples
    // the whole run, as the items do, and not only its first milliseconds.
    if (InterleaveSetup)
      timeSetup();
    // Whole passes only, so every item weighs the same in every run.
    if (wallMs() - Start >= Budget)
      break;
  }

  if (Opts.Trace) {
    addLayerMetrics(R, W, Setup, Gap);
    return R;
  }

  // The host's speed drifts by tens of percent over minutes (other
  // tenants), which no statistic over one run can remove. So every item
  // and setup time is scaled by KernelNominalMs over the median of the
  // reference-kernel samples nearest to it: reference milliseconds, the
  // time on a host where the kernel takes KernelNominalMs. A change to the
  // program moves them exactly as it moves wall time; a slower host slows
  // the kernel with the items and cancels out.
  auto Speed = [&](size_t J) {
    size_t Lo = J >= KernelWindow ? J - KernelWindow : 0;
    size_t Hi = std::min(Kernel.size(), J + KernelWindow + 1);
    return KernelNominalMs /
           median(std::vector<double>(Kernel.begin() + Lo,
                                      Kernel.begin() + Hi));
  };
  const size_t S = W.size();
  auto PassRates = [S](const std::vector<double> &Ms) {
    std::vector<double> Rates;
    for (size_t P = 0; P + S <= Ms.size(); P += S)
      Rates.push_back(
          S / (std::accumulate(Ms.begin() + P, Ms.begin() + P + S, 0.0) /
               1e3));
    return Rates;
  };
  std::vector<double> Ref(Latency.size()), RefSetups;
  for (size_t K = 0; K < Latency.size(); ++K)
    Ref[K] = Latency[K] * Speed(ItemKernel[K]);
  for (size_t I = 0; I < SetupSeconds.size(); ++I)
    RefSetups.push_back(SetupSeconds[I] * Speed(SetupKernel[I]));
  const std::vector<double> Rates = PassRates(Ref);
  const std::vector<double> WallRates = PassRates(Latency);
  std::vector<double> Sorted = Ref, Wall = Latency;
  std::sort(Sorted.begin(), Sorted.end());
  std::sort(Wall.begin(), Wall.end());

  // Each note gives the wall-clock value next to the reference one.
  const std::string Kern = formatString("; kernel median %.4f ms of %zu",
                                        median(Kernel), Kernel.size());
  auto WallNote = [&Kern](double V, const char *Unit) {
    return formatString("reference; wall %.4f %s", V, Unit) + Kern;
  };
  const uint64_t N = Sorted.size();
  const unsigned Tail = tailPercentile(N);
  R.Metrics.push_back({"setup_s", median(RefSetups), "s", RefSetups.size(),
                       WallNote(median(SetupSeconds), "s")});
  R.Metrics.push_back({"items_per_s", median(Rates), "1/s", Rates.size(),
                       "median pass rate, " +
                           WallNote(median(WallRates), "1/s")});
  R.Metrics.push_back({"latency_ms_p50", nearestRank(Sorted, 50), "ms", N,
                       WallNote(nearestRank(Wall, 50), "ms")});
  R.Metrics.push_back(
      {"latency_ms_p90", nearestRank(Sorted, Tail), "ms", N,
       (Tail == 90 ? std::string()
                   : formatString("p%u: fewer than 10 samples beyond p90; ",
                                  Tail)) +
           WallNote(nearestRank(Wall, Tail), "ms")});
  R.Metrics.push_back({"peak_rss_mb", peakRssMb(), "MB", 1, "getrusage"});
  R.Metrics.push_back({"success_rate",
                       static_cast<double>(R.Attempted - R.Failed) /
                           static_cast<double>(R.Attempted),
                       "ratio", R.Attempted, "1 - error rate"});
  return R;
}

std::string perfbench::resultJsonLine(const RunResult &R) {
  std::string Metrics;
  for (const Metric &M : R.Metrics)
    Metrics += formatString("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                            Metrics.empty() ? "" : ", ", M.Name.c_str(),
                            formatJsonNumber(M.Value).c_str(), M.Unit.c_str());
  return formatString(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}",
      R.Failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(R.Attempted),
      static_cast<unsigned long long>(R.Failed), Metrics.c_str());
}

std::string perfbench::renderMetricTable(const RunResult &R) {
  TablePrinter TP;
  TP.setHeader({"metric", "value", "unit", "samples", "note"});
  for (const Metric &M : R.Metrics)
    TP.addRow({M.Name, formatString("%.6g", M.Value), M.Unit,
               std::to_string(M.Samples), M.Note});
  return TP.render();
}

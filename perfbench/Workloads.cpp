//===- perfbench/Workloads.cpp - The four benchmark workloads -------------===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Why these four (see README.md for the layer map):
///  - profile-suite: the paper's evaluation traffic, source -> plan on the
///    11 paper programs; execute dominates, the static stages are ~1/4.
///  - profile-bigmem: few loops over arrays of 5x10^4..4x10^5 words; the
///    only workload that loads the shadow page table, slab and free pool.
///  - lint-corpus: `kremlin lint` on generated files; parser, ir,
///    instrument and analysis do all the work and nothing executes, so an
///    execute-layer change must read "no change" here.
///  - replan-merged: offline merge + re-plan of saved profiles; the
///    compress (read), aggregate, profile, planner, machine and report
///    layers, which are a few percent of profile-suite, are its bulk.
///
//===----------------------------------------------------------------------===//

#include "perfbench/Bench.h"
#include "perfbench/Workloads.h"

#include "aggregate/ProfileMerge.h"
#include "compress/TraceIO.h"
#include "driver/KremlinDriver.h"
#include "ir/Verifier.h"
#include "machine/ExecutionSimulator.h"
#include "parser/Lower.h"
#include "parser/Parser.h"
#include "report/ProfileExport.h"
#include "suite/PaperSuite.h"
#include "support/Json.h"
#include "support/Prng.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>

using namespace kremlin;
using namespace kremlin::perfbench;

namespace {

// --- Generation helpers ------------------------------------------------------

template <typename T> void shuffle(std::vector<T> &V, Prng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.nextBelow(I)]);
}

/// The I-th of N values log-spaced over [Lo, Hi] (stratified, so every
/// seed covers the same size range).
double logSpaced(size_t I, size_t N, double Lo, double Hi) {
  return Lo * std::pow(Hi / Lo, (static_cast<double>(I) + 0.5) /
                                    static_cast<double>(N));
}

constexpr SiteKind AllKinds[] = {
    SiteKind::HotDoall,       SiteKind::SmallDoall,     SiteKind::ColdDoall,
    SiteKind::Doacross,       SiteKind::SerialChain,    SiteKind::IlpSerial,
    SiteKind::ReductionHeavy, SiteKind::ReductionLight, SiteKind::CoarseNest,
    SiteKind::ChildrenNest};

SiteSpec randomLintSite(Prng &R, SiteKind Kind) {
  SiteSpec S;
  S.Kind = Kind;
  S.Iters = static_cast<unsigned>(R.nextInRange(16, 512));
  S.Work = static_cast<unsigned>(R.nextInRange(1, 12));
  S.InnerCount = static_cast<unsigned>(R.nextInRange(1, 3));
  S.InnerIters = static_cast<unsigned>(R.nextInRange(8, 64));
  S.ManualOuter = R.nextBool(0.5);
  S.ManualInner = !S.ManualOuter && R.nextBool(0.5);
  S.InnerDoacross = Kind == SiteKind::CoarseNest && R.nextBool(0.3);
  return S;
}

/// Loop-map lookup: region id -> generated loop, via the loop's start line.
const GeneratedLoop *loopForRegion(const GeneratedBenchmark &GB,
                                   const Module &M, RegionId R) {
  if (R >= M.Regions.size() || M.Regions[R].Kind != RegionKind::Loop)
    return nullptr;
  for (const GeneratedLoop &L : GB.Loops)
    if (L.Line == M.Regions[R].StartLine)
      return &L;
  return nullptr;
}

uint64_t countInsts(const Module &M) {
  uint64_t N = 0;
  for (const Function &F : M.Functions)
    for (const BasicBlock &BB : F.Blocks)
      N += BB.Insts.size();
  return N;
}

// --- Pipelines ---------------------------------------------------------------

/// What one pipeline item leaves behind for its check. Members are
/// declared so that Profile (which points into M) is destroyed first.
struct PipelineOutput {
  std::unique_ptr<Module> M;
  StaticAnalysisResult Static;
  uint64_t DynInsts = 0;
  std::unique_ptr<DictionaryCompressor> Dict;
  std::unique_ptr<ParallelismProfile> Profile;
  Plan ThePlan;
  /// The saved profile (writeTrace).
  std::string Trace;
  /// Stage failure; "" on success.
  std::string Error;
};

/// The RegionSummarySink proxy of the traced run: times every intern call
/// into the real compressor. Thread CPU time is not read per call: a
/// CLOCK_THREAD_CPUTIME_ID read costs several times an intern.
class TimingSink final : public RegionSummarySink {
public:
  explicit TimingSink(DictionaryCompressor &Dict) : Dict(Dict) {}

  SummaryChar intern(DynRegionSummary Summary) override {
    double Start = wallMs();
    SummaryChar C = Dict.intern(std::move(Summary));
    Ms += wallMs() - Start;
    return C;
  }
  void onRootExit(SummaryChar Root) override { Dict.onRootExit(Root); }

  double Ms = 0.0;

private:
  DictionaryCompressor &Dict;
};

/// Profile path as users run it: KremlinDriver::runOnSource, then the
/// profile is saved.
PipelineOutput profileAsUser(const std::string &Source,
                             const std::string &Name) {
  PipelineOutput Out;
  KremlinDriver Driver;
  DriverResult R = Driver.runOnSource(Source, Name);
  if (!R.succeeded()) {
    Out.Error = R.Err.ok() ? R.Errors.front() : R.Err.toString();
    return Out;
  }
  Out.Trace = writeTrace(*R.Dict, TraceMeta{Name});
  Out.M = std::move(R.M);
  Out.Static = std::move(R.Static);
  Out.DynInsts = R.Exec.DynInstructions;
  Out.Dict = std::move(R.Dict);
  Out.Profile = std::move(R.Profile);
  Out.ThePlan = std::move(R.ThePlan);
  return Out;
}

/// Lint path as users run it (`kremlin lint`).
PipelineOutput lintAsUser(const std::string &Source, const std::string &Name) {
  PipelineOutput Out;
  KremlinDriver Driver;
  DriverResult R = Driver.lintSource(Source, Name);
  if (!R.succeeded()) {
    Out.Error = R.Err.ok() ? R.Errors.front() : R.Err.toString();
    return Out;
  }
  Out.M = std::move(R.M);
  Out.Static = std::move(R.Static);
  return Out;
}

/// Traced static stages: parse -> lower -> verify -> instrument -> analyze,
/// each a direct call into the layer. Returns false on a stage failure.
bool staticStagesTraced(PipelineOutput &Out, const std::string &Source,
                        const std::string &Name, Tracer &T) {
  T.count("parser.src_bytes", static_cast<double>(Source.size()));
  ParseResult PR;
  {
    Span S(T, "parser.parse");
    PR = parseMiniC(Source, Name);
  }
  if (!PR.succeeded()) {
    Out.Error = "parse: " + PR.Errors.front();
    return false;
  }
  LowerResult LR;
  {
    Span S(T, "parser.lower");
    LR = lowerProgram(PR.Program);
  }
  if (!LR.succeeded()) {
    Out.Error = "lower: " + LR.Errors.front();
    return false;
  }
  Out.M = std::move(LR.M);
  uint64_t Lowered = countInsts(*Out.M);
  T.count("ir.insts", static_cast<double>(Lowered));

  std::vector<std::string> Problems;
  {
    Span S(T, "ir.verify");
    Problems = verifyModule(*Out.M);
  }
  if (!Problems.empty()) {
    Out.Error = "verify: " + Problems.front();
    return false;
  }
  InstrumentResult IR;
  {
    Span S(T, "instrument");
    InstrumentOptions IO;
    IO.VerifyAfterEachPass = DriverOptions().VerifyIR;
    IR = instrumentModule(*Out.M, IO);
  }
  if (!IR.Err.ok()) {
    Out.Error = "instrument: " + IR.Err.toString();
    return false;
  }
  T.count("instrument.insts_added",
          static_cast<double>(countInsts(*Out.M) - Lowered));
  T.count("instrument.annotations",
          IR.NumInductionUpdates + IR.NumReductionUpdates +
              IR.NumMemoryReductions + IR.NumCondBranches);
  {
    Span S(T, "analysis");
    Out.Static = analyzeModuleDependence(*Out.M);
  }
  double Decided = 0.0;
  for (const StaticLoopResult &L : Out.Static.Loops)
    Decided += L.Verdict != LoopVerdict::Unknown;
  T.count("analysis.loops", static_cast<double>(Out.Static.Loops.size()));
  T.count("analysis.decided", Decided);
  return true;
}

/// Traced profile path: the static stages, the profiled execution (with
/// the intern proxy), a plain execution as a probe, profile, plan, save.
PipelineOutput profileTraced(const std::string &Source,
                             const std::string &Name, Tracer &T) {
  PipelineOutput Out;
  if (!staticStagesTraced(Out, Source, Name, T))
    return Out;

  Out.Dict = std::make_unique<DictionaryCompressor>();
  TimingSink Sink(*Out.Dict);
  ExecResult Exec;
  {
    Span S(T, "rt.profiled");
    double Start = wallMs();
    KremlinRuntime RT(KremlinConfig(), Sink);
    Interpreter Interp(*Out.M);
    Exec = Interp.run(&RT);
    T.addSummary("compress.intern", Start, Sink.Ms);
    const RuntimeStats &Stats = RT.stats();
    const ShadowMemory &Mem = RT.shadowMemory();
    T.count("rt.dyn_insts", static_cast<double>(Exec.DynInstructions));
    T.count("rt.region_entries", static_cast<double>(Stats.DynRegionEntries));
    T.count("rt.loads", static_cast<double>(Stats.Loads));
    T.count("rt.stores", static_cast<double>(Stats.Stores));
    T.count("rt.level_retags", static_cast<double>(Stats.LevelRetags));
    T.count("rt.shadow_slab_bytes", static_cast<double>(Mem.allocatedBytes()));
    T.count("rt.shadow_segments",
            static_cast<double>(Mem.allocatedSegments() +
                                Mem.releasedSegments()));
    T.count("rt.shadow_reads", static_cast<double>(Mem.timestampReads()));
    T.count("rt.shadow_writes", static_cast<double>(Mem.timestampWrites()));
  }
  if (!Exec.Ok) {
    Out.Error = "execute: " + Exec.Error;
    return Out;
  }
  Out.DynInsts = Exec.DynInstructions;
  T.count("compress.interns",
          static_cast<double>(Out.Dict->numDynamicRegions()));
  T.count("compress.hits", static_cast<double>(Out.Dict->hits()));
  T.count("compress.alphabet",
          static_cast<double>(Out.Dict->alphabet().size()));

  {
    Span S(T, "interp.plain");
    Interpreter Plain(*Out.M);
    ExecResult PlainExec = Plain.run(nullptr);
    T.count("interp.dyn_insts", static_cast<double>(PlainExec.DynInstructions));
  }
  {
    Span S(T, "profile.build");
    Out.Profile = std::make_unique<ParallelismProfile>(*Out.M, *Out.Dict);
  }
  {
    Span S(T, "planner.plan");
    PlannerOptions PO;
    PO.StaticVerdicts = Out.Static.verdictMap();
    Out.ThePlan = makePersonality("openmp")->plan(*Out.Profile, PO);
  }
  T.count("planner.plan_regions",
          static_cast<double>(Out.ThePlan.Items.size()));
  {
    Span S(T, "compress.write");
    Out.Trace = writeTrace(*Out.Dict, TraceMeta{Name});
  }
  T.count("compress.profile_bytes", static_cast<double>(Out.Trace.size()));
  return Out;
}

/// Times the generation calls of one setup.
template <typename Fn> SetupTimes timeGeneration(Fn &&Generate) {
  double Wall = wallMs(), Cpu = threadCpuMs();
  Generate();
  return {wallMs() - Wall, threadCpuMs() - Cpu};
}

/// Base of the workloads whose items are generated sources.
class SourceWorkload : public Workload {
public:
  size_t size() const override { return Gen.size(); }
  void clear() override { Last = PipelineOutput(); }

protected:
  std::string itemName(size_t I) const { return Gen[I].Name + ".c"; }

  std::vector<GeneratedBenchmark> Gen;
  PipelineOutput Last;
};

/// Items taken source -> plan with the profile saved.
class ProfileWorkload : public SourceWorkload {
public:
  void run(size_t I) override {
    Last = profileAsUser(Gen[I].Source, itemName(I));
  }
  void runTraced(size_t I, Tracer &T) override {
    Last = profileTraced(Gen[I].Source, itemName(I), T);
  }
  const char *probeSpan() const override { return "interp.plain"; }
};

// --- profile-suite -----------------------------------------------------------

class ProfileSuite final : public ProfileWorkload {
public:
  explicit ProfileSuite(const std::string &BaselinePath) {
    std::string Text, Error;
    JsonValue Doc;
    if (!readFileToString(BaselinePath, Text) ||
        !JsonValue::parse(Text, Doc, &Error) || !Doc.get("metrics"))
      throw std::runtime_error("profile-suite: cannot read expected outputs "
                               "from '" + BaselinePath + "' " + Error);
    for (const auto &[Key, V] : Doc.get("metrics")->members())
      Expected[Key] = V.asNumber();
  }

  SetupTimes setup(uint64_t Seed) override {
    std::vector<std::string> Names = paperBenchmarkNames();
    Prng R(Seed);
    shuffle(Names, R);
    Gen.clear();
    return timeGeneration([&] {
      for (const std::string &Name : Names)
        Gen.push_back(generatePaperBenchmark(Name));
    });
  }

  std::string check(size_t I) const override {
    const std::string &Name = Gen[I].Name;
    if (!Last.Error.empty())
      return Name + ": " + Last.Error;
    std::vector<RegionId> Manual =
        loopRegionsAtLines(*Last.M, Gen[I].manualLines());
    std::set<RegionId> ManualSet(Manual.begin(), Manual.end());
    std::set<RegionId> Planned;
    for (const PlanItem &Item : Last.ThePlan.Items)
      Planned.insert(Item.Region);
    unsigned Overlap = 0;
    for (RegionId R : Planned)
      Overlap += ManualSet.count(R);
    const std::pair<const char *, double> Actual[] = {
        {"plan_size", static_cast<double>(Planned.size())},
        {"plan_overlap", static_cast<double>(Overlap)},
        {"dyn_instructions", static_cast<double>(Last.DynInsts)},
        {"dict_alphabet", static_cast<double>(Last.Dict->alphabet().size())},
        {"compressed_bytes",
         static_cast<double>(Last.Dict->compressedBytes())},
    };
    for (const auto &[Key, Value] : Actual) {
      auto It = Expected.find(Name + "." + Key);
      if (It == Expected.end())
        return Name + ": no expected " + Key + " in the baseline";
      if (It->second != Value)
        return Name + ": " + Key + " = " + formatJsonNumber(Value) +
               ", expected " + formatJsonNumber(It->second);
    }
    unsigned ManualFact = paperFacts(Name).ManualPlanSize;
    if (ManualSet.size() != ManualFact)
      return Name + ": MANUAL plan maps to " +
             std::to_string(ManualSet.size()) + " regions, the paper has " +
             std::to_string(ManualFact);
    return "";
  }

private:
  std::map<std::string, double> Expected;
};

// --- profile-bigmem ----------------------------------------------------------

class ProfileBigmem final : public ProfileWorkload {
public:
  SetupTimes setup(uint64_t Seed) override {
    return timeGeneration([&] { Gen = generateBigmemCorpus(Seed); });
  }
  std::string check(size_t I) const override {
    if (!Last.Error.empty())
      return Gen[I].Name + ": " + Last.Error;
    return checkPlanAgainstLoopMap(Gen[I], *Last.M, Last.ThePlan);
  }
};

// --- lint-corpus -------------------------------------------------------------

class LintCorpus final : public SourceWorkload {
public:
  SetupTimes setup(uint64_t Seed) override {
    return timeGeneration([&] { Gen = generateLintCorpus(Seed); });
  }
  void run(size_t I) override {
    Last = lintAsUser(Gen[I].Source, itemName(I));
  }
  void runTraced(size_t I, Tracer &T) override {
    Last = PipelineOutput();
    staticStagesTraced(Last, Gen[I].Source, itemName(I), T);
  }
  std::string check(size_t I) const override {
    if (!Last.Error.empty())
      return Gen[I].Name + ": " + Last.Error;
    return checkLintVerdicts(Gen[I], *Last.M, Last.Static);
  }
};

// --- replan-merged -----------------------------------------------------------

/// Each item re-plans one paper program from K saved profiles of input
/// variants (different Timesteps, one region table).
class ReplanMerged final : public Workload {
public:
  SetupTimes setup(uint64_t Seed) override {
    SetupTimes Times;
    Programs.clear();
    // The same inputs, profiled in the same order, for every seed: per-item
    // cost and the heap's high-water mark do not depend on it. The seed
    // sets the item order and each program's merge order.
    for (const std::string &Name : paperBenchmarkNames()) {
      Program P;
      P.Name = Name;
      const unsigned Steps[] = {1, 2, 3, 4};
      for (unsigned V = 0; V < std::size(Steps); ++V) {
        BenchmarkSpec Spec = paperBenchmarkSpec(Name);
        Spec.Timesteps = Steps[V];
        GeneratedBenchmark GB;
        SetupTimes Gen = timeGeneration([&] { GB = generateBenchmark(Spec); });
        Times.GenerateMs += Gen.GenerateMs;
        Times.GenerateCpuMs += Gen.GenerateCpuMs;
        DriverResult DR = KremlinDriver().runOnSource(GB.Source, Name + ".c");
        if (!DR.succeeded())
          throw std::runtime_error("replan-merged setup: " + Name + ": " +
                                   DR.Errors.front());
        P.Traces.push_back(writeTrace(*DR.Dict, TraceMeta{Name + ".c"}));
        if (V == 0) {
          P.M = std::move(DR.M);
          P.Verdicts = DR.Static.verdictMap();
        } else if (!sameRegionTable(*P.M, *DR.M)) {
          throw std::runtime_error("replan-merged setup: " + Name +
                                   " variants do not share a region table");
        }
      }
      Programs.push_back(std::move(P));
    }
    Prng R(Seed);
    shuffle(Programs, R);
    for (Program &P : Programs)
      shuffle(P.Traces, R);
    return Times;
  }

  size_t size() const override { return Programs.size(); }
  void clear() override { Last = Output(); }

  void run(size_t I) override { replan(Programs[I], nullptr); }
  void runTraced(size_t I, Tracer &T) override { replan(Programs[I], &T); }

  std::string check(size_t I) const override {
    const std::string &Name = Programs[I].Name;
    if (!Last.Error.empty())
      return Name + ": " + Last.Error;
    if (Last.MergedWork != Last.InputWork)
      return Name + ": merged program work " + std::to_string(Last.MergedWork) +
             " != sum of input works " + std::to_string(Last.InputWork);
    if (Last.SelfWorkSum != Last.RootWork)
      return Name + ": sum of self-work " + std::to_string(Last.SelfWorkSum) +
             " != root work " + std::to_string(Last.RootWork);
    if (Last.RootWork != Last.MergedWork)
      return Name + ": report root work " + std::to_string(Last.RootWork) +
             " != merged program work " + std::to_string(Last.MergedWork);
    return "";
  }

private:
  struct Program {
    std::string Name;
    std::unique_ptr<Module> M;
    std::map<RegionId, LoopVerdict> Verdicts;
    std::vector<std::string> Traces;
  };
  struct Output {
    uint64_t MergedWork = 0, InputWork = 0, SelfWorkSum = 0, RootWork = 0;
    std::string Error;
  };

  static bool sameRegionTable(const Module &A, const Module &B) {
    if (A.Regions.size() != B.Regions.size())
      return false;
    for (size_t R = 0; R < A.Regions.size(); ++R) {
      const StaticRegion &X = A.Regions[R], &Y = B.Regions[R];
      if (X.Kind != Y.Kind || X.Parent != Y.Parent ||
          X.StartLine != Y.StartLine || X.EndLine != Y.EndLine ||
          X.Name != Y.Name)
        return false;
    }
    return true;
  }

  /// The item: read all K traces, merge, build the profile, plan under four
  /// personalities, simulate the OpenMP plan, export speedscope. With a
  /// tracer every layer call is a span.
  void replan(const Program &P, Tracer *T) {
    auto Time = [T](const char *Name, auto &&Fn) {
      if (!T)
        return Fn();
      Span S(*T, Name);
      return Fn();
    };
    Output Out;
    std::vector<DictionaryCompressor> Runs;
    Runs.reserve(P.Traces.size());
    for (const std::string &Text : P.Traces) {
      Expected<DictionaryCompressor> D =
          Time("compress.read", [&] { return readTrace(Text); });
      if (!D.ok()) {
        Last.Error = D.status().toString();
        return;
      }
      Runs.push_back(std::move(*D));
    }
    std::vector<const DictionaryCompressor *> Ptrs;
    uint64_t InputAlphabet = 0;
    for (const DictionaryCompressor &D : Runs) {
      Ptrs.push_back(&D);
      Out.InputWork += aggregate::programWork(D);
      InputAlphabet += D.alphabet().size();
    }
    DictionaryCompressor Merged =
        Time("aggregate.merge", [&] { return aggregate::mergeProfiles(Ptrs); });
    Out.MergedWork = aggregate::programWork(Merged);

    ParallelismProfile Profile = Time(
        "profile.build", [&] { return ParallelismProfile(*P.M, Merged); });
    PlannerOptions PO;
    PO.StaticVerdicts = P.Verdicts;
    std::vector<Plan> Plans; // OpenMP first.
    size_t PlanRegions = 0;
    for (const char *Personality : {"openmp", "cilk", "selfp", "work"}) {
      Plans.push_back(Time("planner.plan", [&] {
        return makePersonality(Personality)->plan(Profile, PO);
      }));
      PlanRegions += Plans.back().Items.size();
    }
    Time("machine.simulate", [&] {
      return ExecutionSimulator(Profile).evaluatePlan(
          Plans.front().regionIds());
    });
    report::RegionTree Tree =
        Time("report.tree", [&] { return report::buildRegionTree(Profile); });
    std::string Speedscope = Time("report.export", [&] {
      return report::exportSpeedscope(Profile, Tree, P.Name);
    });

    Out.RootWork = Tree.Nodes.empty() ? 0 : Tree.Nodes[0].Work;
    for (const report::RegionTreeNode &N : Tree.Nodes)
      Out.SelfWorkSum += N.SelfWork;
    if (T) {
      T->count("aggregate.merged_alphabet",
               static_cast<double>(Merged.alphabet().size()));
      T->count("aggregate.input_alphabet", static_cast<double>(InputAlphabet));
      T->count("planner.plan_regions", static_cast<double>(PlanRegions));
      T->count("report.export_bytes", static_cast<double>(Speedscope.size()));
    }
    Last = std::move(Out);
  }

  std::vector<Program> Programs;
  Output Last;
};

} // namespace

// --- Generators and checks -------------------------------------------------

std::vector<GeneratedBenchmark> perfbench::generateLintCorpus(uint64_t Seed) {
  constexpr size_t Files = 96;
  constexpr double MinBytes = 4 * 1024.0, MaxBytes = 150 * 1024.0;
  Prng R(Seed ^ 0x6c696e74ULL);
  std::vector<GeneratedBenchmark> Out;
  for (size_t F = 0; F < Files; ++F) {
    BenchmarkSpec Spec;
    Spec.Name = "lint" + std::to_string(F);
    Spec.Timesteps = static_cast<unsigned>(R.nextInRange(2, 6));
    // Log-spaced sizes; the top ~7% are capped at sp's size, so the peak
    // memory is the largest of several full-size files, not of one.
    const double Target =
        std::min(MaxBytes, logSpaced(F, Files, MinBytes, MaxBytes * 4 / 3));
    // Grow the site list until the source reaches the target size. Kinds
    // come in shuffled rounds of all ten, so every file mixes every kind in
    // near-equal counts and its cost follows its size, not its kind draw.
    std::vector<SiteSpec> Pool;
    std::vector<SiteKind> Round;
    size_t N = std::size(AllKinds);
    GeneratedBenchmark GB;
    for (;;) {
      while (Pool.size() < N) {
        if (Round.empty()) {
          Round.assign(std::begin(AllKinds), std::end(AllKinds));
          shuffle(Round, R);
        }
        Pool.push_back(randomLintSite(R, Round.back()));
        Round.pop_back();
      }
      Spec.Sites.assign(Pool.begin(), Pool.begin() + N);
      GB = generateBenchmark(Spec);
      if (GB.Source.size() >= Target)
        break;
      N = std::max(N + 1, static_cast<size_t>(
                              N * Target / GB.Source.size() * 1.02));
    }
    Out.push_back(std::move(GB));
  }
  // Largest file first, for every seed: the heap's high-water mark is then
  // set by the same file on a fresh heap, not by the order of earlier frees.
  std::reverse(Out.begin(), Out.end());
  return Out;
}

std::vector<GeneratedBenchmark> perfbench::generateBigmemCorpus(uint64_t Seed) {
  constexpr size_t Programs = 16;
  constexpr double MinWords = 1e5, MaxWords = 8e5, SiteMin = 5e4;
  Prng R(Seed ^ 0x6269676dULL);
  std::vector<GeneratedBenchmark> Out;
  for (size_t P = 0; P < Programs; ++P) {
    // Skewed toward small programs, so a run holds enough items for a p90
    // while the largest still shadow 7x10^5 words (about 180 MB of slab).
    const double U = (static_cast<double>(P) + 0.5) / Programs;
    const double Words = MinWords * std::pow(MaxWords / MinWords, U * U);
    unsigned Sites = std::clamp<unsigned>(
        static_cast<unsigned>(Words / SiteMin), 2, R.nextInRange(2, 4));
    BenchmarkSpec Spec;
    Spec.Name = "bigmem" + std::to_string(P);
    Spec.Timesteps = 1;
    Spec.SitesPerKernel = static_cast<unsigned>(R.nextInRange(1, 2));
    // Half the words in DOALL sites, half in serial chains, whatever the
    // seed: per-word cost then does not depend on the kind mix.
    for (SiteKind Kind : {SiteKind::HotDoall, SiteKind::SerialChain}) {
      unsigned Count = Kind == SiteKind::HotDoall ? (Sites + 1) / 2 : Sites / 2;
      std::vector<double> Weights;
      double Sum = 0.0;
      for (unsigned S = 0; S < Count; ++S)
        Sum += Weights.emplace_back(1.0 + R.nextDouble());
      for (double W : Weights) {
        SiteSpec Site;
        Site.Kind = Kind;
        Site.Iters = static_cast<unsigned>(
            std::max(SiteMin, std::round(Words / 2 * W / Sum)));
        Site.Work = 1;
        Spec.Sites.push_back(Site);
      }
    }
    shuffle(Spec.Sites, R);
    Out.push_back(generateBenchmark(Spec));
  }
  shuffle(Out, R);
  return Out;
}

std::string perfbench::checkLintVerdicts(const GeneratedBenchmark &GB,
                                         const Module &M,
                                         const StaticAnalysisResult &Static) {
  for (const StaticLoopResult &L : Static.Loops) {
    const GeneratedLoop *Loop = loopForRegion(GB, M, L.Region);
    if (Loop && Loop->Kind == SiteKind::SerialChain &&
        L.Verdict == LoopVerdict::ProvablyDoall)
      return GB.Name + ": serial loop at line " + std::to_string(Loop->Line) +
             " proven DOALL (" + L.Reason + ")";
  }
  return "";
}

std::string perfbench::checkPlanAgainstLoopMap(const GeneratedBenchmark &GB,
                                               const Module &M,
                                               const Plan &P) {
  for (const PlanItem &Item : P.Items) {
    const GeneratedLoop *Loop = loopForRegion(GB, M, Item.Region);
    if (Loop && Loop->Kind == SiteKind::SerialChain)
      return GB.Name + ": plan includes the serial loop at line " +
             std::to_string(Loop->Line);
  }
  for (const GeneratedLoop &Loop : GB.Loops) {
    if (Loop.Kind != SiteKind::HotDoall || !Loop.IsOuter)
      continue;
    std::vector<RegionId> Region = loopRegionsAtLines(M, {Loop.Line});
    if (Region.empty() || !P.contains(Region.front()))
      return GB.Name + ": plan omits the DOALL loop at line " +
             std::to_string(Loop.Line);
  }
  return "";
}

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {
      "profile-suite", "profile-bigmem", "lint-corpus", "replan-merged"};
  return Names;
}

std::unique_ptr<Workload>
perfbench::makeWorkload(const std::string &Name,
                        const std::string &BaselinePath) {
  if (Name == "profile-suite")
    return std::make_unique<ProfileSuite>(BaselinePath);
  if (Name == "profile-bigmem")
    return std::make_unique<ProfileBigmem>();
  if (Name == "lint-corpus")
    return std::make_unique<LintCorpus>();
  if (Name == "replan-merged")
    return std::make_unique<ReplanMerged>();
  return nullptr;
}

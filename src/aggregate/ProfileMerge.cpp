//===- aggregate/ProfileMerge.cpp -----------------------------------------===//

#include "aggregate/ProfileMerge.h"

#include "support/Saturating.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <map>

using namespace kremlin;
using namespace kremlin::aggregate;
namespace tel = kremlin::telemetry;

// Counts in a merged profile saturate at UINT64_MAX rather than wrap, like
// DictionaryCompressor::addRootExits: merging cannot fail.
void aggregate::mergeInto(DictionaryCompressor &Out,
                          const DictionaryCompressor &In) {
  // intern() counts one dynamic region per call, but the merged dictionary
  // must describe the *sum* of both runs' dynamic regions — capture the
  // target before interning perturbs the counter.
  uint64_t TargetDynRegions =
      saturatingAdd(Out.numDynamicRegions(), In.numDynamicRegions());
  uint64_t AlphabetBefore = Out.alphabet().size();

  // Re-intern In's alphabet leaves-first. Children precede parents in
  // interning order, so by the time an entry is visited every child
  // already has an Out character. The remap is injective (distinct
  // summaries stay distinct under an injective child remap), so child
  // lists keep distinct characters — but the remap is not monotone, so
  // each list must be re-sorted to match the canonical sorted form
  // content-addressing compares against.
  std::vector<SummaryChar> Remap(In.alphabet().size());
  for (size_t C = 0; C < In.alphabet().size(); ++C) {
    DynRegionSummary S = In.alphabet()[C];
    for (auto &[Child, Freq] : S.Children)
      Child = Remap[Child];
    std::sort(S.Children.begin(), S.Children.end());
    Remap[C] = Out.intern(std::move(S));
  }
  for (const auto &[Root, Count] : In.roots())
    Out.addRootExits(Remap[Root], Count); // Saturates; mergeInto can't fail.
  Out.setDynamicRegions(TargetDynRegions);

  tel::Registry::global().counter("merge.profiles_in").add();
  tel::Registry::global()
      .counter("merge.alphabet_reused")
      .add(In.alphabet().size() -
           (Out.alphabet().size() - AlphabetBefore));
  tel::Registry::global()
      .counter("merge.alphabet_new")
      .add(Out.alphabet().size() - AlphabetBefore);
}

DictionaryCompressor aggregate::mergeProfiles(
    const std::vector<const DictionaryCompressor *> &Runs) {
  DictionaryCompressor Out;
  for (const DictionaryCompressor *Run : Runs)
    if (Run)
      mergeInto(Out, *Run);
  return Out;
}

Module aggregate::syntheticModule(const DictionaryCompressor &Dict) {
  Module M;
  M.SourceName = "<fleet>";
  RegionId MaxId = 0;
  bool Any = false;
  for (const DynRegionSummary &S : Dict.alphabet()) {
    if (S.Static == NoRegion)
      continue;
    MaxId = std::max(MaxId, S.Static);
    Any = true;
  }
  if (!Any)
    return M;
  for (RegionId Id = 0; Id <= MaxId; ++Id) {
    StaticRegion R;
    R.Kind = RegionKind::Function;
    R.Name = formatString("r%u", Id);
    R.File = "<fleet>";
    M.addRegion(std::move(R));
  }
  return M;
}

uint64_t aggregate::programWork(const DictionaryCompressor &Dict) {
  uint64_t Work = 0;
  for (const auto &[Root, Count] : Dict.roots())
    Work = saturatingAdd(Work,
                         saturatingMul(Dict.alphabet()[Root].Work, Count));
  return Work;
}

std::vector<RegionRow> aggregate::regionRows(const DictionaryCompressor &Dict) {
  Module M = syntheticModule(Dict);
  ParallelismProfile P(M, Dict);
  std::vector<RegionRow> Rows;
  for (const RegionProfileEntry &E : P.entries()) {
    if (!E.Executed)
      continue;
    RegionRow Row;
    Row.Id = E.Id;
    Row.Instances = E.Instances;
    Row.TotalWork = E.TotalWork;
    Row.TotalCp = E.TotalCp;
    Row.TotalChildren = E.TotalChildren;
    Row.SelfParallelism = E.SelfParallelism;
    Row.CoveragePct = E.CoveragePct;
    Rows.push_back(Row);
  }
  return Rows;
}

std::string
aggregate::renderProfileDiff(const DictionaryCompressor &Before,
                             const DictionaryCompressor &After) {
  std::map<RegionId, std::pair<const RegionRow *, const RegionRow *>> ById;
  std::vector<RegionRow> A = regionRows(Before);
  std::vector<RegionRow> B = regionRows(After);
  for (const RegionRow &R : A)
    ById[R.Id].first = &R;
  for (const RegionRow &R : B)
    ById[R.Id].second = &R;

  // The `kremlin stats --diff` conventions: "a"/"b" columns, a delta
  // column that reads "added"/"removed" when one side lacks the row.
  TablePrinter T;
  T.setHeader({"region", "work a", "work b", "d-work", "sp a", "sp b",
               "d-sp", "cov a", "cov b"});
  for (const auto &[Id, Rows] : ById) {
    const RegionRow *RA = Rows.first;
    const RegionRow *RB = Rows.second;
    auto Work = [](const RegionRow *R) {
      return R ? formatString("%llu",
                              static_cast<unsigned long long>(R->TotalWork))
               : std::string("-");
    };
    auto Sp = [](const RegionRow *R) {
      return R ? formatFixed(R->SelfParallelism, 2) : std::string("-");
    };
    auto Cov = [](const RegionRow *R) {
      return R ? formatPercent(R->CoveragePct, 1) : std::string("-");
    };
    std::string Marker = !RA ? "added" : (!RB ? "removed" : "");
    std::string DWork =
        RA && RB ? formatString("%+lld", static_cast<long long>(
                                             RB->TotalWork) -
                                             static_cast<long long>(
                                                 RA->TotalWork))
                 : Marker;
    std::string DSp = RA && RB ? formatString("%+.2f", RB->SelfParallelism -
                                                           RA->SelfParallelism)
                               : Marker;
    T.addRow({formatString("r%u", Id), Work(RA), Work(RB), DWork, Sp(RA),
              Sp(RB), DSp, Cov(RA), Cov(RB)});
  }
  std::string Out = T.render();
  Out += formatString(
      "program work: %llu -> %llu\n",
      static_cast<unsigned long long>(programWork(Before)),
      static_cast<unsigned long long>(programWork(After)));
  return Out;
}

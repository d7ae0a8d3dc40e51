//===- bench/bench_micro_merge.cpp - Fleet-merge microbenchmarks ----------===//
//
// Microbenchmarks for the HCPA merge operator: merging identical profiles
// (best case — every alphabet entry re-interns to an existing character),
// merging disjoint profiles (worst case — the alphabet doubles), and
// fanning a whole fleet of variant profiles into one dictionary (what
// `kremlin merge` does over many saved profiles).
//
//===----------------------------------------------------------------------===//

#include "GBenchJson.h"

#include "aggregate/ProfileMerge.h"
#include "support/Prng.h"

#include <benchmark/benchmark.h>

#include <vector>

using namespace kremlin;
using namespace kremlin::aggregate;

namespace {

/// A layered random profile: Entries summaries over a small static-region
/// space, each drawing children from the earlier alphabet (leaves-first),
/// rooted at the last entry. Distinct seeds share no Work values, so
/// cross-seed merges re-intern almost everything.
DictionaryCompressor makeProfile(uint64_t Seed, size_t Entries) {
  Prng R(Seed);
  DictionaryCompressor Dict;
  std::vector<SummaryChar> Chars;
  for (size_t E = 0; E < Entries; ++E) {
    DynRegionSummary S;
    S.Static = static_cast<RegionId>(E % 16);
    uint64_t ChildWork = 0;
    if (!Chars.empty()) {
      SummaryChar C = Chars[R.nextBelow(Chars.size())];
      uint64_t Freq = 1 + R.nextBelow(8);
      S.Children.emplace_back(C, Freq);
      ChildWork = Dict.alphabet()[C].Work * Freq;
    }
    S.Work = ChildWork + 1 + (Seed % 7919) + R.nextBelow(500);
    S.Cp = 1 + R.nextBelow(S.Work);
    Chars.push_back(Dict.intern(std::move(S)));
  }
  Dict.onRootExit(Chars.back());
  return Dict;
}

/// Every entry re-interns to an existing character: the fleet steady state
/// where most nodes report the same behaviour.
void BM_MergeIdentical(benchmark::State &State) {
  size_t Entries = static_cast<size_t>(State.range(0));
  DictionaryCompressor In = makeProfile(1, Entries);
  for (auto _ : State) {
    DictionaryCompressor Out = makeProfile(1, Entries);
    mergeInto(Out, In);
    benchmark::DoNotOptimize(Out.alphabet().size());
  }
  State.SetItemsProcessed(State.iterations() * Entries);
}
BENCHMARK(BM_MergeIdentical)->Arg(64)->Arg(1024);

/// Nothing shared: every entry is a fresh intern plus a child remap.
void BM_MergeDisjoint(benchmark::State &State) {
  size_t Entries = static_cast<size_t>(State.range(0));
  DictionaryCompressor In = makeProfile(2, Entries);
  for (auto _ : State) {
    DictionaryCompressor Out = makeProfile(3, Entries);
    mergeInto(Out, In);
    benchmark::DoNotOptimize(Out.alphabet().size());
  }
  State.SetItemsProcessed(State.iterations() * Entries);
}
BENCHMARK(BM_MergeDisjoint)->Arg(64)->Arg(1024);

/// A 32-node fleet folds into one profile — the merge half of a serve
/// ingest burst.
void BM_MergeFleet(benchmark::State &State) {
  constexpr size_t Nodes = 32, Entries = 128;
  std::vector<DictionaryCompressor> Fleet;
  std::vector<const DictionaryCompressor *> Ptrs;
  for (size_t N = 0; N < Nodes; ++N)
    Fleet.push_back(makeProfile(100 + N, Entries));
  for (const DictionaryCompressor &D : Fleet)
    Ptrs.push_back(&D);
  for (auto _ : State) {
    DictionaryCompressor Out = mergeProfiles(Ptrs);
    benchmark::DoNotOptimize(Out.numDynamicRegions());
  }
  State.SetItemsProcessed(State.iterations() * Nodes * Entries);
}
BENCHMARK(BM_MergeFleet);

} // namespace

int main(int argc, char **argv) {
  return kremlin::bench::gbenchJsonMain("micro_merge", argc, argv);
}

//===- analysis/Loops.cpp -------------------------------------------------===//

#include "analysis/Loops.h"

#include <algorithm>
#include <numeric>
#include <utility>

using namespace kremlin;

bool Loop::contains(BlockId B) const {
  return std::binary_search(Blocks.begin(), Blocks.end(), B);
}

int LoopInfo::innermostLoop(BlockId B) const {
  int Best = -1;
  unsigned BestDepth = 0;
  for (size_t I = 0; I < Loops.size(); ++I) {
    if (Loops[I].contains(B) && Loops[I].Depth >= BestDepth) {
      Best = static_cast<int>(I);
      BestDepth = Loops[I].Depth;
    }
  }
  return Best;
}

LoopInfo kremlin::computeLoops(const Function &F, const DomTree &DT) {
  LoopInfo LI;
  size_t N = F.Blocks.size();

  // Predecessor lists: Preds[PredBegin[B], PredBegin[B + 1]).
  std::vector<uint32_t> PredBegin(N + 1, 0), Preds;
  for (BlockId BB = 0; BB < N; ++BB)
    for (BlockId S : F.successors(BB))
      ++PredBegin[S + 1];
  for (size_t BB = 0; BB < N; ++BB)
    PredBegin[BB + 1] += PredBegin[BB];
  Preds.resize(PredBegin[N]);
  {
    std::vector<uint32_t> Fill(PredBegin.begin(), PredBegin.end() - 1);
    for (BlockId BB = 0; BB < N; ++BB)
      for (BlockId S : F.successors(BB))
        Preds[Fill[S]++] = BB;
  }

  // Back edges (header, latch), grouped by header with latches ascending.
  std::vector<std::pair<BlockId, BlockId>> BackEdges;
  BackEdges.reserve(N);
  for (BlockId BB = 0; BB < N; ++BB) {
    if (!DT.isReachable(BB))
      continue;
    for (BlockId S : F.successors(BB))
      if (DT.dominates(S, BB))
        BackEdges.push_back({S, BB});
  }
  std::sort(BackEdges.begin(), BackEdges.end());

  // Bodies: reverse reachability from the latches, stopping at the header.
  // Each loop's blocks are appended to BlockStore and sorted in place; the
  // spans are set once the stores stop growing.
  struct Extent {
    BlockId Header;
    size_t BlockFirst, BlockLast, LatchFirst, LatchLast;
  };
  std::vector<Extent> Extents;
  Extents.reserve(BackEdges.size());
  std::vector<uint32_t> Member(N, UINT32_MAX); // Loop that last claimed B.
  std::vector<BlockId> Work;
  Work.reserve(N);
  LI.BlockStore.reserve(N);
  LI.LatchStore.reserve(BackEdges.size());
  for (size_t E = 0; E < BackEdges.size();) {
    BlockId Header = BackEdges[E].first;
    uint32_t Id = static_cast<uint32_t>(Extents.size());
    Extent X{Header, LI.BlockStore.size(), 0, LI.LatchStore.size(), 0};
    auto Claim = [&](BlockId B) {
      if (Member[B] == Id)
        return false;
      Member[B] = Id;
      LI.BlockStore.push_back(B);
      return true;
    };
    Claim(Header);
    for (; E < BackEdges.size() && BackEdges[E].first == Header; ++E) {
      BlockId Latch = BackEdges[E].second;
      LI.LatchStore.push_back(Latch);
      if (Claim(Latch))
        Work.push_back(Latch);
    }
    while (!Work.empty()) {
      BlockId B = Work.back();
      Work.pop_back();
      for (uint32_t I = PredBegin[B]; I < PredBegin[B + 1]; ++I)
        if (DT.isReachable(Preds[I]) && Claim(Preds[I]))
          Work.push_back(Preds[I]);
    }
    X.BlockLast = LI.BlockStore.size();
    X.LatchLast = LI.LatchStore.size();
    std::sort(LI.BlockStore.begin() + static_cast<ptrdiff_t>(X.BlockFirst),
              LI.BlockStore.end());
    Extents.push_back(X);
  }
  LI.Loops.resize(Extents.size());
  for (size_t I = 0; I < Extents.size(); ++I) {
    const Extent &X = Extents[I];
    Loop &L = LI.Loops[I];
    L.Blocks = {LI.BlockStore.data() + X.BlockFirst,
                X.BlockLast - X.BlockFirst};
    L.Latches = {LI.LatchStore.data() + X.LatchFirst,
                 X.LatchLast - X.LatchFirst};
    L.Header = X.Header;
  }

  // Nesting: loop A is inside loop B when B contains A's header and A != B;
  // the parent is the smallest such container. Natural loops with distinct
  // headers are nested or disjoint, so the containers of a header form a
  // chain of strictly growing bodies. Painting every body with its loop,
  // largest first, leaves each block owned by its innermost loop, and a
  // header's owner just before its own loop paints is that loop's parent.
  std::vector<size_t> BySize(LI.Loops.size());
  std::iota(BySize.begin(), BySize.end(), 0);
  std::stable_sort(BySize.begin(), BySize.end(), [&](size_t A, size_t B) {
    return LI.Loops[A].Blocks.size() > LI.Loops[B].Blocks.size();
  });
  std::vector<int> Owner(N, -1);
  for (size_t I : BySize) {
    Loop &L = LI.Loops[I];
    L.Parent = Owner[L.Header];
    for (BlockId B : L.Blocks)
      Owner[B] = static_cast<int>(I);
  }
  // Depths via parent chains.
  for (Loop &L : LI.Loops) {
    unsigned Depth = 1;
    int P = L.Parent;
    while (P >= 0) {
      ++Depth;
      P = LI.Loops[static_cast<size_t>(P)].Parent;
    }
    L.Depth = Depth;
  }
  return LI;
}

//===- analysis/Loops.cpp -------------------------------------------------===//

#include "analysis/Loops.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

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

  std::vector<std::vector<BlockId>> Preds(N);
  for (BlockId BB = 0; BB < N; ++BB)
    for (BlockId S : F.successors(BB))
      Preds[S].push_back(BB);

  // Collect back edges grouped by header.
  std::map<BlockId, std::vector<BlockId>> BackEdges;
  for (BlockId BB = 0; BB < N; ++BB) {
    if (!DT.isReachable(BB))
      continue;
    for (BlockId S : F.successors(BB))
      if (DT.dominates(S, BB))
        BackEdges[S].push_back(BB);
  }

  for (auto &[Header, Latches] : BackEdges) {
    Loop L;
    L.Header = Header;
    L.Latches = Latches;
    // Body: reverse reachability from latches, stopping at the header.
    std::set<BlockId> Body = {Header};
    std::vector<BlockId> Work;
    for (BlockId Latch : Latches)
      if (Body.insert(Latch).second)
        Work.push_back(Latch);
    while (!Work.empty()) {
      BlockId B = Work.back();
      Work.pop_back();
      for (BlockId P : Preds[B])
        if (DT.isReachable(P) && Body.insert(P).second)
          Work.push_back(P);
    }
    L.Blocks.assign(Body.begin(), Body.end());
    LI.Loops.push_back(std::move(L));
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

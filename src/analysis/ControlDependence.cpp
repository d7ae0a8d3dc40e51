//===- analysis/ControlDependence.cpp -------------------------------------===//

#include "analysis/ControlDependence.h"

#include <algorithm>

using namespace kremlin;

bool ControlDependenceInfo::isControlDependent(BlockId B,
                                               BlockId OnBranch) const {
  if (B + 1 >= DepBegin.size())
    return false;
  return std::binary_search(Deps.begin() + DepBegin[B],
                            Deps.begin() + DepBegin[B + 1], OnBranch);
}

ControlDependenceInfo
kremlin::computeControlDependence(const Function &F) {
  ControlDependenceInfo Info;
  size_t N = F.Blocks.size();
  Info.MergeBlock.assign(N, NoBlock);

  DomTree PDT = computePostDominators(F);
  for (BlockId BB = 0; BB < N; ++BB)
    Info.MergeBlock[BB] = immediatePostDominator(PDT, F, BB);

  // Branches in blocks unreachable from the entry never execute; walking
  // the FOW runner from their successors would fabricate control
  // dependences on dead code (and dead CondBrs may sit in blocks the
  // post-dominator tree never saw).
  std::vector<char> FwdReachable(N, 0);
  if (N > 0) {
    std::vector<BlockId> Worklist = {0};
    FwdReachable[0] = 1;
    while (!Worklist.empty()) {
      BlockId BB = Worklist.back();
      Worklist.pop_back();
      if (!F.Blocks[BB].hasTerminator())
        continue;
      for (BlockId S : F.successors(BB))
        if (S < N && !FwdReachable[S]) {
          FwdReachable[S] = 1;
          Worklist.push_back(S);
        }
    }
  }

  // Ferrante-Ottenstein-Warren: for edge A->S where A does not strictly
  // post-dominate... walk from S up the post-dominator tree until reaching
  // ipostdom(A); every node visited is control dependent on A. The walks
  // emit (block, branch) pairs, already ordered by branch; a stable
  // counting sort by block then yields each block's branches ascending.
  std::vector<std::pair<BlockId, BlockId>> Pairs;
  Pairs.reserve(2 * N);
  for (BlockId A = 0; A < N; ++A) {
    if (!FwdReachable[A] || !F.Blocks[A].hasTerminator())
      continue;
    Successors Succs = F.successors(A);
    if (Succs.size() < 2)
      continue; // Only branches create control dependences.
    BlockId Stop = PDT.idom(A);
    for (BlockId S : Succs) {
      BlockId Runner = S;
      while (Runner != Stop && Runner != NoBlock && Runner < N) {
        Pairs.push_back({Runner, A});
        BlockId Next = PDT.idom(Runner);
        if (Next == Runner)
          break;
        Runner = Next;
      }
    }
  }
  Info.DepBegin.assign(N + 1, 0);
  for (const auto &[B, A] : Pairs)
    ++Info.DepBegin[B + 1];
  for (size_t B = 0; B < N; ++B)
    Info.DepBegin[B + 1] += Info.DepBegin[B];
  Info.Deps.resize(Pairs.size());
  {
    std::vector<uint32_t> Fill(Info.DepBegin.begin(), Info.DepBegin.end() - 1);
    for (const auto &[B, A] : Pairs)
      Info.Deps[Fill[B]++] = A;
  }
  // Both arms of a branch can reach the same block: drop the duplicates,
  // compacting the lists in place.
  uint32_t Out = 0;
  for (size_t B = 0; B < N; ++B) {
    uint32_t First = Info.DepBegin[B], Last = Info.DepBegin[B + 1];
    Info.DepBegin[B] = Out;
    for (uint32_t I = First; I < Last; ++I)
      if (I == First || Info.Deps[I] != Info.Deps[I - 1])
        Info.Deps[Out++] = Info.Deps[I];
  }
  Info.DepBegin[N] = Out;
  Info.Deps.resize(Out);
  return Info;
}

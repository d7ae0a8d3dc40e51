//===- analysis/Dominators.cpp --------------------------------------------===//

#include "analysis/Dominators.h"

#include <algorithm>
#include <cassert>
#include <span>

using namespace kremlin;

namespace {

/// Numbers the nodes of \p DT's tree in one depth-first walk from the
/// root, so that dominates() is a constant-time interval test.
void numberTree(DomTree &DT) {
  size_t N = DT.IDom.size();
  DT.Pre.assign(N, 0);
  DT.Post.assign(N, 0);
  // Children of each node: Kids[First[X], First[X + 1]).
  std::vector<uint32_t> First(N + 1, 0), Kids;
  for (BlockId X = 0; X < N; ++X)
    if (X != DT.Root && DT.IDom[X] != NoBlock)
      ++First[DT.IDom[X] + 1];
  for (size_t X = 0; X < N; ++X)
    First[X + 1] += First[X];
  Kids.resize(First[N]);
  // Fill with each list's begin as its cursor, then shift the offsets back
  // (as in CsrGraph).
  for (BlockId X = 0; X < N; ++X)
    if (X != DT.Root && DT.IDom[X] != NoBlock)
      Kids[First[DT.IDom[X]]++] = X;
  for (size_t X = N; X > 0; --X)
    First[X] = First[X - 1];
  First[0] = 0;

  uint32_t Clock = 0;
  std::vector<std::pair<BlockId, uint32_t>> Stack;
  Stack.reserve(N);
  Stack.push_back({DT.Root, First[DT.Root]});
  DT.Pre[DT.Root] = Clock++;
  while (!Stack.empty()) {
    auto &[Node, Next] = Stack.back();
    if (Next < First[Node + 1]) {
      BlockId Kid = Kids[Next++];
      DT.Pre[Kid] = Clock++;
      Stack.push_back({Kid, First[Kid]});
      continue;
    }
    DT.Post[Node] = Clock++;
    Stack.pop_back();
  }
}

/// A directed graph in compressed form: the successors of X are
/// Succ[SuccBegin[X], SuccBegin[X + 1]) and its predecessors likewise, each
/// list in edge insertion order. Built from an edge list in two passes
/// (count, then fill), so it costs a fixed number of allocations however
/// many edges the CFG has.
struct CsrGraph {
  std::vector<uint32_t> SuccBegin, Succ, PredBegin, Pred;

  std::span<const uint32_t> preds(BlockId X) const {
    return {Pred.data() + PredBegin[X], Pred.data() + PredBegin[X + 1]};
  }

  /// \p ForEachEdge(Add) calls Add(From, To) once per edge, in the same
  /// order on every call.
  template <typename EdgeFn> CsrGraph(size_t NumNodes, EdgeFn &&ForEachEdge) {
    SuccBegin.assign(NumNodes + 1, 0);
    PredBegin.assign(NumNodes + 1, 0);
    ForEachEdge([&](BlockId From, BlockId To) {
      ++SuccBegin[From + 1];
      ++PredBegin[To + 1];
    });
    for (size_t X = 0; X < NumNodes; ++X) {
      SuccBegin[X + 1] += SuccBegin[X];
      PredBegin[X + 1] += PredBegin[X];
    }
    Succ.resize(SuccBegin[NumNodes]);
    Pred.resize(PredBegin[NumNodes]);
    // Fill with each list's begin as its cursor; every cursor then stands
    // at the next list's begin, so shifting the offsets up restores them.
    ForEachEdge([&](BlockId From, BlockId To) {
      Succ[SuccBegin[From]++] = To;
      Pred[PredBegin[To]++] = From;
    });
    for (size_t X = NumNodes; X > 0; --X) {
      SuccBegin[X] = SuccBegin[X - 1];
      PredBegin[X] = PredBegin[X - 1];
    }
    SuccBegin[0] = PredBegin[0] = 0;
  }
};

/// Generic CHK iterative dominator computation over an explicit graph,
/// walking \p G's predecessor lists; \p Order is a reverse postorder of
/// reachable nodes starting with the root.
DomTree computeOnGraph(size_t NumNodes, BlockId Root, const CsrGraph &G,
                       const std::vector<BlockId> &Order) {
  DomTree DT;
  DT.Root = Root;
  DT.IDom.assign(NumNodes, NoBlock);
  DT.IDom[Root] = Root;

  // Position of each node in the RPO, for the intersect walk.
  std::vector<uint32_t> RpoPos(NumNodes, UINT32_MAX);
  for (uint32_t I = 0; I < Order.size(); ++I)
    RpoPos[Order[I]] = I;

  auto Intersect = [&](BlockId A, BlockId B) {
    while (A != B) {
      while (RpoPos[A] > RpoPos[B])
        A = DT.IDom[A];
      while (RpoPos[B] > RpoPos[A])
        B = DT.IDom[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BlockId Node : Order) {
      if (Node == Root)
        continue;
      BlockId NewIDom = NoBlock;
      for (BlockId P : G.preds(Node)) {
        if (DT.IDom[P] == NoBlock)
          continue; // Unprocessed / unreachable predecessor.
        NewIDom = NewIDom == NoBlock ? P : Intersect(P, NewIDom);
      }
      if (NewIDom != NoBlock && DT.IDom[Node] != NewIDom) {
        DT.IDom[Node] = NewIDom;
        Changed = true;
      }
    }
  }
  numberTree(DT);
  return DT;
}

std::vector<BlockId> reversePostorder(size_t NumNodes, BlockId Root,
                                      const CsrGraph &G) {
  std::vector<BlockId> Postorder;
  if (NumNodes == 0 || Root >= NumNodes)
    return Postorder;
  Postorder.reserve(NumNodes);
  std::vector<char> State(NumNodes, 0); // 0 unvisited, 1 on stack, 2 done.
  // Iterative DFS; each frame holds its node and next successor slot.
  std::vector<std::pair<BlockId, uint32_t>> Stack;
  Stack.reserve(NumNodes);
  Stack.push_back({Root, G.SuccBegin[Root]});
  State[Root] = 1;
  while (!Stack.empty()) {
    auto &[Node, NextSucc] = Stack.back();
    if (NextSucc < G.SuccBegin[Node + 1]) {
      BlockId S = G.Succ[NextSucc++];
      if (State[S] == 0) {
        State[S] = 1;
        Stack.push_back({S, G.SuccBegin[S]});
      }
      continue;
    }
    State[Node] = 2;
    Postorder.push_back(Node);
    Stack.pop_back();
  }
  std::reverse(Postorder.begin(), Postorder.end());
  return Postorder;
}

} // namespace

DomTree kremlin::computeDominators(const Function &F) {
  size_t N = F.Blocks.size();
  if (N == 0)
    return DomTree(); // Degenerate: no blocks, empty tree.
  CsrGraph G(N, [&](auto &&Add) {
    for (BlockId BB = 0; BB < N; ++BB) {
      if (!F.Blocks[BB].hasTerminator())
        continue; // Tolerate unterminated blocks (pre-verifier IR).
      for (BlockId S : F.successors(BB))
        if (S < N)
          Add(BB, S);
    }
  });
  std::vector<BlockId> Order = reversePostorder(N, /*Root=*/0, G);
  return computeOnGraph(N, /*Root=*/0, G, Order);
}

DomTree kremlin::computePostDominators(const Function &F) {
  size_t N = F.Blocks.size();
  BlockId VirtualExit = static_cast<BlockId>(N);
  size_t Total = N + 1;

  // Reversed CFG: successors of X are its CFG predecessors; Ret blocks get
  // an edge from the virtual exit.
  CsrGraph RevG(Total, [&](auto &&Add) {
    for (BlockId BB = 0; BB < N; ++BB) {
      if (!F.Blocks[BB].hasTerminator())
        continue; // Tolerate unterminated blocks (pre-verifier IR).
      const Instruction &Term = F.Blocks[BB].terminator();
      if (Term.Op == Opcode::Ret)
        Add(VirtualExit, BB);
      for (BlockId S : F.successors(BB))
        if (S < N)
          Add(S, BB);
    }
  });

  std::vector<BlockId> Order = reversePostorder(Total, VirtualExit, RevG);
  return computeOnGraph(Total, VirtualExit, RevG, Order);
}

BlockId kremlin::immediatePostDominator(const DomTree &PDT, const Function &F,
                                        BlockId B) {
  BlockId VirtualExit = static_cast<BlockId>(F.Blocks.size());
  BlockId IPD = PDT.idom(B);
  if (IPD == NoBlock || IPD == VirtualExit)
    return NoBlock;
  return IPD;
}

//===- analysis/DataFlow.cpp ----------------------------------------------===//

#include "analysis/DataFlow.h"

#include <algorithm>
#include <cassert>

using namespace kremlin;

InstructionUses::InstructionUses(const Instruction &I) {
  auto Fix = [&](ValueId A, ValueId B) {
    Fixed[0] = A;
    Fixed[1] = B;
    N = 2;
  };
  if (isBinaryOp(I.Op)) {
    Fix(I.A, I.B);
    return;
  }
  if (isUnaryOp(I.Op)) {
    Fix(I.A, NoValue);
    return;
  }
  switch (I.Op) {
  case Opcode::Load:
  case Opcode::Ret:
  case Opcode::CondBr:
    Fix(I.A, NoValue);
    break;
  case Opcode::Store:
    Fix(I.A, I.B);
    break;
  case Opcode::Call:
    if (!I.CallArgs.empty()) {
      Args = I.CallArgs.data();
      N = I.CallArgs.size();
    }
    break;
  default:
    break; // Constants, addresses, Br, region markers: no register reads.
  }
}

ReachingDefs::ReachingDefs(const Function &F)
    : NumBlocks(F.Blocks.size()), NumValues(F.NumValues) {
  // Collect every definition site in (block, index) order.
  size_t N = NumBlocks;
  size_t NumInsts = 0;
  for (const BasicBlock &BB : F.Blocks)
    NumInsts += BB.Insts.size();
  Defs.reserve(NumInsts);
  BlockDefBegin.assign(N + 1, 0);
  for (BlockId BB = 0; BB < N; ++BB) {
    BlockDefBegin[BB] = static_cast<unsigned>(Defs.size());
    for (unsigned Idx = 0; Idx < F.Blocks[BB].Insts.size(); ++Idx) {
      const Instruction &I = F.Blocks[BB].Insts[Idx];
      if (producesValue(I.Op) && I.Result != NoValue)
        Defs.push_back({BB, Idx, I.Result});
    }
  }
  BlockDefBegin[N] = static_cast<unsigned>(Defs.size());

  // Per-value def lists: count, prefix-sum, fill (ascending def order).
  ValueDefBegin.assign(size_t(NumValues) + 1, 0);
  for (const DefSite &D : Defs)
    if (D.Value < NumValues)
      ++ValueDefBegin[D.Value + 1];
  for (ValueId V = 0; V < NumValues; ++V)
    ValueDefBegin[V + 1] += ValueDefBegin[V];
  ValueDefs.resize(ValueDefBegin[NumValues]);
  {
    std::vector<unsigned> Fill(ValueDefBegin.begin(), ValueDefBegin.end() - 1);
    for (unsigned D = 0; D < Defs.size(); ++D)
      if (Defs[D].Value < NumValues)
        ValueDefs[Fill[Defs[D].Value]++] = D;
  }

  // Predecessor lists: Preds[PredBegin[B], PredBegin[B + 1]).
  PredBegin.assign(N + 1, 0);
  for (BlockId BB = 0; BB < N; ++BB)
    if (F.Blocks[BB].hasTerminator())
      for (BlockId S : F.successors(BB))
        if (S < N)
          ++PredBegin[S + 1];
  for (size_t BB = 0; BB < N; ++BB)
    PredBegin[BB + 1] += PredBegin[BB];
  Preds.resize(PredBegin[N]);
  {
    std::vector<unsigned> Fill(PredBegin.begin(), PredBegin.end() - 1);
    for (BlockId BB = 0; BB < N; ++BB)
      if (F.Blocks[BB].hasTerminator())
        for (BlockId S : F.successors(BB))
          if (S < N)
            Preds[Fill[S]++] = BB;
  }

  Words = (Defs.size() + 63) / 64;
  Out.assign(N * Words, 0);
  if (N == 0 || Words == 0)
    return;

  // OUT[B] = GEN[B] + (IN[B] - KILL[B]), with GEN[B] the last def of each
  // value B defines and KILL[B] every other def of those values. Applying
  // B's defs in order to IN -- each clears its value's defs, then sets
  // itself -- computes exactly that from B's own def range, so no GEN or
  // KILL sets are stored. IN is not stored either: it is the union of the
  // predecessors' OUT, which inRow() recomputes on demand.
  std::vector<uint64_t> Row(Words);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BlockId BB = 0; BB < N; ++BB) {
      unionOfPreds(BB, Row.data());
      for (unsigned D = BlockDefBegin[BB]; D < BlockDefBegin[BB + 1]; ++D) {
        for (unsigned Other : defsOf(Defs[D].Value))
          Row[Other / 64] &= ~(1ull << (Other % 64));
        Row[D / 64] |= 1ull << (D % 64);
      }
      uint64_t *OutB = Out.data() + BB * Words;
      if (!std::equal(Row.begin(), Row.end(), OutB)) {
        std::copy(Row.begin(), Row.end(), OutB);
        Changed = true;
      }
    }
  }
}

void ReachingDefs::unionOfPreds(BlockId BB, uint64_t *Set) const {
  std::fill(Set, Set + Words, 0);
  for (unsigned I = PredBegin[BB]; I < PredBegin[BB + 1]; ++I) {
    const uint64_t *P = outRow(Preds[I]);
    for (size_t W = 0; W < Words; ++W)
      Set[W] |= P[W];
  }
}

std::vector<unsigned> ReachingDefs::expand(const uint64_t *Set) const {
  std::vector<unsigned> Result;
  for (unsigned D = 0; D < Defs.size(); ++D)
    if (inBit(Set, D))
      Result.push_back(D);
  return Result;
}

std::vector<unsigned> ReachingDefs::reachingIn(BlockId BB) const {
  if (BB >= NumBlocks)
    return {};
  std::vector<uint64_t> In(Words);
  unionOfPreds(BB, In.data());
  return expand(In.data());
}

std::vector<unsigned> ReachingDefs::reachingOut(BlockId BB) const {
  if (BB >= NumBlocks)
    return {};
  return expand(outRow(BB));
}

std::vector<unsigned> ReachingDefs::reachingAtUse(BlockId BB, unsigned Idx,
                                                  ValueId V) const {
  std::vector<unsigned> Result;
  if (BB >= NumBlocks)
    return Result;
  // The latest upstream definition of V inside this block, if any,
  // supersedes the whole incoming set.
  unsigned LocalDef = UINT32_MAX;
  for (unsigned D : defsOf(V))
    if (Defs[D].BB == BB && Defs[D].Idx < Idx &&
        (LocalDef == UINT32_MAX || Defs[D].Idx > Defs[LocalDef].Idx))
      LocalDef = D;
  if (LocalDef != UINT32_MAX) {
    Result.push_back(LocalDef);
    return Result;
  }
  std::vector<uint64_t> In(Words);
  unionOfPreds(BB, In.data());
  for (unsigned D : defsOf(V))
    if (inBit(In.data(), D))
      Result.push_back(D);
  return Result;
}

DefUseChains kremlin::buildDefUseChains(const Function &F,
                                        const ReachingDefs &RD) {
  DefUseChains Chains;
  Chains.UsesOfDef.assign(RD.defs().size(), {});
  for (BlockId BB = 0; BB < F.Blocks.size(); ++BB)
    for (unsigned Idx = 0; Idx < F.Blocks[BB].Insts.size(); ++Idx) {
      const Instruction &I = F.Blocks[BB].Insts[Idx];
      for (ValueId V : InstructionUses(I)) {
        std::vector<unsigned> Reaching = RD.reachingAtUse(BB, Idx, V);
        if (Reaching.empty())
          Chains.UndefinedUses.push_back({BB, Idx, V});
        for (unsigned D : Reaching)
          Chains.UsesOfDef[D].push_back({BB, Idx, V});
      }
    }
  return Chains;
}

std::vector<ScalarCarriedDep>
kremlin::findLoopCarriedScalarDeps(const Function &F, const Loop &L,
                                   const ReachingDefs &RD, const DomTree &DT) {
  return CarriedScalarDepFinder().find(F, L, RD, DT);
}

const std::vector<ScalarCarriedDep> &
CarriedScalarDepFinder::find(const Function &F, const Loop &L,
                             const ReachingDefs &RD, const DomTree &DT) {
  Deps.clear();
  size_t N = F.Blocks.size();
  if (N == 0 || F.NumValues == 0)
    return Deps;

  // Everything below is sized to the loop: sets have one entry per loop
  // block (indexed by position in the sorted L.Blocks) and one bit per
  // carried value, and only the loop blocks' own defs are walked.
  size_t NB = L.Blocks.size();
  auto LocalOf = [&](BlockId B) {
    auto It = std::lower_bound(L.Blocks.begin(), L.Blocks.end(), B);
    return It != L.Blocks.end() && *It == B
               ? static_cast<size_t>(It - L.Blocks.begin())
               : NB;
  };

  // Carried sources per value: in-loop definitions surviving to a latch
  // exit -- the bindings the back edge hands to the next iteration. Loop
  // blocks are sorted, so the sources come out in ascending def order.
  CarriedDefs.clear();
  for (BlockId B : L.Blocks) {
    auto [First, Last] = RD.blockDefs(B);
    for (unsigned D = First; D < Last; ++D) {
      if (RD.defs()[D].Value >= F.NumValues)
        continue;
      for (BlockId Latch : L.Latches)
        if (RD.defReachesOut(D, Latch)) {
          CarriedDefs.push_back(D);
          break;
        }
    }
  }
  if (CarriedDefs.empty())
    return Deps;

  // Carried values, numbered densely in ascending ValueId order. The keys
  // are cleared again before returning.
  if (KeyOfValue.size() < F.NumValues)
    KeyOfValue.resize(F.NumValues, NoKey);
  CarriedValues.clear();
  for (unsigned D : CarriedDefs)
    CarriedValues.push_back(RD.defs()[D].Value);
  std::sort(CarriedValues.begin(), CarriedValues.end());
  CarriedValues.erase(std::unique(CarriedValues.begin(), CarriedValues.end()),
                      CarriedValues.end());
  size_t NK = CarriedValues.size();
  for (size_t K = 0; K < NK; ++K)
    KeyOfValue[CarriedValues[K]] = static_cast<uint32_t>(K);
  auto KeyOf = [&](ValueId V) -> size_t {
    return V < F.NumValues && KeyOfValue[V] != NoKey ? KeyOfValue[V] : NK;
  };
  // Counting sort by key keeps each key's sources in ascending def order.
  SourceBegin.assign(NK + 1, 0);
  for (unsigned D : CarriedDefs)
    ++SourceBegin[KeyOf(RD.defs()[D].Value) + 1];
  for (size_t K = 0; K < NK; ++K)
    SourceBegin[K + 1] += SourceBegin[K];
  SourceFill.assign(SourceBegin.begin(), SourceBegin.end() - 1);
  SourceList.resize(CarriedDefs.size());
  for (unsigned D : CarriedDefs)
    SourceList[SourceFill[KeyOf(RD.defs()[D].Value)]++] = D;
  auto SourcesOf = [&](size_t K) {
    return std::span<const unsigned>(SourceList.data() + SourceBegin[K],
                                     SourceList.data() + SourceBegin[K + 1]);
  };

  Edges.clear();
  for (size_t LB = 0; LB < NB; ++LB) {
    BlockId B = L.Blocks[LB];
    if (!F.Blocks[B].hasTerminator())
      continue;
    for (BlockId S : F.successors(B)) {
      size_t LS = S < N && S != L.Header ? LocalOf(S) : NB;
      if (LS != NB) // Back edges excluded.
        Edges.push_back({static_cast<uint32_t>(LS),
                         static_cast<uint32_t>(LB)});
    }
  }
  PredBegin.assign(NB + 1, 0);
  for (const auto &[LS, LB] : Edges)
    ++PredBegin[LS + 1];
  for (size_t LB = 0; LB < NB; ++LB)
    PredBegin[LB + 1] += PredBegin[LB];
  PredFill.assign(PredBegin.begin(), PredBegin.end() - 1);
  PredList.resize(Edges.size());
  for (const auto &[LS, LB] : Edges)
    PredList[PredFill[LS]++] = LB;

  // Token pass: TokenIn[B] = values whose previous-iteration binding can
  // still be live at B's entry. Seeded with every carried value at the
  // header; any definition of V inside the current iteration kills V's
  // token.
  //
  // SameIter pass: values some current-iteration definition reaches (a may
  // analysis: gen-only, since any same-iteration def of V counts).
  //
  // All three sets are rows of NW words over the carried-value numbering.
  size_t NW = (NK + 63) / 64;
  TokenIn.assign(NB * NW, 0);
  SameIn.assign(NB * NW, 0);
  Defined.assign(NB * NW, 0);
  auto Row = [NW](std::vector<uint64_t> &Sets, size_t LB) {
    return Sets.data() + LB * NW;
  };
  auto SetBit = [](uint64_t *Set, size_t K) {
    Set[K / 64] |= 1ull << (K % 64);
  };
  auto TestBit = [](const uint64_t *Set, size_t K) {
    return (Set[K / 64] >> (K % 64)) & 1;
  };
  size_t HeaderLB = LocalOf(L.Header);
  if (HeaderLB != NB)
    for (size_t K = 0; K < NK; ++K)
      SetBit(Row(TokenIn, HeaderLB), K);
  InLoopDefs.assign(NK, 0);
  for (size_t LB = 0; LB < NB; ++LB) {
    auto [First, Last] = RD.blockDefs(L.Blocks[LB]);
    for (unsigned D = First; D < Last; ++D) {
      size_t K = KeyOf(RD.defs()[D].Value);
      if (K != NK) {
        SetBit(Row(Defined, LB), K);
        ++InLoopDefs[K];
      }
    }
  }

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t LB = 0; LB < NB; ++LB) {
      if (LB == HeaderLB)
        continue; // Header sets are the fixed seeds.
      uint64_t *TokB = Row(TokenIn, LB), *SameB = Row(SameIn, LB);
      for (uint32_t I = PredBegin[LB]; I < PredBegin[LB + 1]; ++I) {
        size_t LP = PredList[I];
        // TokenOut[P] = TokenIn[P] - Defined[P]; SameOut[P] = SameIn[P] +
        // Defined[P]. Computed on the fly to avoid storing OUT sets.
        const uint64_t *TokP = Row(TokenIn, LP), *SameP = Row(SameIn, LP),
                       *DefP = Row(Defined, LP);
        for (size_t W = 0; W < NW; ++W) {
          uint64_t Tok = TokB[W] | (TokP[W] & ~DefP[W]);
          uint64_t Same = SameB[W] | SameP[W] | DefP[W];
          Changed |= Tok != TokB[W] || Same != SameB[W];
          TokB[W] = Tok;
          SameB[W] = Same;
        }
      }
    }
  }

  // True when every in-loop definition that can feed this value across the
  // back edge is an HCPA-breakable update: the marked op itself, or the
  // canonical `v = Move t` copy whose source op is marked.
  auto BreakableDef = [&](unsigned D) {
    const DefSite &Def = RD.defs()[D];
    const Instruction &I = F.Blocks[Def.BB].Insts[Def.Idx];
    if (I.IsInductionUpdate || I.IsReductionUpdate)
      return true;
    if (I.Op == Opcode::Move && I.A != NoValue) {
      std::span<const unsigned> SrcDefs = RD.defsOf(I.A);
      if (SrcDefs.size() == 1) {
        const DefSite &Src = RD.defs()[SrcDefs[0]];
        const Instruction &SrcI = F.Blocks[Src.BB].Insts[Src.Idx];
        if (L.contains(Src.BB) &&
            (SrcI.IsInductionUpdate || SrcI.IsReductionUpdate))
          return true;
      }
    }
    return false;
  };

  auto DominatesAllLatches = [&](BlockId B) {
    for (BlockId Latch : L.Latches)
      if (!DT.dominates(B, Latch))
        return false;
    return true;
  };

  // Scan the loop body for uses whose previous-iteration token is alive.
  // One dependence is reported per (value, use) pair.
  TokenAlive.resize(NW);
  SameAlive.resize(NW);
  for (size_t LB = 0; LB < NB; ++LB) {
    BlockId B = L.Blocks[LB];
    std::copy_n(Row(TokenIn, LB), NW, TokenAlive.begin());
    std::copy_n(Row(SameIn, LB), NW, SameAlive.begin());
    const std::vector<Instruction> &Insts = F.Blocks[B].Insts;
    for (unsigned Idx = 0; Idx < Insts.size(); ++Idx) {
      const Instruction &I = Insts[Idx];
      for (ValueId V : InstructionUses(I)) {
        size_t K = V < F.NumValues ? KeyOf(V) : NK;
        if (K == NK || !TestBit(TokenAlive.data(), K))
          continue;
        std::span<const unsigned> Sources = SourcesOf(K);
        ScalarCarriedDep Dep;
        Dep.Value = V;
        Dep.Use = {B, Idx, V};
        Dep.Def = RD.defs()[Sources.front()];
        Dep.Breakable = true;
        for (unsigned D : Sources)
          Dep.Breakable &= BreakableDef(D);
        // Certain: both endpoints execute every iteration, the value has
        // exactly one in-loop definition, and no same-iteration definition
        // can satisfy the use instead.
        Dep.Certain = !TestBit(SameAlive.data(), K) && Sources.size() == 1 &&
                      InLoopDefs[K] == 1 && DominatesAllLatches(B) &&
                      DominatesAllLatches(Dep.Def.BB);
        Deps.push_back(Dep);
      }
      if (producesValue(I.Op) && I.Result != NoValue &&
          I.Result < F.NumValues) {
        size_t K = KeyOf(I.Result);
        if (K != NK) {
          TokenAlive[K / 64] &= ~(1ull << (K % 64));
          SetBit(SameAlive.data(), K);
        }
      }
    }
  }
  for (ValueId V : CarriedValues)
    KeyOfValue[V] = NoKey;
  return Deps;
}

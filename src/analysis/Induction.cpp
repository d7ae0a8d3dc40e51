//===- analysis/Induction.cpp ---------------------------------------------===//

#include "analysis/Induction.h"

#include <algorithm>
#include <span>

using namespace kremlin;

namespace {

/// Location of one instruction.
struct InstRef {
  BlockId BB = NoBlock;
  uint32_t Idx = 0;
};

/// Helper with the def indexes the patterns need: one for the whole
/// function, built once, and one for the loop being marked, rebuilt from
/// that loop's blocks only.
class Marker {
public:
  Marker(Function &F, const LoopInfo &LI) : F(F), LI(LI) {
    // Dense def lists indexed by ValueId: count, prefix-sum, fill. Defs of
    // one value stay in (block, index) order. The index covers every
    // register the function names, so lookups need no range check beyond
    // NoValue, even on IR the verifier would reject.
    size_t NumSlots = F.NumValues;
    auto Cover = [&](ValueId V) {
      if (V != NoValue)
        NumSlots = std::max<size_t>(NumSlots, size_t(V) + 1);
    };
    for (const BasicBlock &BB : F.Blocks)
      for (const Instruction &I : BB.Insts) {
        Cover(I.Result);
        Cover(I.A);
        Cover(I.B);
        for (ValueId Arg : I.CallArgs)
          Cover(Arg);
      }
    DefBegin.assign(NumSlots + 1, 0);
    forEachDef(F, [&](InstRef, ValueId V) { ++DefBegin[V + 1]; });
    for (size_t V = 0; V < NumSlots; ++V)
      DefBegin[V + 1] += DefBegin[V];
    DefList.resize(DefBegin[NumSlots]);
    std::vector<uint32_t> Fill(DefBegin.begin(), DefBegin.end() - 1);
    forEachDef(F, [&](InstRef R, ValueId V) { DefList[Fill[V]++] = R; });
    LoopDefs.reserve(DefList.size());
    LoopStamp.assign(NumSlots, 0);
    LoopFirst.assign(NumSlots, 0);
    LoopEnd.assign(NumSlots, 0);
    VisitStamp.assign(NumSlots, 0);
  }

  InductionMarkResult run() {
    for (const Loop &L : LI.Loops) {
      indexLoop(L);
      markScalarUpdates();
      markMemoryReductions(L);
    }
    return Result;
  }

private:
  /// One in-loop definition of Value.
  struct LoopDef {
    ValueId Value;
    InstRef Ref;
  };

  Function &F;
  const LoopInfo &LI;
  /// Defs of V in the whole function: DefList[DefBegin[V], DefBegin[V+1]).
  std::vector<uint32_t> DefBegin;
  std::vector<InstRef> DefList;
  /// Defs inside the current loop, sorted by value, then (block, index).
  std::vector<LoopDef> LoopDefs;
  /// V has in-loop defs iff LoopStamp[V] == Epoch; they are
  /// LoopDefs[LoopFirst[V], LoopEnd[V]).
  std::vector<uint32_t> LoopStamp, LoopFirst, LoopEnd;
  uint32_t Epoch = 0;
  /// Visited marks for dependsOn(), one stamp per walk.
  std::vector<uint32_t> VisitStamp;
  uint32_t VisitEpoch = 0;
  /// Scratch reused across walks and candidates: dependsOn()'s worklist
  /// and findAccumulatorOp()'s sibling operands.
  std::vector<ValueId> Work, Siblings;
  InductionMarkResult Result;

  template <typename Fn> static void forEachDef(const Function &F, Fn &&Visit) {
    for (BlockId BB = 0; BB < F.Blocks.size(); ++BB)
      for (uint32_t I = 0; I < F.Blocks[BB].Insts.size(); ++I) {
        const Instruction &Inst = F.Blocks[BB].Insts[I];
        if (producesValue(Inst.Op) && Inst.Result != NoValue)
          Visit(InstRef{BB, I}, Inst.Result);
      }
  }

  Instruction &inst(InstRef R) { return F.Blocks[R.BB].Insts[R.Idx]; }
  Instruction &inst(const LoopDef &D) { return inst(D.Ref); }

  /// Builds the in-loop def index of \p L from its blocks.
  void indexLoop(const Loop &L) {
    LoopDefs.clear();
    for (BlockId BB : L.Blocks)
      for (uint32_t I = 0; I < F.Blocks[BB].Insts.size(); ++I) {
        const Instruction &Inst = F.Blocks[BB].Insts[I];
        if (producesValue(Inst.Op) && Inst.Result != NoValue)
          LoopDefs.push_back({Inst.Result, {BB, I}});
      }
    // L.Blocks is sorted, so a stable sort by value keeps (block, index)
    // order within each value.
    std::stable_sort(
        LoopDefs.begin(), LoopDefs.end(),
        [](const LoopDef &A, const LoopDef &B) { return A.Value < B.Value; });
    ++Epoch;
    for (uint32_t I = 0; I < LoopDefs.size(); ++I) {
      ValueId V = LoopDefs[I].Value;
      if (LoopStamp[V] != Epoch) {
        LoopStamp[V] = Epoch;
        LoopFirst[V] = I;
      }
      LoopEnd[V] = I + 1;
    }
  }

  /// All defs of \p V in the whole function.
  std::span<const InstRef> defsOf(ValueId V) const {
    if (V >= LoopStamp.size())
      return {};
    return {DefList.data() + DefBegin[V], DefList.data() + DefBegin[V + 1]};
  }

  /// All defs of \p V whose block is inside the loop being marked.
  std::span<const LoopDef> defsInLoop(ValueId V) const {
    if (V >= LoopStamp.size() || LoopStamp[V] != Epoch)
      return {};
    return {LoopDefs.data() + LoopFirst[V], LoopDefs.data() + LoopEnd[V]};
  }

  /// True when \p V is invariant in the loop being marked: all its defs
  /// are outside the loop, or its single in-loop def is a constant.
  bool isInvariant(ValueId V) {
    std::span<const LoopDef> InLoop = defsInLoop(V);
    if (InLoop.empty())
      return true;
    if (InLoop.size() > 1)
      return false;
    Opcode Op = inst(InLoop[0]).Op;
    return Op == Opcode::ConstInt || Op == Opcode::ConstFloat;
  }

  /// True when \p V's in-loop def chains can read \p Banned. Worklist walk
  /// with a visited set (def chains cycle through loop-carried variables);
  /// conservatively true if the walk grows past a size bound.
  bool dependsOn(ValueId V, ValueId Banned) {
    if (V == Banned)
      return true;
    if (V == NoValue)
      return false;
    ++VisitEpoch;
    size_t NumVisited = 1;
    Work.assign(1, V);
    markVisited(V);
    while (!Work.empty()) {
      if (NumVisited > 512)
        return true; // Give up conservatively on huge chains.
      ValueId Cur = Work.back();
      Work.pop_back();
      for (const LoopDef &D : defsInLoop(Cur)) {
        const Instruction &I = inst(D);
        auto Visit = [&](ValueId Next) {
          if (Next == NoValue)
            return false;
          if (Next == Banned)
            return true;
          if (markVisited(Next)) {
            ++NumVisited;
            Work.push_back(Next);
          }
          return false;
        };
        if (Visit(I.A) || Visit(I.B))
          return true;
        for (ValueId Arg : I.CallArgs)
          if (Visit(Arg))
            return true;
      }
    }
    return false;
  }

  /// Marks \p V visited in the current dependsOn() walk; false if it
  /// already was.
  bool markVisited(ValueId V) {
    if (VisitStamp[V] == VisitEpoch)
      return false;
    VisitStamp[V] = VisitEpoch;
    return true;
  }

  static bool isReductionOpcode(Opcode Op) {
    switch (Op) {
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
      return true;
    default:
      return false;
    }
  }

  static bool isCommutative(Opcode Op) {
    return Op == Opcode::Add || Op == Opcode::Mul || Op == Opcode::FAdd ||
           Op == Opcode::FMul;
  }

  static bool isAdditive(Opcode Op) {
    return Op == Opcode::Add || Op == Opcode::Sub || Op == Opcode::FAdd ||
           Op == Opcode::FSub;
  }
  static bool isMultiplicative(Opcode Op) {
    return Op == Opcode::Mul || Op == Opcode::FMul;
  }

  /// Descends from \p Cur through a chain of same-group associative ops
  /// (additive: +,-; multiplicative: *) looking for the instruction that
  /// reads \p V directly — `s = s + x + y` accumulates through
  /// ((s + x) + y), so the accumulator read may be several ops deep. All
  /// sibling operands passed on the way are collected in Siblings for an
  /// independence-of-v check. Returns nullptr if no such op exists.
  Instruction *findAccumulatorOp(ValueId Cur, ValueId V, bool Additive,
                                 unsigned Depth) {
    if (Depth == 0)
      return nullptr;
    std::span<const LoopDef> CurDefs = defsInLoop(Cur);
    if (CurDefs.size() != 1)
      return nullptr;
    Instruction &I = inst(CurDefs[0]);
    if (!isReductionOpcode(I.Op) ||
        (Additive ? !isAdditive(I.Op) : !isMultiplicative(I.Op)))
      return nullptr;
    // Direct hit: one operand is the accumulator. For subtraction only the
    // left side accumulates (s = x - s is not a reduction).
    if (I.A == V) {
      Siblings.push_back(I.B);
      return &I;
    }
    if (I.B == V && isCommutative(I.Op)) {
      std::swap(I.A, I.B); // Normalize: accumulator is operand A.
      Siblings.push_back(I.B);
      return &I;
    }
    // Descend: through A always; through B only for commutative ops.
    size_t Mark = Siblings.size();
    Siblings.push_back(I.B);
    if (Instruction *Found =
            findAccumulatorOp(I.A, V, Additive, Depth - 1))
      return Found;
    Siblings.resize(Mark);
    if (isCommutative(I.Op)) {
      Siblings.push_back(I.A);
      if (Instruction *Found =
              findAccumulatorOp(I.B, V, Additive, Depth - 1))
        return Found;
      Siblings.resize(Mark);
    }
    return nullptr;
  }

  /// Scalar patterns: the single in-loop def of v is Move(v <- t) where t's
  /// def chain accumulates v through associative ops. Values are visited in
  /// ascending ValueId order: the pass swaps operands in place, so a later
  /// value's match may depend on an earlier value's normalization.
  void markScalarUpdates() {
    for (size_t I = 0; I < LoopDefs.size();) {
      ValueId V = LoopDefs[I].Value;
      size_t Next = LoopEnd[V];
      bool Single = Next == I + 1;
      InstRef Def = LoopDefs[I].Ref;
      I = Next;
      if (!Single)
        continue;
      Instruction &MoveInst = inst(Def);
      if (MoveInst.Op != Opcode::Move)
        continue;
      ValueId T = MoveInst.A;
      std::span<const LoopDef> TDefs = defsInLoop(T);
      if (TDefs.size() != 1)
        continue;
      bool Additive = isAdditive(inst(TDefs[0]).Op);
      Siblings.clear();
      Instruction *Acc =
          findAccumulatorOp(T, V, Additive, /*Depth=*/8);
      if (!Acc)
        continue;
      Instruction &OpInst = *Acc;
      // Every non-accumulator input must be independent of v, or this is a
      // genuine recurrence that must not be broken.
      bool Recurrence = false;
      for (ValueId Sibling : Siblings)
        if (dependsOn(Sibling, V)) {
          Recurrence = true;
          break;
        }
      if (Recurrence)
        continue;
      // Induction iff the whole update is an integer-additive chain with
      // loop-invariant steps; anything else that accumulates is a
      // reduction.
      bool StepInvariant = true;
      for (ValueId Sibling : Siblings)
        if (!isInvariant(Sibling)) {
          StepInvariant = false;
          break;
        }
      bool IsAdditive =
          Additive && (OpInst.Op == Opcode::Add || OpInst.Op == Opcode::Sub);
      if (StepInvariant && IsAdditive) {
        if (!OpInst.IsInductionUpdate) {
          OpInst.IsInductionUpdate = true;
          ++Result.NumInductionUpdates;
        }
        // The copy back into the variable is part of the same update: if it
        // kept its control dependence, the loop test would re-serialize
        // through it. Break it as well.
        MoveInst.IsInductionUpdate = true;
      } else if (!OpInst.IsReductionUpdate) {
        OpInst.IsReductionUpdate = true;
        ++Result.NumReductionUpdates;
      }
    }
  }

  /// Structural equality of two address-computation chains. Leaves compare
  /// by register identity, constant value, or global/frame array id. Loads
  /// compare by address-chain equality (the caller guarantees there is no
  /// intervening store, because both chains were emitted while lowering one
  /// assignment statement).
  bool sameValueChain(ValueId A, ValueId B, unsigned Depth) {
    if (A == B)
      return true;
    if (Depth == 0 || A == NoValue || B == NoValue)
      return false;
    std::span<const InstRef> DefsA = defsOf(A), DefsB = defsOf(B);
    if (DefsA.size() != 1 || DefsB.size() != 1)
      return false;
    const Instruction &IA = inst(DefsA[0]);
    const Instruction &IB = inst(DefsB[0]);
    if (IA.Op != IB.Op)
      return false;
    switch (IA.Op) {
    case Opcode::ConstInt:
      return IA.IntImm == IB.IntImm;
    case Opcode::ConstFloat:
      return IA.FloatImm == IB.FloatImm;
    case Opcode::GlobalAddr:
    case Opcode::FrameAddr:
      return IA.Aux == IB.Aux;
    case Opcode::Load:
      return sameValueChain(IA.A, IB.A, Depth - 1);
    default:
      if (isBinaryOp(IA.Op))
        return sameValueChain(IA.A, IB.A, Depth - 1) &&
               sameValueChain(IA.B, IB.B, Depth - 1);
      if (isUnaryOp(IA.Op))
        return sameValueChain(IA.A, IB.A, Depth - 1);
      return false;
    }
  }

  /// Memory reduction: Store(addr, t) where t = Op(load(addr'), e) and
  /// addr' computes the same address as addr.
  void markMemoryReductions(const Loop &L) {
    for (BlockId BB : L.Blocks) {
      for (Instruction &Store : F.Blocks[BB].Insts) {
        if (Store.Op != Opcode::Store)
          continue;
        std::span<const LoopDef> ValDefs = defsInLoop(Store.B);
        if (ValDefs.size() != 1)
          continue;
        Instruction &OpInst = inst(ValDefs[0]);
        if (!isReductionOpcode(OpInst.Op) || OpInst.IsReductionUpdate ||
            OpInst.IsInductionUpdate)
          continue;

        auto LoadMatches = [&](ValueId Operand) {
          std::span<const LoopDef> LDefs = defsInLoop(Operand);
          if (LDefs.size() != 1)
            return false;
          const Instruction &LoadInst = inst(LDefs[0]);
          if (LoadInst.Op != Opcode::Load)
            return false;
          return sameValueChain(LoadInst.A, Store.A, /*Depth=*/16);
        };

        if (LoadMatches(OpInst.A)) {
          OpInst.IsReductionUpdate = true;
          ++Result.NumMemoryReductions;
        } else if (isCommutative(OpInst.Op) && LoadMatches(OpInst.B)) {
          std::swap(OpInst.A, OpInst.B);
          OpInst.IsReductionUpdate = true;
          ++Result.NumMemoryReductions;
        }
      }
    }
  }
};

} // namespace

InductionMarkResult kremlin::markInductionAndReductions(Function &F,
                                                        const LoopInfo &LI) {
  return Marker(F, LI).run();
}

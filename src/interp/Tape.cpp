//===- interp/Tape.cpp - IR -> execution tape decoder ---------------------===//

#include "interp/Tape.h"

#include <bit>
#include <cassert>

using namespace kremlin;

namespace {

uint8_t tapeOp(Opcode Op) { return static_cast<uint8_t>(Op); }

bool isCompare(Opcode Op) {
  switch (Op) {
  case Opcode::CmpEQ:
  case Opcode::CmpNE:
  case Opcode::CmpLT:
  case Opcode::CmpLE:
  case Opcode::CmpGT:
  case Opcode::CmpGE:
  case Opcode::FCmpEQ:
  case Opcode::FCmpNE:
  case Opcode::FCmpLT:
  case Opcode::FCmpLE:
  case Opcode::FCmpGT:
  case Opcode::FCmpGE:
    return true;
  default:
    return false;
  }
}

uint8_t breakFlag(const Instruction &I) {
  return (I.IsInductionUpdate || I.IsReductionUpdate) ? BreakDepFlag : 0;
}

/// Lowers one function. Branch targets are recorded as block ids first and
/// patched to tape indices once every block's start offset is known.
class FunctionDecoder {
public:
  FunctionDecoder(const Function &F, const std::vector<uint64_t> &GlobalBase,
                  const LatencyTable *Lat)
      : F(F), GlobalBase(GlobalBase), Lat(Lat) {}

  TapeFunction decode() {
    TF.Src = &F;
    TF.NumValues = F.NumValues;
    TF.FrameWords = F.frameWords();
    // Frame-array bases become offsets from the frame base pointer.
    FrameOffset.resize(F.FrameArrays.size());
    uint64_t Off = 0;
    for (size_t A = 0; A < F.FrameArrays.size(); ++A) {
      FrameOffset[A] = Off;
      Off += F.FrameArrays[A].SizeWords;
    }

    // Static writer counts, for the const event elision (a register with
    // several writers can hold a real availability time that a later const
    // write must clear, so only single-writer consts are elidable).
    WriterCount.assign(F.NumValues, 0);
    for (const BasicBlock &B : F.Blocks)
      for (const Instruction &I : B.Insts)
        if (I.Result != NoValue && I.Result < F.NumValues)
          ++WriterCount[I.Result];

    BlockStart.resize(F.Blocks.size());
    for (uint32_t B = 0; B < F.Blocks.size(); ++B) {
      BlockStart[B] = static_cast<uint32_t>(TF.Code.size());
      lowerBlock(B);
    }
    patchTargets();
    markBlockEntries();
    if (Lat)
      foldRuns();
    return std::move(TF);
  }

private:
  const Function &F;
  const std::vector<uint64_t> &GlobalBase;
  const LatencyTable *Lat;
  TapeFunction TF;
  std::vector<uint64_t> FrameOffset;
  std::vector<uint32_t> BlockStart;
  std::vector<uint32_t> WriterCount;

  void lowerBlock(uint32_t BlockId) {
    const std::vector<Instruction> &Insts = F.Blocks[BlockId].Insts;
    for (size_t I = 0; I < Insts.size(); ++I) {
      if (tryFuseLoadOpStore(Insts, I, BlockId) ||
          tryFuseCmpBr(Insts, I, BlockId))
        continue;
      lowerOne(Insts[I], BlockId);
    }
    if (!F.Blocks[BlockId].hasTerminator()) {
      TapeInst T;
      T.Op = TapeHalt;
      TF.Code.push_back(T);
    }
  }

  /// Operand materializations are pure and operand-free, so they can be
  /// hoisted above a load when reordering them cannot change a value the
  /// fusion pattern reads.
  static bool isHoistable(const Instruction &X) {
    return X.Op == Opcode::ConstInt || X.Op == Opcode::ConstFloat ||
           X.Op == Opcode::GlobalAddr || X.Op == Opcode::FrameAddr;
  }

  /// Load r1 = [p]; r2 = r1 op x; [p] = r2  =>  one superinstruction.
  /// The address register must survive the load and the op (p is not
  /// overwritten), so the store address provably equals the load address.
  /// The triple may be interleaved with operand materializations (e.g. the
  /// ConstInt feeding `op` in `a[i] = a[i] + 3`); those are emitted ahead
  /// of the fused instruction, which is legal because they are pure,
  /// read nothing, and are barred from defining a register the pattern
  /// consumes out of order.
  bool tryFuseLoadOpStore(const std::vector<Instruction> &Insts, size_t &I,
                          uint32_t BlockId) {
    const Instruction &Ld = Insts[I];
    if (Ld.Op != Opcode::Load)
      return false;
    size_t J = I + 1; // Op position; window 1 hoists in [I+1, J).
    while (J < Insts.size() && J - I <= 2 && isHoistable(Insts[J]))
      ++J;
    if (J + 1 >= Insts.size())
      return false;
    const Instruction &Op = Insts[J];
    if (!isBinaryOp(Op.Op) || Op.A != Ld.Result)
      return false;
    size_t K = J + 1; // Store position; window 2 hoists in [J+1, K).
    while (K < Insts.size() && K - J <= 2 && isHoistable(Insts[K]))
      ++K;
    if (K >= Insts.size())
      return false;
    const Instruction &St = Insts[K];
    if (St.Op != Opcode::Store || St.A != Ld.A || St.B != Op.Result)
      return false;
    if (Ld.Result == Ld.A || Op.Result == Ld.A)
      return false; // Address register clobbered: addresses may differ.
    // Window 1 runs before `op` either way; hoisting it above the load
    // only hazards the load's own reads, and a def of the load's result
    // would mean `op` never read the load at all.
    for (size_t H = I + 1; H < J; ++H)
      if (Insts[H].Result == Ld.A || Insts[H].Result == Ld.Result)
        return false;
    // Window 2 originally ran after `op`: hoisting must not redefine
    // anything the load, op, or store consumes.
    for (size_t H = J + 1; H < K; ++H)
      if (Insts[H].Result == Ld.A || Insts[H].Result == Ld.Result ||
          Insts[H].Result == Op.B || Insts[H].Result == Op.Result)
        return false;
    for (size_t H = I + 1; H < J; ++H)
      lowerOne(Insts[H], BlockId);
    for (size_t H = J + 1; H < K; ++H)
      lowerOne(Insts[H], BlockId);
    TapeInst T;
    T.Op = TapeLoadOpStore;
    T.SubOp = tapeOp(Op.Op);
    T.Flags = breakFlag(Op);
    T.A = Ld.A;
    T.Dst = Ld.Result;
    T.B = Op.B;
    T.X = Op.Result;
    T.Y = Ld.Line;
    T.Imm = St.Line;
    TF.Code.push_back(T);
    ++TF.FusedLoadOpStore;
    I = K;
    return true;
  }

  /// rc = a cmp b; condbr rc  =>  one superinstruction.
  bool tryFuseCmpBr(const std::vector<Instruction> &Insts, size_t &I,
                    uint32_t BlockId) {
    if (I + 1 >= Insts.size())
      return false;
    const Instruction &Cmp = Insts[I];
    const Instruction &Br = Insts[I + 1];
    if (!isCompare(Cmp.Op) || Br.Op != Opcode::CondBr || Br.A != Cmp.Result)
      return false;
    TapeInst T;
    T.Op = TapeCmpBr;
    T.SubOp = tapeOp(Cmp.Op);
    T.Flags = breakFlag(Cmp);
    T.Dst = Cmp.Result;
    T.A = Cmp.A;
    T.B = Cmp.B;
    T.Imm = addBranchInfo(Br, BlockId);
    TF.Code.push_back(T);
    ++TF.FusedCmpBr;
    I += 1;
    return true;
  }

  /// A parameter's row also holds the argument's copied times, and a
  /// const with latency must still add its work.
  void markNoEmit(TapeInst &T) {
    if (T.Dst != NoValue && T.Dst >= F.NumParams && WriterCount[T.Dst] == 1 &&
        (!Lat || (*Lat)[T.Op] == 0))
      T.Flags |= NoEmitFlag;
  }

  /// Entering a block pops control dependences only if some branch of the
  /// function merges there or sits there (popControlDepsAtBlock); entries
  /// into every other block are no-ops and emit no event.
  void markBlockEntries() {
    std::vector<uint8_t> MayPop(F.Blocks.size(), 0);
    for (const CondBrInfo &B : TF.Branches) {
      if (B.Merge < MayPop.size())
        MayPop[B.Merge] = 1;
      MayPop[B.PushBlock] = 1;
    }
    for (CondBrInfo &B : TF.Branches) {
      B.TrueEntry = MayPop[B.TrueBlock];
      B.FalseEntry = MayPop[B.FalseBlock];
    }
    for (TapeInst &T : TF.Code)
      if (T.Op == tapeOp(Opcode::Br) && MayPop[T.Y])
        T.Flags |= BlockEntryFlag;
  }

  /// Folds every maximal straight-line run of register operations (split
  /// at MaxSegmentOps) that a summary makes cheaper into one segment. A
  /// run never crosses a block boundary: every block ends in a terminator,
  /// or TapeHalt, none of which is a register op. A run may end in its
  /// block's unconditional branch, whose onOp reads only the control
  /// dependence and writes only the level max.
  void foldRuns() {
    // A register defined in a run is dead after it iff it has one static
    // definition and all its uses follow it inside the run; every other
    // register counts as live. Use counts span the whole function.
    std::vector<uint32_t> UseCount(F.NumValues, 0);
    auto countUse = [&](ValueId V) {
      if (V != NoValue && V < F.NumValues)
        ++UseCount[V];
    };
    for (const BasicBlock &B : F.Blocks)
      for (const Instruction &I : B.Insts) {
        countUse(I.A);
        countUse(I.B);
        for (ValueId Arg : I.CallArgs)
          countUse(Arg);
      }

    std::vector<uint32_t> UsesAfterDef(F.NumValues, 0);
    std::vector<uint8_t> Defined(F.NumValues, 0);
    std::vector<SegmentOp> Ops;
    SegmentBuilder Builder(*Lat, F.NumValues);
    auto isRegisterOp = [](const TapeInst &T) {
      return T.Op <= tapeOp(Opcode::PtrAdd);
    };
    const size_t N = TF.Code.size();
    for (size_t Begin = 0; Begin < N;) {
      if (!isRegisterOp(TF.Code[Begin])) {
        ++Begin;
        continue;
      }
      size_t End = Begin;
      unsigned Counted = 0;
      auto fits = [&](const TapeInst &T) {
        return (T.Flags & NoEmitFlag) || Counted < MaxSegmentOps;
      };
      while (End < N && isRegisterOp(TF.Code[End]) && fits(TF.Code[End]))
        Counted += !(TF.Code[End++].Flags & NoEmitFlag);
      if (End < N && TF.Code[End].Op == tapeOp(Opcode::Br) &&
          fits(TF.Code[End])) {
        ++End;
        ++Counted;
      }

      if (Counted < 2) { // One counted op: its own event is as cheap.
        Begin = End;
        continue;
      }
      for (size_t K = Begin; K < End; ++K) {
        const TapeInst &T = TF.Code[K];
        for (ValueId V : {T.A, T.B})
          if (V != NoValue && Defined[V])
            ++UsesAfterDef[V];
        if (T.Dst != NoValue)
          Defined[T.Dst] = 1;
      }
      Ops.clear();
      for (size_t K = Begin; K < End; ++K) {
        const TapeInst &T = TF.Code[K];
        SegmentOp O;
        O.Op = static_cast<Opcode>(T.Op);
        O.Dst = T.Dst;
        O.A = T.A;
        O.B = T.B;
        O.BreakDepA = (T.Flags & BreakDepFlag) != 0;
        O.Elided = (T.Flags & NoEmitFlag) != 0;
        O.LiveOut = T.Dst != NoValue &&
                    !(WriterCount[T.Dst] == 1 &&
                      UsesAfterDef[T.Dst] == UseCount[T.Dst]);
        Ops.push_back(O);
      }
      for (size_t K = Begin; K < End; ++K) {
        const TapeInst &T = TF.Code[K];
        for (ValueId V : {T.A, T.B, T.Dst})
          if (V != NoValue) {
            UsesAfterDef[V] = 0;
            Defined[V] = 0;
          }
      }

      SegmentSummary S = Builder.build(Ops);
      if (foldsProfitably(S, Ops)) {
        uint8_t Role = SegHeadFlag;
        for (size_t K = Begin; K < End; ++K) {
          TapeInst &T = TF.Code[K];
          if (T.Flags & NoEmitFlag)
            continue; // Still a free op; the summary reads its row as 0.
          T.Flags |= Role;
          if (Role == SegHeadFlag)
            T.X = static_cast<uint32_t>(TF.Segments.size());
          Role = SegMemberFlag;
        }
        TF.Segments.push_back(std::move(S));
      }
      Begin = End;
    }
  }

  uint64_t addBranchInfo(const Instruction &Br, uint32_t BlockId) {
    CondBrInfo Info;
    Info.Merge = Br.MergeBlock == NoBlock ? UINT32_MAX : Br.MergeBlock;
    Info.PushBlock = BlockId;
    Info.TrueBlock = Br.Aux;
    Info.FalseBlock = Br.Aux2;
    TF.Branches.push_back(Info);
    return TF.Branches.size() - 1;
  }

  void lowerOne(const Instruction &I, uint32_t BlockId) {
    TapeInst T;
    T.Op = tapeOp(I.Op);
    T.SubOp = tapeOp(I.Op);
    T.Flags = breakFlag(I);
    switch (I.Op) {
    case Opcode::ConstInt:
      T.Dst = I.Result;
      T.Imm = static_cast<uint64_t>(I.IntImm);
      markNoEmit(T);
      break;
    case Opcode::ConstFloat:
      T.Dst = I.Result;
      T.Imm = std::bit_cast<uint64_t>(I.FloatImm);
      markNoEmit(T);
      break;
    case Opcode::GlobalAddr:
      T.Dst = I.Result;
      T.Imm = GlobalBase[I.Aux];
      markNoEmit(T);
      break;
    case Opcode::FrameAddr:
      T.Dst = I.Result;
      T.Imm = FrameOffset[I.Aux];
      markNoEmit(T);
      break;
    case Opcode::Load:
      T.Dst = I.Result;
      T.A = I.A;
      T.X = I.Line;
      break;
    case Opcode::Store:
      T.A = I.A;
      T.B = I.B;
      T.X = I.Line;
      break;
    case Opcode::RegionEnter:
    case Opcode::RegionExit:
      T.Imm = I.Aux;
      break;
    case Opcode::Call:
      T.Dst = I.Result;
      T.Imm = I.Aux;
      T.X = static_cast<uint32_t>(TF.ArgPool.size());
      T.Y = static_cast<uint32_t>(I.CallArgs.size());
      TF.ArgPool.insert(TF.ArgPool.end(), I.CallArgs.begin(),
                        I.CallArgs.end());
      break;
    case Opcode::Ret:
      T.A = I.A;
      break;
    case Opcode::Br:
      T.Y = I.Aux; // Target block id; X patched to its tape index.
      break;
    case Opcode::CondBr:
      T.A = I.A;
      T.Imm = addBranchInfo(I, BlockId);
      break;
    default:
      // Arithmetic / compares / logic / casts / Move / PtrAdd.
      T.Dst = I.Result;
      T.A = I.A;
      T.B = I.B;
      break;
    }
    TF.Code.push_back(T);
  }

  void patchTargets() {
    for (TapeInst &T : TF.Code) {
      if (T.Op == tapeOp(Opcode::Br)) {
        T.X = BlockStart[T.Y];
      } else if (T.Op == tapeOp(Opcode::CondBr) || T.Op == TapeCmpBr) {
        const CondBrInfo &Info = TF.Branches[T.Imm];
        T.X = BlockStart[Info.TrueBlock];
        T.Y = BlockStart[Info.FalseBlock];
      }
    }
  }
};

} // namespace

ModuleTape::ModuleTape(const Module &M,
                       const std::vector<uint64_t> &GlobalBase,
                       const LatencyTable *Lat) {
  if (Lat)
    Latency = *Lat;
  Funcs.reserve(M.Functions.size());
  for (const Function &F : M.Functions)
    Funcs.push_back(FunctionDecoder(F, GlobalBase, Lat).decode());
}

//===- rt/KremlinRuntime.cpp ----------------------------------------------===//

#include "rt/KremlinRuntime.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cstring>

using namespace kremlin;

namespace {
/// All-zero control-dependence row for BreakDep operations: lets the onOp
/// slot loop read through one unconditional pointer.
const Time ZeroTimes[MaxTrackedLevels] = {};

/// Per slot, V = max(K, Src[t.Src][Slot] + t.Dist over N terms at T); writes
/// V to Dst (unless null) and folds it into LM. N is a compile-time count,
/// so the term loop unrolls and its pointers and distances stay in
/// registers; N == 0 takes the count from \p Count.
template <unsigned N>
void maxPlusSlots(Time K, const SegmentTerm *T, unsigned Count,
                  const Time *const *Src, Time *Dst, Time *LM,
                  unsigned Slots) {
  constexpr unsigned Cap = N ? N : MaxSegmentSources;
  const unsigned Num = N ? N : Count;
  const Time *X[Cap];
  Time D[Cap];
  for (unsigned I = 0; I < Num; ++I) {
    X[I] = Src[T[I].Src];
    D[I] = T[I].Dist;
  }
  for (unsigned Slot = 0; Slot < Slots; ++Slot) {
    Time V = K;
    for (unsigned I = 0; I < Num; ++I) {
      Time Y = X[I][Slot] + D[I];
      V = Y > V ? Y : V;
    }
    if (Dst)
      Dst[Slot] = V;
    LM[Slot] = V > LM[Slot] ? V : LM[Slot];
  }
}

void evalMaxPlus(const SegmentExpr &E, const SegmentTerm *Terms,
                 const Time *const *Src, Time *Dst, Time *LM,
                 unsigned Slots) {
  const SegmentTerm *T = Terms + E.Begin;
  unsigned Count = E.End - E.Begin;
  switch (Count) {
  case 1:
    return maxPlusSlots<1>(E.K, T, Count, Src, Dst, LM, Slots);
  case 2:
    return maxPlusSlots<2>(E.K, T, Count, Src, Dst, LM, Slots);
  case 3:
    return maxPlusSlots<3>(E.K, T, Count, Src, Dst, LM, Slots);
  case 4:
    return maxPlusSlots<4>(E.K, T, Count, Src, Dst, LM, Slots);
  case 5:
    return maxPlusSlots<5>(E.K, T, Count, Src, Dst, LM, Slots);
  case 6:
    return maxPlusSlots<6>(E.K, T, Count, Src, Dst, LM, Slots);
  default:
    return maxPlusSlots<0>(E.K, T, Count, Src, Dst, LM, Slots);
  }
}
} // namespace

KremlinRuntime::KremlinRuntime(const KremlinConfig &Cfg,
                               RegionSummarySink &Sink)
    : Cfg(Cfg), Sink(Sink),
      Memory(Cfg.NumLevels, Cfg.SegmentWords, Cfg.MaxShadowBytes) {
  assert(Cfg.NumLevels >= 1 && Cfg.NumLevels <= MaxTrackedLevels &&
         "NumLevels outside the supported window");
  CurInstance.assign(Cfg.NumLevels, 0);
  LevelMaxTimes.assign(Cfg.NumLevels, 0);
  LatOf = makeLatencyTable(Cfg.Latency);
  SegmentInputs.resize(static_cast<size_t>(MaxSegmentSources - 1) *
                       Cfg.NumLevels);
}

void KremlinRuntime::enterRegion(RegionId R) {
  unsigned Level = depth();
  // Depth guardrail: record the error but still push the region so every
  // exitRegion stays matched while the interpreter unwinds to its next
  // failure poll.
  if (Cfg.MaxRegionDepth != 0 && Level >= Cfg.MaxRegionDepth && Err.ok())
    Err = Status::error(
        ErrorCode::ResourceExhausted,
        formatString("region nesting depth cap (%u) exceeded",
                     Cfg.MaxRegionDepth));
  uint64_t Instance = ++NextInstance;
  if (Level >= Cfg.MinLevel && Level - Cfg.MinLevel < Cfg.NumLevels) {
    // Retag the slot: every shadow cell written by older same-depth regions
    // now reads as time 0. The fresh region starts with an empty critical
    // path.
    CurInstance[Level - Cfg.MinLevel] = Instance;
    LevelMaxTimes[Level - Cfg.MinLevel] = 0;
    ++Stats.LevelRetags;
  }
  ActiveRegion A;
  A.Static = R;
  A.Instance = Instance;
  Regions.push_back(std::move(A));
  ++Stats.DynRegionEntries;
  if (Level + 1 > Stats.MaxDepth)
    Stats.MaxDepth = Level + 1;
  TopWork = &Regions.back().Work;
  SlotsActive = activeSlots();
}

void KremlinRuntime::exitRegion(RegionId R) {
  assert(!Regions.empty() && "region exit with empty region stack");
  ActiveRegion Top = std::move(Regions.back());
  Regions.pop_back();
  assert(Top.Static == R && "mismatched region exit");
  (void)R;

  unsigned Level = depth(); // Level the popped region occupied.
  TopWork = Regions.empty() ? nullptr : &Regions.back().Work;
  SlotsActive = activeSlots();
  bool Tracked =
      Level >= Cfg.MinLevel && Level - Cfg.MinLevel < Cfg.NumLevels;
  // Keep the CdNow invariant: slots at or beyond SlotsActive read 0, so a
  // later region entry can reactivate this slot without a refresh.
  if (Tracked)
    CdNow[Level - Cfg.MinLevel] = 0;
  // Outside the tracked window we never measured availability times; fall
  // back to the serial assumption cp == work so summaries stay well-formed.
  Time Cp = Tracked ? LevelMaxTimes[Level - Cfg.MinLevel] : Top.Work;
  // Work is a trivial upper bound... cp can exceed work only through
  // control-dependence times carried from sibling iterations; clamp.
  if (Cp > Top.Work)
    Cp = Top.Work;

  std::sort(Top.Children.begin(), Top.Children.end());
  DynRegionSummary S;
  S.Static = Top.Static;
  S.Work = Top.Work;
  S.Cp = Cp;
  S.Children = std::move(Top.Children);
  SummaryChar C = Sink.intern(std::move(S));

  if (Regions.empty()) {
    Sink.onRootExit(C);
    return;
  }
  ActiveRegion &Parent = Regions.back();
  Parent.Work += Top.Work;
  // Linear scan: regions have few distinct child characters in practice
  // (that is exactly why the dictionary compression works).
  for (auto &[Char, Count] : Parent.Children) {
    if (Char == C) {
      ++Count;
      return;
    }
  }
  Parent.Children.emplace_back(C, 1);
}

void KremlinRuntime::pushFrame(unsigned NumRegs) {
  if (LiveFrames == Frames.size())
    Frames.emplace_back();
  Frame &F = Frames[LiveFrames++];
  F.NumRegs = NumRegs;
  // Grow-only; clearing the watermarks invalidates every recycled row at
  // once (see the Frame doc comment), so no cell is ever re-zeroed here.
  size_t NeedCells = static_cast<size_t>(NumRegs) * Cfg.NumLevels;
  if (F.Cells.size() < NeedCells)
    F.Cells.resize(NeedCells);
  if (F.RowW.size() < NumRegs)
    F.RowW.resize(NumRegs);
  if (NumRegs > 0) // A register-less frame may have no row storage at all.
    std::memset(F.RowW.data(), 0, static_cast<size_t>(NumRegs) *
                                      sizeof(uint64_t));
  F.CdBase = CdMerge.size();
  FrameCells = F.Cells.data();
  FrameRowW = F.RowW.data();
  CdTop = nullptr; // The new frame has no open control scope yet.
  refreshCdNow();
}

void KremlinRuntime::popFrame() {
  assert(LiveFrames > 0 && "popFrame with no frames");
  Frame &F = Frames[LiveFrames - 1];
  // Abandon control dependences opened in this frame (early returns).
  CdMerge.resize(F.CdBase);
  CdPushBlock.resize(F.CdBase);
  CdCells.resize(CdMerge.size() * Cfg.NumLevels);
  --LiveFrames;
  if (LiveFrames > 0) {
    Frame &Top = Frames[LiveFrames - 1];
    FrameCells = Top.Cells.data();
    FrameRowW = Top.RowW.data();
  } else {
    FrameCells = nullptr;
    FrameRowW = nullptr;
  }
  refreshCdTop();
  refreshCdNow();
}

void KremlinRuntime::copyParamFromCaller(ValueId DstParam,
                                         ValueId SrcArgInCaller) {
  assert(LiveFrames >= 2 && "no caller frame");
  Frame &Callee = Frames[LiveFrames - 1];
  Frame &Caller = Frames[LiveFrames - 2];
  // The watermark travels with the times: validity is a property of the
  // write that produced the row, not of the frame holding the copy.
  uint64_t W = Caller.RowW[SrcArgInCaller];
  Callee.RowW[DstParam] = W;
  if (W == 0)
    return; // Source row unwritten: the copy reads as 0 everywhere.
  const Time *Src =
      &Caller.Cells[static_cast<size_t>(SrcArgInCaller) * Cfg.NumLevels];
  std::copy(Src, Src + Cfg.NumLevels,
            &Callee.Cells[static_cast<size_t>(DstParam) * Cfg.NumLevels]);
}

void KremlinRuntime::copyReturnToCaller(ValueId DstInCaller,
                                        ValueId SrcInCallee) {
  assert(LiveFrames >= 2 && "no caller frame");
  Frame &Callee = Frames[LiveFrames - 1];
  Frame &Caller = Frames[LiveFrames - 2];
  uint64_t W = Callee.RowW[SrcInCallee];
  Caller.RowW[DstInCaller] = W;
  if (W == 0)
    return; // Source row unwritten: the copy reads as 0 everywhere.
  const Time *Src =
      &Callee.Cells[static_cast<size_t>(SrcInCallee) * Cfg.NumLevels];
  std::copy(Src, Src + Cfg.NumLevels,
            &Caller.Cells[static_cast<size_t>(DstInCaller) * Cfg.NumLevels]);
}

void KremlinRuntime::onCondBranch(ValueId CondReg, uint32_t MergeBlock,
                                  uint32_t PushBlock) {
  unsigned Lat = LatOf[static_cast<size_t>(Opcode::CondBr)];
  addWork(Lat);
  ++Stats.DynInstructions;
  Frame &F = curFrame();
  unsigned Slots = SlotsActive;

  // Branch availability per slot: max(enclosing control dep, condition) +
  // latency. When the top entry already targets the same merge block (a
  // loop back edge re-branching every iteration, or an if re-entered in a
  // new iteration) the new branch instance REPLACES it: each dynamic branch
  // is its own control dependence, so a counted loop whose condition only
  // reads broken induction chains does not serialize its iterations, while
  // a data-dependent condition (while (err > tol)) still does — its time
  // flows in through CondReg. The enclosing dependence is the entry below
  // the one being replaced.
  bool Coalesce = CdMerge.size() > F.CdBase &&
                  CdMerge.back() == MergeBlock &&
                  CdPushBlock.back() == PushBlock;
  size_t OuterIdx = CdMerge.size() - (Coalesce ? 2 : 1); // May underflow...
  bool HasOuter = CdMerge.size() >= (Coalesce ? 2u : 1u) &&
                  OuterIdx + 1 > F.CdBase; // ...guarded here.
  Time NewT[MaxTrackedLevels];
  for (unsigned Slot = 0; Slot < Slots; ++Slot) {
    Time T = 0;
    if (HasOuter) {
      const ShadowCell &Cell = CdCells[OuterIdx * Cfg.NumLevels + Slot];
      if (Cell.Tag == CurInstance[Slot])
        T = Cell.T;
    }
    Time Tc = readRegTime(F, CondReg, Slot);
    if (Tc > T)
      T = Tc;
    NewT[Slot] = T + Lat;
  }

  if (!Coalesce) {
    CdMerge.push_back(MergeBlock);
    CdPushBlock.push_back(PushBlock);
    CdCells.resize(CdCells.size() + Cfg.NumLevels);
  }
  size_t Base = (CdMerge.size() - 1) * Cfg.NumLevels;
  Time *LM = LevelMaxTimes.data();
  for (unsigned Slot = 0; Slot < Slots; ++Slot) {
    CdCells[Base + Slot].Tag = CurInstance[Slot];
    CdCells[Base + Slot].T = NewT[Slot];
    CdNow[Slot] = NewT[Slot]; // Fresh tags: the contribution is NewT.
    if (NewT[Slot] > LM[Slot])
      LM[Slot] = NewT[Slot];
  }
  // Slots beyond the active depth keep stale tags and read as 0 (and their
  // CdNow entries are already 0 by invariant).
  CdTop = &CdCells[Base]; // resize() above may have moved the storage.
}

void KremlinRuntime::onOp(Opcode Op, ValueId Dst, ValueId A, ValueId B,
                          bool BreakDepA) {
  unsigned Lat = LatOf[static_cast<size_t>(Op)];
  addWork(Lat);
  ++Stats.DynInstructions;
  if (LiveFrames == 0)
    return;
  const unsigned NL = Cfg.NumLevels;
  const unsigned Slots = SlotsActive;
  Time *FC = FrameCells;

  // Constant materializations only exist because the IR spells immediates
  // out as instructions; in LLVM they are operands with no availability
  // time. Treat them (and address-base constants) as available at time 0,
  // independent of control dependences — otherwise a loop's control chain
  // would leak into every literal used inside the loop.
  if (isConstClassOp(Op)) {
    // "Available at time 0" and "unwritten row" are indistinguishable to
    // every reader, so the row write collapses to an O(1) invalidation:
    // watermark 0 predates every instance id.
    FrameRowW[Dst] = 0;
    return;
  }

  // Operand watermarks resolved before the destination's is bumped (Dst
  // may alias A or B); the slot loop is then straight-line maxing over
  // contiguous times. Unused operands point at an all-zero row under a
  // zero watermark, keeping the loop free of null checks. Induction/
  // reduction updates (BreakDepA) ignore both the old value and the
  // control dependence: the iteration-existence test of a counted loop is
  // exactly the easy-to-break dependence the rule removes.
  uint64_t *RW = FrameRowW;
  const Time *Cd = BreakDepA ? ZeroTimes : CdNow;
  bool UseA = A != NoValue && !BreakDepA;
  const uint64_t WA = UseA ? RW[A] : 0;
  const Time *TA = UseA ? FC + static_cast<size_t>(A) * NL : ZeroTimes;
  const uint64_t WB = B != NoValue ? RW[B] : 0;
  const Time *TB =
      B != NoValue ? FC + static_cast<size_t>(B) * NL : ZeroTimes;
  Time *TDst = nullptr;
  if (Dst != NoValue) {
    TDst = FC + static_cast<size_t>(Dst) * NL;
    RW[Dst] = NextInstance;
  }
  const uint64_t *Inst = CurInstance.data();
  Time *LM = LevelMaxTimes.data();
  for (unsigned Slot = 0; Slot < Slots; ++Slot) {
    uint64_t Id = Inst[Slot];
    Time T = Cd[Slot];
    Time Ta = Id <= WA ? TA[Slot] : 0;
    T = Ta > T ? Ta : T;
    Time Tb = Id <= WB ? TB[Slot] : 0;
    T = Tb > T ? Tb : T;
    T += Lat;
    if (TDst)
      TDst[Slot] = T;
    LM[Slot] = T > LM[Slot] ? T : LM[Slot];
  }
}

void KremlinRuntime::onSegment(const SegmentSummary &S) {
  addWork(S.Work);
  Stats.DynInstructions += S.NumOps;
  ++Stats.SegmentEvents;
  Stats.SegmentOps += S.NumOps;
  if (LiveFrames == 0)
    return;
  const unsigned NL = Cfg.NumLevels;
  const unsigned Slots = SlotsActive;
  Time *FC = FrameCells;
  uint64_t *RW = FrameRowW;

  // Snapshot the inputs through their watermarks first: live-out rows may
  // alias inputs, exactly like onOp's Dst aliasing A or B. Src[0] is the
  // control dependence, Src[1..] the snapshots.
  const uint64_t *Inst = CurInstance.data();
  const size_t NumIn = S.Inputs.size();
  const Time *Src[MaxSegmentSources];
  Src[0] = CdNow;
  for (size_t I = 0; I < NumIn; ++I) {
    const uint64_t W = RW[S.Inputs[I]];
    const Time *Row = FC + static_cast<size_t>(S.Inputs[I]) * NL;
    Time *In = SegmentInputs.data() + I * NL;
    for (unsigned Slot = 0; Slot < Slots; ++Slot)
      In[Slot] = Inst[Slot] <= W ? Row[Slot] : 0;
    Src[I + 1] = In;
  }
  for (ValueId R : S.ZeroRows)
    RW[R] = 0;

  Time *LM = LevelMaxTimes.data();
  const SegmentTerm *Terms = S.Terms.data();
  for (const SegmentRow &Row : S.Rows) {
    RW[Row.Reg] = NextInstance;
    evalMaxPlus(Row.E, Terms, Src, FC + static_cast<size_t>(Row.Reg) * NL,
                LM, Slots);
  }
  if (S.LevelMax.K != 0 || S.LevelMax.Begin != S.LevelMax.End)
    evalMaxPlus(S.LevelMax, Terms, Src, nullptr, LM, Slots);
}

void KremlinRuntime::onLoad(ValueId Dst, ValueId AddrReg, uint64_t Addr) {
  unsigned Lat = LatOf[static_cast<size_t>(Opcode::Load)];
  addWork(Lat);
  ++Stats.DynInstructions;
  ++Stats.Loads;
  const unsigned Slots = SlotsActive;
  if (Slots == 0)
    return;
  const unsigned NL = Cfg.NumLevels;
  Time *FC = FrameCells;
  // One page-table lookup shadows the word for every level (level Slot's
  // cell is Slot * Stride cells on); the per-slot tally matches the
  // per-slot read() calls of the pre-paging runtime.
  Memory.noteReads(Slots);
  const ShadowCell *MC = Memory.wordCells(Addr);
  const uint64_t Stride = Memory.levelStride();
  const Time *Cd = CdNow;
  uint64_t *RW = FrameRowW;
  const uint64_t WAddr = RW[AddrReg];
  const Time *TAddr = FC + static_cast<size_t>(AddrReg) * NL;
  Time *TDst = FC + static_cast<size_t>(Dst) * NL;
  RW[Dst] = NextInstance;
  const uint64_t *Inst = CurInstance.data();
  Time *LM = LevelMaxTimes.data();
  for (unsigned Slot = 0; Slot < Slots; ++Slot) {
    uint64_t Id = Inst[Slot];
    Time T = Cd[Slot];
    Time Ta = Id <= WAddr ? TAddr[Slot] : 0;
    T = Ta > T ? Ta : T;
    if (MC && MC[Slot * Stride].Tag == Id && MC[Slot * Stride].T > T)
      T = MC[Slot * Stride].T;
    T += Lat;
    TDst[Slot] = T;
    LM[Slot] = T > LM[Slot] ? T : LM[Slot];
  }
}

void KremlinRuntime::onStore(ValueId ValReg, ValueId AddrReg, uint64_t Addr) {
  unsigned Lat = LatOf[static_cast<size_t>(Opcode::Store)];
  addWork(Lat);
  ++Stats.DynInstructions;
  ++Stats.Stores;
  const unsigned Slots = SlotsActive;
  if (Slots == 0)
    return;
  const unsigned NL = Cfg.NumLevels;
  Time *FC = FrameCells;
  Memory.noteWrites(Slots);
  // Allocate the page once for all slots; nullptr (budget trip / injected
  // fault) drops the shadow writes exactly like per-slot write() did.
  ShadowCell *MC = Memory.wordCellsForWrite(Addr);
  const uint64_t Stride = Memory.levelStride();
  const Time *Cd = CdNow;
  const uint64_t *RW = FrameRowW;
  const uint64_t WVal = RW[ValReg];
  const Time *TVal = FC + static_cast<size_t>(ValReg) * NL;
  const uint64_t WAddr = RW[AddrReg];
  const Time *TAddr = FC + static_cast<size_t>(AddrReg) * NL;
  const uint64_t *Inst = CurInstance.data();
  Time *LM = LevelMaxTimes.data();
  for (unsigned Slot = 0; Slot < Slots; ++Slot) {
    uint64_t Id = Inst[Slot];
    Time T = Cd[Slot];
    Time Tv = Id <= WVal ? TVal[Slot] : 0;
    T = Tv > T ? Tv : T;
    Time Ta = Id <= WAddr ? TAddr[Slot] : 0;
    T = Ta > T ? Ta : T;
    T += Lat;
    // True (flow) dependences only: the previous time at this address is
    // deliberately ignored — anti and output dependences are false
    // dependences that an ideal parallelization removes (§4.1).
    if (MC)
      MC[Slot * Stride] = ShadowCell{Id, T};
    LM[Slot] = T > LM[Slot] ? T : LM[Slot];
  }
}

#if defined(__GNUC__) || defined(__clang__)
// The batch loop is the profiled execution's hot spine: inline every hook
// into it so the per-event cost is the switch dispatch plus the (cached)
// hook body, with no call overhead.
__attribute__((flatten))
#endif
void KremlinRuntime::consumeBatch(const ProfEvent *Ev, size_t N) {
  for (size_t I = 0; I < N; ++I) {
    const ProfEvent &E = Ev[I];
    Stats.InstEvents += E.Kind <= static_cast<uint8_t>(EvKind::CondBranch);
    switch (static_cast<EvKind>(E.Kind)) {
    case EvKind::Op:
      onOp(static_cast<Opcode>(E.Opc), E.A, E.B, E.C, (E.Flags & 1) != 0);
      break;
    case EvKind::Load:
      onLoad(E.A, E.B, E.Addr);
      break;
    case EvKind::Store:
      onStore(E.A, E.B, E.Addr);
      break;
    case EvKind::CondBranch:
      onCondBranch(E.A, E.B, E.C);
      break;
    case EvKind::BlockEntry:
      popControlDepsAtBlock(E.A);
      break;
    case EvKind::RegionEnter:
      enterRegion(E.A);
      break;
    case EvKind::RegionExit:
      exitRegion(E.A);
      break;
    case EvKind::PushFrame:
      pushFrame(E.A);
      break;
    case EvKind::PopFrame:
      popFrame();
      break;
    case EvKind::CopyParam:
      copyParamFromCaller(E.A, E.B);
      break;
    case EvKind::CopyReturn:
      copyReturnToCaller(E.A, E.B);
      break;
    case EvKind::ReleaseRange:
      Memory.releaseRange(E.Addr, E.words());
      break;
    case EvKind::Segment:
      onSegment(*static_cast<const SegmentSummary *>(E.object()));
      break;
    }
  }
}

//===- interp/Tape.h - Pre-decoded flat execution tape ----------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pre-decoded execution format the fast interpreter dispatches over.
/// Lowering the IR once per module buys the hot loop three things:
///
///  * dense 32-byte instructions in one flat array per function (the IR's
///    Instruction is 100+ bytes with an embedded vector, scattered across
///    per-block vectors);
///  * operands resolved at decode time — global addresses become absolute
///    immediates, frame-array bases become frame offsets, branch targets
///    become tape indices, call arguments live in a shared pool;
///  * superinstruction fusion for the two idioms that dominate the paper
///    suite: compare-branch (loop exits and if tests) and load-op-store
///    (read-modify-write of an array cell). Fused instructions execute and
///    emit profiling events exactly as their components would — only the
///    dispatches are saved — so profiles stay bit-identical;
///  * compound profiling events (profiled tapes only): each straight-line
///    run of register operations is folded into one SegmentSummary
///    (rt/Segment.h) under the runtime's latency table. The run's first
///    emitting op emits it as one Segment event and the others emit
///    nothing; every op still executes and counts its step. Entering a
///    block no branch merges into or sits in emits no BlockEntry event.
///
/// Tape opcodes reuse the IR Opcode numbering and append the fused forms,
/// so a computed-goto jump table indexes directly on TapeInst::Op.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_INTERP_TAPE_H
#define KREMLIN_INTERP_TAPE_H

#include "ir/Module.h"
#include "rt/Segment.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace kremlin {

/// Tape opcode space: IR opcodes by value, then the superinstructions.
enum : uint8_t {
  TapeCmpBr = static_cast<uint8_t>(Opcode::RegionExit) + 1,
  TapeLoadOpStore,
  TapeHalt, ///< Unterminated block (unverified IR): structured error.
  TapeNumOps
};

/// TapeInst::Flags bits.
enum : uint8_t {
  BreakDepFlag = 1,    ///< Induction/reduction update: ignore the A dep.
  NoEmitFlag = 2,      ///< Profiling event elided (see class comment).
  SegHeadFlag = 4,     ///< Emits its run's Segment event (X = its index).
  SegMemberFlag = 8,   ///< Covered by its run's Segment event: no event.
  BlockEntryFlag = 16, ///< Br: the target block may pop control deps.
};

/// Side table for conditional branches: everything the profiler needs that
/// does not fit the dense TapeInst.
struct CondBrInfo {
  uint32_t Merge = UINT32_MAX;     ///< Immediate post-dominator block.
  uint32_t PushBlock = UINT32_MAX; ///< Block containing the branch.
  uint32_t TrueBlock = 0;          ///< Taken successor (block id).
  uint32_t FalseBlock = 0;         ///< Fall-through successor (block id).
  /// The successor may pop control deps: its entry emits BlockEntry.
  bool TrueEntry = true;
  bool FalseEntry = true;
};

/// One pre-decoded instruction. Field use by opcode:
///   ConstInt/ConstFloat: Dst, Imm (value bits)
///   GlobalAddr: Dst, Imm (absolute word address)
///   FrameAddr: Dst, Imm (offset from the frame base)
///
/// Flags bit 1 (NoEmitFlag) marks a zero-latency const-class op whose
/// profiling event is elided: when its register has exactly one static
/// writer and is not a parameter, the row only ever holds "available at
/// time 0", which is indistinguishable from the zero-initialized frame row
/// (a tag mismatch reads as time 0), so the runtime's row write is a no-op
/// and only the instruction count remains — reported in bulk via
/// KremlinRuntime::noteFreeOps.
/// Register ops (ConstInt..PtrAdd) may also carry SegHeadFlag (X = index
/// into TapeFunction::Segments) or SegMemberFlag; a Br ending a folded run
/// carries SegMemberFlag.
///   unary/binary/Move/PtrAdd: Dst, A, B; Flags bit 0 = BreakDepA
///   Load: Dst, A (addr reg), X (line)     Store: A (addr), B (val), X (line)
///   RegionEnter/Exit: Imm (region id)
///   Call: Dst (or NoValue), Imm (callee), X (arg-pool offset), Y (#args)
///   Ret: A (value or NoValue)
///   Br: X (target tape index), Y (target block id)
///   CondBr: A (cond), X/Y (true/false tape index), Imm (CondBrInfo index)
///   TapeCmpBr: SubOp (compare opcode), Dst, A, B, Flags; X/Y/Imm as CondBr
///   TapeLoadOpStore: SubOp (binop opcode), A (addr reg), Dst (load result),
///     B (other operand), X (op result reg), Flags; Y (load line),
///     Imm (store line)
struct TapeInst {
  uint8_t Op = 0;
  uint8_t SubOp = 0;
  uint8_t Flags = 0;
  uint8_t Pad = 0;
  uint32_t Dst = NoValue;
  uint32_t A = NoValue;
  uint32_t B = NoValue;
  uint32_t X = 0;
  uint32_t Y = 0;
  uint64_t Imm = 0;
};

static_assert(sizeof(TapeInst) == 32, "keep tape instructions dense");

/// One function lowered to tape form.
struct TapeFunction {
  std::vector<TapeInst> Code;
  std::vector<CondBrInfo> Branches;
  std::vector<uint32_t> ArgPool; ///< Call argument registers, by (X, Y).
  const Function *Src = nullptr; ///< For names/lines in error messages.
  uint32_t NumValues = 0;
  uint64_t FrameWords = 0;
  /// Compound events of the function's folded runs (profiled tapes).
  std::vector<SegmentSummary> Segments;
  /// Fusion tallies (decode-time statistics, asserted on by tests).
  unsigned FusedCmpBr = 0;
  unsigned FusedLoadOpStore = 0;
};

/// The whole module in tape form; immutable once built.
struct ModuleTape {
  /// \p GlobalBase gives each global's absolute word address, resolved into
  /// GlobalAddr immediates at decode time. With \p Lat (the profiling
  /// runtime's latencies) the tape also folds register runs into
  /// segments; without it, it emits one event per op.
  ModuleTape(const Module &M, const std::vector<uint64_t> &GlobalBase,
             const LatencyTable *Lat = nullptr);

  std::vector<TapeFunction> Funcs;
  /// The latencies the segments were built for.
  std::optional<LatencyTable> Latency;
};

} // namespace kremlin

#endif // KREMLIN_INTERP_TAPE_H

//===- rt/ProfEvent.h - Batched profiling event stream ----------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The narrow interface between event-stream generation (the interpreter, or
/// any future frontend replaying a real execution) and HCPA consumption
/// (KremlinRuntime). The producer appends fixed-size ProfEvent records to a
/// buffer and hands full batches to KremlinRuntime::consumeBatch(); events
/// are consumed strictly in order, so a batched stream produces bit-identical
/// profiles to the equivalent sequence of direct hook calls.
///
/// Nothing in the stream flows back to the producer: every hook is
/// fire-and-forget, and the only feedback channel is the coarse
/// KremlinRuntime::failed() guardrail poll after a flush. This is what lets
/// the interpreter's dispatch loop run without touching runtime state.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_RT_PROFEVENT_H
#define KREMLIN_RT_PROFEVENT_H

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace kremlin {

/// Discriminator for ProfEvent. Each kind maps 1:1 onto one KremlinRuntime
/// hook; see consumeBatch() for the exact dispatch. The kinds that carry
/// one instruction each come first (KremlinRuntime counts them by range).
enum class EvKind : uint8_t {
  Op,           ///< onOp(Op, A=Dst, B=SrcA, C=SrcB, Flags&1=BreakDepA)
  Load,         ///< onLoad(A=Dst, B=AddrReg, Addr)
  Store,        ///< onStore(A=ValReg, B=AddrReg, Addr)
  CondBranch,   ///< onCondBranch(A=CondReg, B=MergeBlock, C=PushBlock)
  BlockEntry,   ///< popControlDepsAtBlock(A=Block)
  RegionEnter,  ///< enterRegion(A=RegionId)
  RegionExit,   ///< exitRegion(A=RegionId)
  PushFrame,    ///< pushFrame(A=NumRegs)
  PopFrame,     ///< popFrame()
  CopyParam,    ///< copyParamFromCaller(A=DstParam, B=SrcArgInCaller)
  CopyReturn,   ///< copyReturnToCaller(A=DstInCaller, B=SrcInCallee)
  ReleaseRange, ///< releaseShadowRange(Addr, Words=B | C<<32)
  Segment,      ///< onSegment(*(const SegmentSummary *)object())
};

/// One profiling event. 24 bytes, trivially copyable; field use per kind is
/// documented on EvKind. Opc carries the IR opcode for EvKind::Op.
struct ProfEvent {
  uint8_t Kind = 0;
  uint8_t Opc = 0;
  uint8_t Flags = 0;
  uint8_t Pad = 0;
  uint32_t A = 0;
  uint32_t B = 0;
  uint32_t C = 0;
  uint64_t Addr = 0;

  uint64_t words() const { return uint64_t(B) | (uint64_t(C) << 32); }

  /// The object a Segment event points at, carried in Addr's bytes.
  const void *object() const {
    const void *P = nullptr;
    std::memcpy(&P, &Addr, sizeof P);
    return P;
  }
  void setObject(const void *P) {
    Addr = 0;
    std::memcpy(&Addr, &P, sizeof P);
  }
};

static_assert(sizeof(const void *) <= sizeof(uint64_t),
              "Addr must hold a pointer");

static_assert(sizeof(ProfEvent) == 24, "keep the event record dense");

/// Producer-side batch size: big enough to amortize the flush call, small
/// enough that the buffer (24 KiB) stays L1-resident alongside the
/// interpreter's registers and the runtime's hot shadow rows — each event
/// is written once and read back once, so a cache-busting buffer pays the
/// round trip twice.
inline constexpr size_t ProfEventBatchSize = 1024;

} // namespace kremlin

#endif // KREMLIN_RT_PROFEVENT_H

//===- rt/Segment.h - Compound events for register runs ---------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A segment summary folds a straight-line run of register operations into
/// one compound HCPA event. KremlinRuntime::onOp applies, per level slot,
///
///   T = max(Cd, Ta, Tb) + lat;   row(Dst) := T;   LM := max(LM, T)
///
/// where invalid rows and constants read 0 and BreakDepA drops Ta and Cd.
/// That rule is max-plus affine in its inputs, and inside a run nothing
/// it reads besides register rows can change: the control dependence, the
/// slot tags and NextInstance only move at loads, stores, calls, branches
/// and region events, which end a run. So a run composes, once per latency
/// table, into
///
///   row(r) := max(K_r, max_k V_k + d_rk)           for each live-out r
///   LM     := max(LM, row values, K, max_k V_k + d_k)
///
/// over V_0 = the control dependence and V_k = the run's k-th input row,
/// read through its watermark. KremlinRuntime::onSegment evaluates it per
/// active slot; SegmentBuilder sits next to onOp so the two cannot drift.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_RT_SEGMENT_H
#define KREMLIN_RT_SEGMENT_H

#include "ir/Instruction.h"
#include "rt/Timestamp.h"

#include <cstdint>
#include <span>
#include <vector>

namespace kremlin {

/// Operations that materialize a value with no availability time. onOp
/// resets their row to "reads 0" instead of running the slot loop.
inline bool isConstClassOp(Opcode Op) {
  return Op == Opcode::ConstInt || Op == Opcode::ConstFloat ||
         Op == Opcode::GlobalAddr || Op == Opcode::FrameAddr;
}

/// Most counted (not elided) ops one summary folds; longer runs are split.
/// It bounds a summary's inputs by 2 * MaxSegmentOps.
inline constexpr unsigned MaxSegmentOps = 64;
/// Source 0 is the control dependence, sources 1.. the input rows.
inline constexpr unsigned MaxSegmentSources = 2 * MaxSegmentOps + 1;

/// One register operation of a run, as onOp would receive it.
struct SegmentOp {
  Opcode Op = Opcode::Move;
  ValueId Dst = NoValue;
  ValueId A = NoValue;
  ValueId B = NoValue;
  bool BreakDepA = false;
  /// A const-class op whose event the producer elides and counts as a free
  /// op (KremlinRuntime::noteFreeOps): its register reads 0 in every slot,
  /// and the summary neither counts nor writes it.
  bool Elided = false;
  /// Dst is read after the run, so its last definition here must land in
  /// its row.
  bool LiveOut = false;
};

/// max(V[Src] + Dist) term of a summary expression.
struct SegmentTerm {
  uint32_t Src = 0;
  uint32_t Dist = 0;
};

/// max(K, Terms[Begin, End)).
struct SegmentExpr {
  Time K = 0;
  uint32_t Begin = 0;
  uint32_t End = 0;
};

/// A live-out row the summary writes (watermark NextInstance).
struct SegmentRow {
  ValueId Reg = NoValue;
  SegmentExpr E;
};

/// The compound event of one run. Rows and LevelMax index Terms.
struct SegmentSummary {
  /// Operations folded (the DynInstructions they count).
  uint32_t NumOps = 0;
  /// Sum of their latencies (the work they add).
  uint64_t Work = 0;
  /// Registers read before the run defines them: V[1..].
  std::vector<ValueId> Inputs;
  /// Live-outs whose last definition is a constant: watermark 0.
  std::vector<ValueId> ZeroRows;
  std::vector<SegmentRow> Rows;
  /// What the level max needs beyond the rows' values, which it takes too:
  /// every row value is one of the T the ops fold into LM.
  SegmentExpr LevelMax;
  std::vector<SegmentTerm> Terms;

  /// Reads, maxes and adds per active slot.
  unsigned perSlotTerms() const {
    return static_cast<unsigned>(Inputs.size() + Rows.size() + Terms.size());
  }
};

/// Reads, maxes and adds per active slot the ops cost as one onOp each.
unsigned perOpTerms(std::span<const SegmentOp> Ops);

/// True when \p S is worth emitting instead of \p Ops' own events: at
/// least two counted ops, fewer per-slot terms, and distances that fit.
bool foldsProfitably(const SegmentSummary &S, std::span<const SegmentOp> Ops);

/// Builds summaries under one latency table. Reusable across runs; its
/// scratch lives as long as it does.
class SegmentBuilder {
public:
  /// \p NumRegs sizes the per-register scratch up front (it grows on
  /// demand either way).
  explicit SegmentBuilder(const LatencyTable &Lat, unsigned NumRegs = 0)
      : Lat(Lat), Regs(NumRegs) {}

  /// Folds \p Ops (register operations, at most MaxSegmentOps of them not
  /// elided, and Br, which reads only the control dependence) into one
  /// summary.
  SegmentSummary build(std::span<const SegmentOp> Ops);

private:
  struct Def {
    ValueId Reg;
    unsigned Expr;
    bool Const;
    bool Elided;
    bool LiveOut;
  };
  /// Per register, valid for the build whose generation it carries: its
  /// input index, whether the input scan saw it defined, and its current
  /// definition's index in Defs (UINT32_MAX: none).
  struct RegInfo {
    uint32_t Gen = 0;
    uint32_t Input = UINT32_MAX;
    bool Defined = false;
    uint32_t Def = UINT32_MAX;
  };

  const LatencyTable &Lat;
  std::vector<RegInfo> Regs;
  uint32_t Gen = 0;
  /// Expression E is max(K[E], V[s] + D[E * Width + s]) over the sources s
  /// with a distance >= 0; Width = 1 + Inputs.size().
  std::vector<Time> K;
  std::vector<int64_t> D;
  unsigned Width = 0;
  std::vector<Def> Defs;
  std::vector<ValueId> Inputs;

  RegInfo &info(ValueId Reg);
  int64_t &dist(unsigned E, unsigned Src) {
    return D[static_cast<size_t>(E) * Width + Src];
  }
  int64_t dist(unsigned E, unsigned Src) const {
    return D[static_cast<size_t>(E) * Width + Src];
  }
  void mergeExpr(unsigned Into, unsigned From);
  void mergeOperand(unsigned Into, ValueId Reg);
  void appendTerms(SegmentSummary &S, unsigned E, SegmentExpr &Out) const;
};

} // namespace kremlin

#endif // KREMLIN_RT_SEGMENT_H

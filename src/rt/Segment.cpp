//===- rt/Segment.cpp -----------------------------------------------------===//

#include "rt/Segment.h"

#include <algorithm>
#include <cassert>

using namespace kremlin;

namespace {
/// Distance of a source the expression does not read.
constexpr int64_t Absent = -1;
} // namespace

unsigned kremlin::perOpTerms(std::span<const SegmentOp> Ops) {
  unsigned N = 0;
  for (const SegmentOp &O : Ops) {
    if (O.Elided || isConstClassOp(O.Op))
      continue; // O(1) row reset, no slot loop.
    bool UseA = O.A != NoValue && !O.BreakDepA;
    N += !O.BreakDepA + UseA + (O.B != NoValue) + 1; // Cd, A, B, LM.
  }
  return N;
}

bool kremlin::foldsProfitably(const SegmentSummary &S,
                              std::span<const SegmentOp> Ops) {
  return S.NumOps >= 2 && S.Work <= UINT32_MAX &&
         S.perSlotTerms() < perOpTerms(Ops);
}

SegmentBuilder::RegInfo &SegmentBuilder::info(ValueId Reg) {
  if (Reg >= Regs.size())
    Regs.resize(Reg + 1);
  RegInfo &I = Regs[Reg];
  if (I.Gen != Gen)
    I = {Gen, UINT32_MAX, false, UINT32_MAX};
  return I;
}

void SegmentBuilder::mergeExpr(unsigned Into, unsigned From) {
  K[Into] = std::max(K[Into], K[From]);
  for (unsigned Src = 0; Src < Width; ++Src)
    dist(Into, Src) = std::max(dist(Into, Src), dist(From, Src));
}

void SegmentBuilder::mergeOperand(unsigned Into, ValueId Reg) {
  const RegInfo &I = info(Reg);
  if (I.Def != UINT32_MAX) {
    const Def &Df = Defs[I.Def];
    if (!Df.Const) // A constant reads 0, which every expression dominates.
      mergeExpr(Into, Df.Expr);
    return;
  }
  // Not defined yet in this run: an input row.
  unsigned Src = 1 + I.Input;
  dist(Into, Src) = std::max<int64_t>(dist(Into, Src), 0);
}

void SegmentBuilder::appendTerms(SegmentSummary &S, unsigned E,
                                 SegmentExpr &Out) const {
  Out.K = K[E];
  Out.Begin = static_cast<uint32_t>(S.Terms.size());
  for (unsigned Src = 0; Src < Width; ++Src)
    if (dist(E, Src) != Absent)
      S.Terms.push_back({Src, static_cast<uint32_t>(dist(E, Src))});
  Out.End = static_cast<uint32_t>(S.Terms.size());
}

SegmentSummary SegmentBuilder::build(std::span<const SegmentOp> Ops) {
  // The inputs first, so every expression has its final width: the
  // registers some op reads before the run defines them.
  Inputs.clear();
  ++Gen;
  auto noteRead = [&](ValueId Reg) {
    if (Reg == NoValue)
      return;
    RegInfo &I = info(Reg);
    if (!I.Defined && I.Input == UINT32_MAX) {
      I.Input = static_cast<uint32_t>(Inputs.size());
      Inputs.push_back(Reg);
    }
  };
  for (const SegmentOp &O : Ops) {
    if (!O.BreakDepA)
      noteRead(O.A);
    noteRead(O.B);
    if (O.Dst != NoValue)
      info(O.Dst).Defined = true;
  }
  Defs.clear();
  Width = 1 + static_cast<unsigned>(Inputs.size());
  // Expression 0 is the level max; op I's result is expression I + 1.
  K.assign(Ops.size() + 1, 0);
  D.assign((Ops.size() + 1) * Width, Absent);

  SegmentSummary S;
  for (size_t I = 0; I < Ops.size(); ++I) {
    const SegmentOp &O = Ops[I];
    assert((O.Op <= Opcode::PtrAdd || O.Op == Opcode::Br) &&
           "register operations and Br only");
    unsigned L = Lat[static_cast<size_t>(O.Op)];
    bool Const = isConstClassOp(O.Op);
    if (!O.Elided) {
      ++S.NumOps;
      S.Work += L;
    }
    const unsigned E = static_cast<unsigned>(I) + 1;
    if (!Const) {
      // onOp's rule, symbolically: operands resolve before Dst is redefined.
      if (!O.BreakDepA) {
        dist(E, 0) = 0;
        if (O.A != NoValue)
          mergeOperand(E, O.A);
      }
      if (O.B != NoValue)
        mergeOperand(E, O.B);
      K[E] += L;
      for (unsigned Src = 0; Src < Width; ++Src)
        if (dist(E, Src) != Absent)
          dist(E, Src) += L;
      mergeExpr(0, E);
    }
    if (O.Dst == NoValue)
      continue;
    Def New{O.Dst, E, Const, O.Elided, O.LiveOut};
    RegInfo &Info = info(O.Dst);
    if (Info.Def != UINT32_MAX) {
      Defs[Info.Def] = New;
    } else {
      Info.Def = static_cast<uint32_t>(Defs.size());
      Defs.push_back(New);
    }
  }

  for (const Def &Df : Defs) {
    if (!Df.LiveOut || Df.Elided)
      continue; // Dead after the run, or a row the producer never writes.
    if (Df.Const) {
      S.ZeroRows.push_back(Df.Reg);
      continue;
    }
    SegmentRow Row;
    Row.Reg = Df.Reg;
    appendTerms(S, Df.Expr, Row.E);
    S.Rows.push_back(Row);
  }

  // The level max takes every row value; keep only what no row covers. A
  // row term V_s + d' covers V_s + d when d' >= d, and any row covers a
  // constant no larger than one of its distances (all V are >= 0).
  for (const Def &Df : Defs) {
    if (!Df.LiveOut || Df.Elided || Df.Const)
      continue;
    int64_t Floor = static_cast<int64_t>(K[Df.Expr]);
    for (unsigned Src = 0; Src < Width; ++Src) {
      int64_t Row = dist(Df.Expr, Src);
      if (dist(0, Src) != Absent && Row >= dist(0, Src))
        dist(0, Src) = Absent;
      Floor = std::max(Floor, Row);
    }
    if (Floor >= static_cast<int64_t>(K[0]))
      K[0] = 0;
  }
  appendTerms(S, 0, S.LevelMax);
  S.Inputs = Inputs;
  assert(S.NumOps <= MaxSegmentOps && "split longer runs");
  return S;
}

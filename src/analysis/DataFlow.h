//===- analysis/DataFlow.h - Reaching defs and def-use chains ---*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small dataflow framework over the register IR: reaching definitions
/// (classic gen/kill bitvector analysis), def-use chains built on top of
/// them, and loop-carried scalar dependence detection for natural loops.
///
/// These feed the static loop-dependence analyzer (StaticDependence.h),
/// which cross-checks the dynamic self-parallelism numbers HCPA measures:
/// a dependence proven here holds on *every* input, not just the profiled
/// one.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_ANALYSIS_DATAFLOW_H
#define KREMLIN_ANALYSIS_DATAFLOW_H

#include "analysis/Dominators.h"
#include "analysis/Loops.h"
#include "ir/Function.h"

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace kremlin {

/// One static definition of a virtual register.
struct DefSite {
  BlockId BB = NoBlock;
  unsigned Idx = 0; ///< Instruction index within the block.
  ValueId Value = NoValue;
};

/// One static read of a virtual register.
struct UseSite {
  BlockId BB = NoBlock;
  unsigned Idx = 0;
  ValueId Value = NoValue;
};

/// Register operands read by an instruction (the Result is excluded), in
/// operand order with NoValue operands skipped. Covers every opcode:
/// binary/unary operands, Load/Store addresses and values, call arguments,
/// branch conditions, and return values. A view: it allocates nothing and
/// is valid while the instruction is.
class InstructionUses {
public:
  class iterator {
  public:
    iterator(const ValueId *P, const ValueId *End) : P(P), End(End) {
      skip();
    }
    ValueId operator*() const { return *P; }
    iterator &operator++() {
      ++P;
      skip();
      return *this;
    }
    bool operator==(const iterator &O) const { return P == O.P; }

  private:
    void skip() {
      while (P != End && *P == NoValue)
        ++P;
    }
    const ValueId *P, *End;
  };

  explicit InstructionUses(const Instruction &I);
  iterator begin() const { return {data(), data() + N}; }
  iterator end() const { return {data() + N, data() + N}; }

private:
  const ValueId *data() const { return Args ? Args : Fixed; }
  ValueId Fixed[2] = {NoValue, NoValue};
  const ValueId *Args = nullptr; ///< Call arguments, when I is a call.
  size_t N = 0;
};

/// Reaching definitions for one function: for every program point, the set
/// of definitions that may reach it. Definitions are numbered densely; the
/// per-block OUT sets are bitvectors over that numbering, stored as one row
/// of words per block (IN sets are unions of predecessor rows).
class ReachingDefs {
public:
  explicit ReachingDefs(const Function &F);

  /// All definition sites, in (block, index) order.
  const std::vector<DefSite> &defs() const { return Defs; }

  /// Indices into defs() of the definitions in block \p BB: the half-open
  /// range [first, second).
  std::pair<unsigned, unsigned> blockDefs(BlockId BB) const {
    return {BlockDefBegin[BB], BlockDefBegin[BB + 1]};
  }

  /// Indices into defs() of the definitions of \p V, ascending.
  std::span<const unsigned> defsOf(ValueId V) const {
    if (V >= NumValues)
      return {};
    return {ValueDefs.data() + ValueDefBegin[V],
            ValueDefs.data() + ValueDefBegin[V + 1]};
  }

  /// Definition indices reaching the entry of \p BB.
  std::vector<unsigned> reachingIn(BlockId BB) const;

  /// Definition indices reaching the exit of \p BB.
  std::vector<unsigned> reachingOut(BlockId BB) const;

  /// Definitions of \p V reaching the use at instruction \p Idx of \p BB
  /// (block-local definitions upstream of \p Idx kill the incoming set).
  std::vector<unsigned> reachingAtUse(BlockId BB, unsigned Idx,
                                      ValueId V) const;

  /// True when definition \p DefIdx is in the OUT set of \p BB.
  bool defReachesOut(unsigned DefIdx, BlockId BB) const {
    return BB < NumBlocks && DefIdx < Defs.size() &&
           inBit(outRow(BB), DefIdx);
  }

private:
  static bool inBit(const uint64_t *Set, unsigned Bit) {
    return (Set[Bit / 64] >> (Bit % 64)) & 1;
  }
  const uint64_t *outRow(BlockId BB) const { return Out.data() + BB * Words; }
  /// Writes IN[BB], the union of BB's predecessors' OUT rows, to \p Set.
  void unionOfPreds(BlockId BB, uint64_t *Set) const;
  std::vector<unsigned> expand(const uint64_t *Set) const;

  std::vector<DefSite> Defs;
  std::vector<unsigned> BlockDefBegin; ///< Block B's defs start here.
  /// Defs of V: ValueDefs[ValueDefBegin[V], ValueDefBegin[V + 1]).
  std::vector<unsigned> ValueDefBegin, ValueDefs;
  /// Predecessors of B: Preds[PredBegin[B], PredBegin[B + 1]).
  std::vector<unsigned> PredBegin, Preds;
  size_t NumBlocks = 0;
  ValueId NumValues = 0;
  size_t Words = 0;
  std::vector<uint64_t> Out; ///< NumBlocks rows of Words words.
};

/// Def-use chains: for every definition, the uses it may reach.
struct DefUseChains {
  /// Indexed by definition index (ReachingDefs::defs() order).
  std::vector<std::vector<UseSite>> UsesOfDef;
  /// Uses no definition reaches (parameters, reads of undefined locals).
  std::vector<UseSite> UndefinedUses;
};

DefUseChains buildDefUseChains(const Function &F, const ReachingDefs &RD);

/// A scalar dependence carried by a loop's back edge: a use that may read
/// the value an in-loop definition produced in a *previous* iteration.
struct ScalarCarriedDep {
  ValueId Value = NoValue;
  /// Representative in-loop definition feeding the next iteration.
  DefSite Def;
  /// In-loop use that may observe the previous iteration's value.
  UseSite Use;
  /// The dependence occurs on every consecutive iteration pair: both
  /// endpoints execute each iteration and no same-iteration definition
  /// can satisfy the use instead.
  bool Certain = false;
  /// Every carried source is an induction/reduction update, which HCPA's
  /// shadow-memory rule ignores (paper §4.1) and a programmer can break
  /// with privatization or a reduction clause.
  bool Breakable = false;
};

/// Finds the scalar dependences carried by loops, one loop per call. Every
/// per-loop buffer (the value numbering, source and predecessor lists, bit
/// rows) is kept and reused, so once the buffers have grown to the largest
/// loop's size a loop costs no allocations beyond its results.
class CarriedScalarDepFinder {
public:
  /// Dependences carried by \p L's back edges, in body order; valid until
  /// the next call. \p RD must be \p F's reaching definitions and \p DT its
  /// dominator tree (used for the Certain classification).
  const std::vector<ScalarCarriedDep> &find(const Function &F, const Loop &L,
                                            const ReachingDefs &RD,
                                            const DomTree &DT);

private:
  static constexpr uint32_t NoKey = UINT32_MAX;

  /// Dense key of each carried value of the current loop, NoKey otherwise.
  std::vector<uint32_t> KeyOfValue;
  std::vector<unsigned> CarriedDefs;
  std::vector<ValueId> CarriedValues;
  /// Carried sources of key K: SourceList[SourceBegin[K], SourceBegin[K+1]).
  std::vector<uint32_t> SourceBegin, SourceFill;
  std::vector<unsigned> SourceList;
  /// In-loop edges (to, from) between local block numbers, back edges
  /// excluded; the predecessors of local block LB are then
  /// PredList[PredBegin[LB], PredBegin[LB + 1]).
  std::vector<std::pair<uint32_t, uint32_t>> Edges;
  std::vector<uint32_t> PredBegin, PredFill, PredList;
  std::vector<uint64_t> TokenIn, SameIn, Defined, TokenAlive, SameAlive;
  std::vector<unsigned> InLoopDefs;
  std::vector<ScalarCarriedDep> Deps;
};

/// Detects scalar dependences carried by \p L's back edges. \p DT must be
/// the dominator tree of \p F (used for the Certain classification).
std::vector<ScalarCarriedDep>
findLoopCarriedScalarDeps(const Function &F, const Loop &L,
                          const ReachingDefs &RD, const DomTree &DT);

} // namespace kremlin

#endif // KREMLIN_ANALYSIS_DATAFLOW_H

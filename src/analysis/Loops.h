//===- analysis/Loops.h - Natural loop detection ----------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Natural-loop detection and nesting. A back edge T->H (where H dominates
/// T) defines a loop with header H whose body is every block that can reach
/// T without passing through H. Loops sharing a header are merged. Nesting
/// is derived by body-set containment.
///
/// The frontend also emits Loop regions structurally; this analysis is the
/// independent source of truth used by induction-variable detection and by
/// tests that validate the frontend's region markers against the CFG.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_ANALYSIS_LOOPS_H
#define KREMLIN_ANALYSIS_LOOPS_H

#include "analysis/Dominators.h"
#include "ir/Function.h"

#include <span>
#include <vector>

namespace kremlin {

/// One natural loop.
struct Loop {
  BlockId Header = NoBlock;
  /// Blocks with a back edge to the header, sorted. Stored in the owning
  /// LoopInfo.
  std::span<const BlockId> Latches;
  /// All member blocks (header included), sorted. Stored in the owning
  /// LoopInfo.
  std::span<const BlockId> Blocks;
  /// Index of the innermost enclosing loop in LoopInfo::Loops, or -1.
  int Parent = -1;
  /// Nesting depth (outermost loops have depth 1).
  unsigned Depth = 1;

  bool contains(BlockId B) const;
};

/// The loops of one function. Every loop's block and latch lists live in
/// two shared arrays here, so the whole result costs a few allocations
/// however many loops there are; it is movable but not copyable, since the
/// loops point into it.
struct LoopInfo {
  std::vector<Loop> Loops;

  LoopInfo() = default;
  LoopInfo(LoopInfo &&) = default;
  LoopInfo &operator=(LoopInfo &&) = default;
  LoopInfo(const LoopInfo &) = delete;
  LoopInfo &operator=(const LoopInfo &) = delete;

  /// Index of the innermost loop containing \p B, or -1.
  int innermostLoop(BlockId B) const;

private:
  friend LoopInfo computeLoops(const Function &F, const DomTree &DT);
  std::vector<BlockId> BlockStore, LatchStore;
};

/// Detects the natural loops of \p F. \p DT must be the dominator tree of
/// \p F (computeDominators); callers that need it too build it once.
LoopInfo computeLoops(const Function &F, const DomTree &DT);

} // namespace kremlin

#endif // KREMLIN_ANALYSIS_LOOPS_H

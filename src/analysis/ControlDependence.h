//===- analysis/ControlDependence.h - Control dependence --------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static control-dependence analysis (paper §4.1, "Managing Control
/// Dependencies"). Block B is control dependent on branch block A when B
/// post-dominates one of A's successors but does not post-dominate A
/// (Ferrante-Ottenstein-Warren, computed via post-dominance frontiers).
///
/// The HCPA runtime consumes only the per-branch merge block (the branch's
/// immediate post-dominator): a control dependence is pushed when a CondBr
/// executes and popped when control reaches the merge block. The full
/// block-level relation computed here is used by tests to validate that
/// stack discipline against the classic definition.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_ANALYSIS_CONTROLDEPENDENCE_H
#define KREMLIN_ANALYSIS_CONTROLDEPENDENCE_H

#include "analysis/Dominators.h"
#include "ir/Function.h"

#include <vector>

namespace kremlin {

/// Control-dependence information for one function.
struct ControlDependenceInfo {
  /// The sorted branch blocks block B is control dependent on:
  /// Deps[DepBegin[B], DepBegin[B + 1]).
  std::vector<uint32_t> DepBegin;
  std::vector<BlockId> Deps;

  /// MergeBlock[B] = immediate post-dominator of block B (NoBlock when the
  /// virtual exit is the immediate post-dominator).
  std::vector<BlockId> MergeBlock;

  bool isControlDependent(BlockId B, BlockId OnBranch) const;

  /// Number of blocks the result covers.
  size_t numBlocks() const { return MergeBlock.size(); }
};

/// Computes control dependences for \p F.
ControlDependenceInfo computeControlDependence(const Function &F);

} // namespace kremlin

#endif // KREMLIN_ANALYSIS_CONTROLDEPENDENCE_H

//===- rt/Timestamp.h - HCPA time and latency model -------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The availability-time type used by the HCPA runtime, and the per-opcode
/// latency model. Work and critical-path length are both measured in these
/// latency units (paper §4.1: availability time = max over dependences +
/// the operation's latency).
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_RT_TIMESTAMP_H
#define KREMLIN_RT_TIMESTAMP_H

#include "ir/Opcode.h"

#include <array>
#include <cstddef>
#include <cstdint>

namespace kremlin {

/// Region-relative availability time, in latency units.
using Time = uint64_t;

/// Per-opcode latency table. The defaults make work approximate the
/// dynamic instruction count: every real operation costs 1; artifacts of
/// lowering that a compiler would fold away (constants, register moves,
/// address-base materialization, region markers) cost 0.
struct LatencyModel {
  unsigned Arith = 1;    ///< Integer/float arithmetic, compares, logic.
  unsigned Memory = 1;   ///< Load/Store.
  unsigned AddrCalc = 1; ///< PtrAdd (indexing arithmetic).
  unsigned Branch = 1;   ///< Br/CondBr/Ret.
  unsigned CallOp = 1;   ///< Call result materialization.
  unsigned Free = 0;     ///< Constants, moves, base addresses, markers.

  unsigned latencyFor(Opcode Op) const {
    switch (Op) {
    case Opcode::ConstInt:
    case Opcode::ConstFloat:
    case Opcode::Move:
    case Opcode::GlobalAddr:
    case Opcode::FrameAddr:
    case Opcode::RegionEnter:
    case Opcode::RegionExit:
      return Free;
    case Opcode::Load:
    case Opcode::Store:
      return Memory;
    case Opcode::PtrAdd:
      return AddrCalc;
    case Opcode::Br:
    case Opcode::CondBr:
    case Opcode::Ret:
      return Branch;
    case Opcode::Call:
      return CallOp;
    default:
      return Arith;
    }
  }
};

/// Per-opcode latency, flattened from a LatencyModel for the hot paths.
using LatencyTable =
    std::array<unsigned, static_cast<size_t>(Opcode::RegionExit) + 1>;

inline LatencyTable makeLatencyTable(const LatencyModel &M) {
  LatencyTable T{};
  for (size_t Op = 0; Op < T.size(); ++Op)
    T[Op] = M.latencyFor(static_cast<Opcode>(Op));
  return T;
}

} // namespace kremlin

#endif // KREMLIN_RT_TIMESTAMP_H

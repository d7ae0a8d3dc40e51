//===- support/Saturating.h - Saturating counter arithmetic -----*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unsigned 64-bit arithmetic for occurrence counts that saturates at
/// UINT64_MAX instead of wrapping. A count that big is already wrong, but
/// a wrapped one reads as a small plausible number; a pinned maximum is
/// visibly out of range.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_SUPPORT_SATURATING_H
#define KREMLIN_SUPPORT_SATURATING_H

#include <cstdint>

namespace kremlin {

inline uint64_t saturatingAdd(uint64_t A, uint64_t B) {
  return A > UINT64_MAX - B ? UINT64_MAX : A + B;
}

inline uint64_t saturatingMul(uint64_t A, uint64_t B) {
  uint64_t Product;
  return __builtin_mul_overflow(A, B, &Product) ? UINT64_MAX : Product;
}

} // namespace kremlin

#endif // KREMLIN_SUPPORT_SATURATING_H

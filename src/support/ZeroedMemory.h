//===- support/ZeroedMemory.h - Lazily zeroed arrays ------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Large zero-initialized arrays whose untouched pages cost nothing. The
/// interpreter heap reserves 4M words per run and the shadow slabs 1 MiB
/// per page, but a run writes only a small part of either; value-
/// initializing them (std::vector, make_unique<T[]>) would page in and
/// zero every byte up front. ZeroedArray instead maps anonymous memory on
/// POSIX systems, which the kernel zero-fills one page at a time on first
/// write (a never-written page reads as zeros without being backed), and
/// falls back to calloc elsewhere. Nothing here ever memsets.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_SUPPORT_ZEROEDMEMORY_H
#define KREMLIN_SUPPORT_ZEROEDMEMORY_H

#include <cstddef>
#include <type_traits>
#include <utility>

namespace kremlin {

/// Returns \p Bytes of zero-filled memory, paged in lazily on first touch;
/// nullptr for 0 bytes. Throws std::bad_alloc when the system refuses.
void *allocateZeroed(size_t Bytes);
/// Returns memory from allocateZeroed(\p Bytes) to the system.
void freeZeroed(void *P, size_t Bytes);

/// A fixed-size array of \p T that starts all-zero. \p T must be a type for
/// which all-zero bytes are the value-initialized state (integers, or
/// aggregates of them whose default member initializers are zero).
template <typename T> class ZeroedArray {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "ZeroedArray holds plain data only");

public:
  explicit ZeroedArray(size_t N)
      : Data(static_cast<T *>(allocateZeroed(N * sizeof(T)))), N(N) {}
  ~ZeroedArray() { freeZeroed(Data, N * sizeof(T)); }

  /// Movable (a vector of slabs relocates them); the moved-from array is
  /// empty and releases nothing.
  ZeroedArray(ZeroedArray &&O) noexcept
      : Data(std::exchange(O.Data, nullptr)), N(std::exchange(O.N, 0)) {}
  ZeroedArray &operator=(ZeroedArray &&) = delete;

  T *data() { return Data; }
  size_t size() const { return N; }
  T &operator[](size_t I) { return Data[I]; }

private:
  T *Data;
  size_t N;
};

} // namespace kremlin

#endif // KREMLIN_SUPPORT_ZEROEDMEMORY_H

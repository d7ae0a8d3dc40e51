//===- support/ZeroedMemory.cpp -------------------------------------------===//

#include "support/ZeroedMemory.h"

#include <cstdlib>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define KREMLIN_HAVE_MMAP 1
#ifndef MAP_NORESERVE
#define MAP_NORESERVE 0
#endif
#else
#define KREMLIN_HAVE_MMAP 0
#endif

using namespace kremlin;

void *kremlin::allocateZeroed(size_t Bytes) {
  if (Bytes == 0)
    return nullptr;
#if KREMLIN_HAVE_MMAP
  // Private anonymous pages are zero-filled by the kernel on first touch.
  // NORESERVE: the heap reserves far more than a run writes, so don't
  // charge the untouched part against the commit limit.
  void *P = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (P == MAP_FAILED)
    throw std::bad_alloc();
#else
  void *P = std::calloc(1, Bytes);
  if (!P)
    throw std::bad_alloc();
#endif
  return P;
}

void kremlin::freeZeroed(void *P, size_t Bytes) {
  if (!P)
    return;
#if KREMLIN_HAVE_MMAP
  ::munmap(P, Bytes);
#else
  (void)Bytes;
  std::free(P);
#endif
}

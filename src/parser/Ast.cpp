//===- parser/Ast.cpp -----------------------------------------------------===//

#include "parser/Ast.h"

#include <algorithm>
#include <cstdint>
#include <utility>

using namespace kremlin;

AstArena &AstArena::operator=(AstArena &&O) noexcept {
  if (this == &O)
    return *this;
  Chunks = std::move(O.Chunks);
  O.Chunks.clear();
  Cur = std::exchange(O.Cur, nullptr);
  End = std::exchange(O.End, nullptr);
  NextChunkBytes = O.NextChunkBytes;
  return *this;
}

void *AstArena::allocateInNewChunk(size_t Bytes, size_t Align) {
  size_t Size = std::max(NextChunkBytes, Bytes + Align);
  Chunks.emplace_back(new std::byte[Size]);
  Cur = Chunks.back().get();
  End = Cur + Size;
  NextChunkBytes = std::min<size_t>(NextChunkBytes * 2, 1 << 20);
  return allocate(Bytes, Align);
}

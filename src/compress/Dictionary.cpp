//===- compress/Dictionary.cpp --------------------------------------------===//

#include "compress/Dictionary.h"

#include "support/Saturating.h"

#include <functional>

using namespace kremlin;

static inline size_t hashCombine(size_t Seed, size_t V) {
  return Seed ^ (V + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2));
}

size_t DictionaryCompressor::hashOf(const DynRegionSummary &S) {
  size_t H = std::hash<uint64_t>()(S.Static);
  H = hashCombine(H, std::hash<uint64_t>()(S.Work));
  H = hashCombine(H, std::hash<uint64_t>()(S.Cp));
  for (const auto &[C, Freq] : S.Children) {
    H = hashCombine(H, std::hash<uint64_t>()(C));
    H = hashCombine(H, std::hash<uint64_t>()(Freq));
  }
  // The table masks off the low bits: fold the high bits into them.
  H ^= H >> 33;
  H *= 0xff51afd7ed558ccdULL;
  return H ^ (H >> 33);
}

void DictionaryCompressor::growIndex() {
  std::vector<Slot> Old = std::move(Index);
  Index.assign(Old.empty() ? 16 : 2 * Old.size(), Slot());
  size_t Mask = Index.size() - 1;
  for (const Slot &S : Old) {
    if (S.Char == EmptySlot)
      continue;
    size_t I = S.Hash & Mask;
    while (Index[I].Char != EmptySlot)
      I = (I + 1) & Mask;
    Index[I] = S;
  }
}

SummaryChar DictionaryCompressor::intern(DynRegionSummary Summary) {
  ++DynRegions;
  if (2 * (Alphabet.size() + 1) > Index.size())
    growIndex();
  size_t H = hashOf(Summary);
  size_t Mask = Index.size() - 1;
  for (size_t I = H & Mask;; I = (I + 1) & Mask) {
    Slot &S = Index[I];
    if (S.Char == EmptySlot) {
      S.Hash = H;
      S.Char = static_cast<SummaryChar>(Alphabet.size());
      Alphabet.push_back(std::move(Summary));
      return S.Char;
    }
    if (S.Hash == H && Alphabet[S.Char] == Summary) {
      ++Hits;
      return S.Char;
    }
  }
}

bool DictionaryCompressor::addRootExits(SummaryChar Root, uint64_t Count) {
  if (Count == 0)
    return true;
  for (auto &[C, Total] : Roots) {
    if (C == Root) {
      if (Total > UINT64_MAX - Count) {
        Total = UINT64_MAX;
        return false;
      }
      Total += Count;
      return true;
    }
  }
  Roots.emplace_back(Root, Count);
  return true;
}

std::vector<uint64_t> DictionaryCompressor::computeMultiplicities() const {
  std::vector<uint64_t> Mult(Alphabet.size(), 0);
  for (const auto &[Root, Count] : Roots)
    Mult[Root] = saturatingAdd(Mult[Root], Count);
  // Children always have smaller characters than their parents, so one
  // descending pass propagates counts through the whole DAG. Counts
  // saturate like the root totals instead of wrapping.
  for (size_t C = Alphabet.size(); C-- > 0;) {
    if (Mult[C] == 0)
      continue;
    for (const auto &[Child, Freq] : Alphabet[C].Children)
      Mult[Child] = saturatingAdd(Mult[Child], saturatingMul(Mult[C], Freq));
  }
  return Mult;
}

uint64_t DictionaryCompressor::compressedBytes() const {
  uint64_t Bytes = 0;
  for (const DynRegionSummary &S : Alphabet)
    Bytes += RawRecordBytes + S.Children.size() * 2 * sizeof(uint64_t);
  Bytes += Roots.size() * 2 * sizeof(uint64_t);
  return Bytes;
}

double DictionaryCompressor::compressionRatio() const {
  uint64_t Compressed = compressedBytes();
  if (Compressed == 0)
    return 1.0;
  return static_cast<double>(rawTraceBytes()) /
         static_cast<double>(Compressed);
}

//===- tests/AllocationBudgetTest.cpp - static front end heap budget ------===//
//
// Pins how often the static stages (parse, lower, verify, instrument,
// analyze) call the allocator per lowered IR instruction on the paper's
// largest program. Tokens are views, AST nodes come from a per-program
// arena, CFG edges and per-loop sets use reused flat buffers; a change that
// brings back per-token, per-node or per-edge containers multiplies the
// count and fails here.
//
// This binary replaces the global operator new with a counting one, so it
// holds no other tests. Sanitizer builds supply their own allocator and
// skip the check.
//
//===----------------------------------------------------------------------===//

#include "driver/KremlinDriver.h"
#include "suite/PaperSuite.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define KREMLIN_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define KREMLIN_TEST_ASAN 1
#endif
#endif

namespace {
std::atomic<bool> Counting{false};
std::atomic<uint64_t> Allocations{0};
} // namespace

#ifndef KREMLIN_TEST_ASAN
[[gnu::noinline]] void *operator new(std::size_t Size) {
  if (Counting.load(std::memory_order_relaxed))
    Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}
#endif

using namespace kremlin;

namespace {

/// Allocations per lowered instruction the static stages may make: the
/// 0.56 they measured on sp when this bound was set, plus a quarter. The
/// per-token, per-node and per-edge containers they replaced cost 6.6.
constexpr double MaxAllocationsPerInstruction = 0.70;

TEST(AllocationBudget, StaticStagesStayWithinBudget) {
#ifdef KREMLIN_TEST_ASAN
  GTEST_SKIP() << "the sanitizer's allocator replaces the counting one";
#else
  std::string Source = generatePaperBenchmark("sp").Source;
  KremlinDriver Driver;
  // Warm up once so first-use costs (telemetry metric registration and the
  // like) are not charged to the measured run.
  ASSERT_TRUE(Driver.lintSource(Source, "sp.c").succeeded());

  Allocations = 0;
  Counting = true;
  DriverResult R = Driver.lintSource(Source, "sp.c");
  Counting = false;
  ASSERT_TRUE(R.succeeded());

  uint64_t Insts = 0;
  for (const Function &F : R.M->Functions)
    for (const BasicBlock &BB : F.Blocks)
      Insts += BB.Insts.size();
  ASSERT_GT(Insts, 10000u);
  double PerInst = static_cast<double>(Allocations) / Insts;
  EXPECT_LE(PerInst, MaxAllocationsPerInstruction)
      << Allocations << " allocations for " << Insts << " instructions";
  RecordProperty("allocations", std::to_string(Allocations.load()));
  RecordProperty("instructions", std::to_string(Insts));
#endif
}

} // namespace

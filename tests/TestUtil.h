//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the test suite: compile MiniC source, run the full
/// profiling pipeline, and fetch per-region profile entries by name.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_TESTS_TESTUTIL_H
#define KREMLIN_TESTS_TESTUTIL_H

#include "compress/Dictionary.h"
#include "driver/KremlinDriver.h"
#include "instrument/Instrumenter.h"
#include "interp/Interpreter.h"
#include "ir/Verifier.h"
#include "parser/Lower.h"
#include "profile/ParallelismProfile.h"
#include "rt/KremlinRuntime.h"
#include "suite/PaperSuite.h"

#include "gtest/gtest.h"

#include <memory>
#include <string>

namespace kremlin::test {

/// Everything a profiled run produces.
struct ProfiledRun {
  std::unique_ptr<Module> M;
  std::unique_ptr<DictionaryCompressor> Dict;
  std::unique_ptr<ParallelismProfile> Profile;
  ExecResult Exec;
};

/// Compiles \p Source; fails the current test on any error.
inline std::unique_ptr<Module> compileOrDie(const std::string &Source,
                                            const std::string &Name = "t.c") {
  LowerResult LR = compileMiniC(Source, Name);
  for (const std::string &E : LR.Errors)
    ADD_FAILURE() << "compile error: " << E;
  std::vector<std::string> Problems = verifyModule(*LR.M);
  for (const std::string &P : Problems)
    ADD_FAILURE() << "verifier: " << P;
  return std::move(LR.M);
}

/// Compiles, instruments, interprets under the HCPA runtime, and builds the
/// parallelism profile.
inline ProfiledRun profileSource(const std::string &Source,
                                 KremlinConfig Cfg = KremlinConfig(),
                                 InterpConfig ICfg = InterpConfig()) {
  ProfiledRun Run;
  Run.M = compileOrDie(Source);
  InstrumentResult IR = instrumentModule(*Run.M);
  for (const std::string &W : IR.Warnings)
    ADD_FAILURE() << "instrumenter: " << W;
  Run.Dict = std::make_unique<DictionaryCompressor>();
  KremlinRuntime RT(Cfg, *Run.Dict);
  Interpreter Interp(*Run.M, ICfg);
  Run.Exec = Interp.run(&RT);
  EXPECT_TRUE(Run.Exec.Ok) << Run.Exec.Error;
  Run.Profile = std::make_unique<ParallelismProfile>(*Run.M, *Run.Dict);
  return Run;
}

/// Profiles one of the paper's benchmark programs through the full driver
/// pipeline; fails the current test on any pipeline error.
inline DriverResult profilePaperProgram(const std::string &Name) {
  DriverResult R = KremlinDriver().runOnSource(
      generatePaperBenchmark(Name).Source, Name + ".c");
  EXPECT_TRUE(R.succeeded())
      << Name << ": " << (R.Errors.empty() ? "" : R.Errors.front());
  return R;
}

/// Runs a program without instrumentation and returns main's value.
inline int64_t runPlain(const std::string &Source) {
  std::unique_ptr<Module> M = compileOrDie(Source);
  Interpreter Interp(*M);
  ExecResult R = Interp.run();
  EXPECT_TRUE(R.Ok) << R.Error;
  return R.ExitValue;
}

/// Finds the profile entry of the first executed region with \p Kind whose
/// enclosing function is named \p Func; skips \p Skip matches first.
/// Returns nullptr when absent.
inline const RegionProfileEntry *
findRegion(const ProfiledRun &Run, RegionKind Kind, const std::string &Func,
           unsigned Skip = 0) {
  for (const RegionProfileEntry &E : Run.Profile->entries()) {
    const StaticRegion &R = Run.M->Regions[E.Id];
    if (R.Kind != Kind || !E.Executed)
      continue;
    if (Run.M->Functions[R.Func].Name != Func)
      continue;
    if (Skip == 0)
      return &E;
    --Skip;
  }
  return nullptr;
}

} // namespace kremlin::test

#endif // KREMLIN_TESTS_TESTUTIL_H

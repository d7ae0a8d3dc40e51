//===- interp/Interpreter.h - Kremlin IR interpreter ------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes verified Kremlin IR. In profiled mode every executed
/// instruction drives the KremLib runtime hooks — the moral equivalent of
/// running the statically instrumented binary of the paper; in plain mode
/// the same interpreter runs without hooks, providing the baseline for the
/// instrumentation-overhead experiment (§4.4's "about 50x slower than
/// gprof-instrumented code").
///
/// Memory model: one flat word-addressed heap; globals live at the bottom,
/// frame arrays are bump-allocated from a stack arena above them. The heap
/// is lazily zeroed (support/ZeroedMemory.h): a run pays only for the
/// pages it writes, not for the whole reserved arena. All
/// arithmetic is trap-free (x/0 == x%0 == 0), so eager &&/|| evaluation is
/// safe.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_INTERP_INTERPRETER_H
#define KREMLIN_INTERP_INTERPRETER_H

#include "ir/Module.h"
#include "rt/KremlinRuntime.h"
#include "support/Status.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace kremlin {

struct ModuleTape;

/// Interpreter limits.
struct InterpConfig {
  /// Dynamic instruction budget; exceeded => error (runaway guard).
  uint64_t MaxSteps = 4ull << 30;
  /// Words reserved for frame arrays.
  uint64_t StackWords = 1ull << 22;
  /// C++ call-recursion limit (MiniC recursion depth).
  unsigned MaxCallDepth = 4096;
  /// Execute via the pre-decoded tape + threaded dispatch (default). The
  /// switch-based reference engine is kept for differential testing: both
  /// paths must produce bit-identical results and profiles.
  bool UseTape = true;
};

/// Outcome of one execution.
struct ExecResult {
  bool Ok = false;
  std::string Error;
  /// Structured form of Error (classifies resource trips vs. program
  /// misbehavior); Status::ok() iff Ok.
  Status Err;
  /// Value returned by main (0 when main is void).
  int64_t ExitValue = 0;
  /// Dynamically executed instructions (markers included).
  uint64_t DynInstructions = 0;
};

/// Interprets one module. Reusable across runs; each run() uses fresh
/// memory.
class Interpreter {
public:
  explicit Interpreter(const Module &M, InterpConfig Cfg = InterpConfig());
  ~Interpreter();

  /// Runs main(). \p RT may be null (plain mode) or a fresh runtime
  /// (profiled mode). main must take no parameters.
  ExecResult run(KremlinRuntime *RT = nullptr);

private:
  const Module &M;
  InterpConfig Cfg;
  std::vector<uint64_t> GlobalBase; ///< Word address of each global.
  uint64_t GlobalWords = 0;
  /// Pre-decoded execution tape, built lazily on the first tape-mode run
  /// and reused across runs (the module is immutable) until a profiled run
  /// brings a latency table its segments were not built for.
  std::unique_ptr<ModuleTape> Tape;
};

} // namespace kremlin

#endif // KREMLIN_INTERP_INTERPRETER_H

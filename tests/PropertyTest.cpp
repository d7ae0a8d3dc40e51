//===- tests/PropertyTest.cpp - randomized invariant sweeps ---------------===//
//
// Property-style tests: a seeded random MiniC program generator drives the
// whole pipeline, and TEST_P sweeps assert the invariants that must hold
// for every program — profiled semantics match plain semantics, summary
// cp <= work, children's work fits the parent's, self-parallelism >= 1,
// compressed multiplicities are flow-consistent, and OpenMP plans respect
// the one-region-per-path constraint.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/StaticDependence.h"
#include "planner/Personality.h"
#include "planner/RegionTree.h"
#include "support/Prng.h"
#include "support/StringUtils.h"

using namespace kremlin;
using namespace kremlin::test;

namespace {

/// Generates a random structured MiniC program. All loops have fixed
/// bounds and all indices are reduced modulo the array size, so every
/// generated program terminates and stays in bounds.
class RandomProgram {
public:
  explicit RandomProgram(uint64_t Seed) : Rng(Seed) {
    Src += "int mem[64];\n";
    Src += "int aux[32];\n";
    Src += "int par[16];\n"; // Touched only by generated DOALL loops.
    Src += "int ser[4];\n";  // Touched only by generated serial loops.
    unsigned NumFuncs = 1 + Rng.nextBelow(3);
    for (unsigned F = 0; F < NumFuncs; ++F) {
      std::string Name = formatString("fn%u", F);
      Funcs.push_back(Name);
      Src += "int " + Name + "(int p) {\n";
      Src += "  int v = p + " + formatString("%u", F) + ";\n";
      emitBlock(2, /*Depth=*/0, /*CanCall=*/F); // Call only earlier fns.
      Src += "  return v % 1009;\n}\n";
    }
    Src += "int main() {\n  int v = 1;\n";
    emitBlock(2, 0, NumFuncs);
    Src += "  return v % 1009;\n}\n";
  }

  const std::string &source() const { return Src; }

private:
  Prng Rng;
  std::string Src;
  std::vector<std::string> Funcs;
  unsigned LoopCounter = 0;

  void indent(unsigned Depth) { Src.append(2 * Depth + 2, ' '); }

  void emitStmt(unsigned Depth, unsigned CanCall) {
    switch (Rng.nextBelow(Depth >= 3 ? 4 : 10)) {
    case 0: // Scalar update chain.
      indent(Depth);
      Src += formatString("v = v * %llu + %llu;\n",
                          (unsigned long long)Rng.nextInRange(2, 5),
                          (unsigned long long)Rng.nextInRange(1, 9));
      break;
    case 1: // Memory write; sometimes the read-modify-write shape the
            // tape decoder fuses into a LoadOpStore superinstruction.
      indent(Depth);
      if (Rng.nextBool(0.35)) {
        unsigned long long Cell = Rng.nextBelow(64);
        Src += formatString("mem[%llu] = mem[%llu] %s %llu;\n", Cell, Cell,
                            Rng.nextBool(0.5) ? "+" : "*",
                            (unsigned long long)Rng.nextInRange(1, 9));
      } else {
        Src += formatString("mem[((v %% 64 + 64) + %llu) %% 64] = v + %llu;\n",
                            (unsigned long long)Rng.nextBelow(64),
                            (unsigned long long)Rng.nextBelow(100));
      }
      break;
    case 2: // Memory read.
      indent(Depth);
      Src += formatString("v = v + mem[((v %% 64 + 64) * 7 + %llu) %% 64] %% 13;\n",
                          (unsigned long long)Rng.nextBelow(64));
      break;
    case 7: { // Scalar + reduction over read-only cells.
      unsigned Id = LoopCounter++;
      unsigned Iters = 4 + Rng.nextBelow(13);
      indent(Depth);
      Src += formatString("for (int z%u = 0; z%u < %u; z%u = z%u + 1) {\n",
                          Id, Id, Iters, Id, Id);
      indent(Depth + 1);
      Src += formatString("v = v + par[z%u %% 16] %% 9;\n", Id);
      indent(Depth);
      Src += "}\n";
      break;
    }
    case 8: { // Min/max fold: the if-guarded replacement idiom.
      unsigned Id = LoopCounter++;
      unsigned Iters = 4 + Rng.nextBelow(13);
      const char *Rel = Rng.nextBool(0.5) ? ">" : "<";
      indent(Depth);
      Src += formatString("for (int m%u = 0; m%u < %u; m%u = m%u + 1) {\n",
                          Id, Id, Iters, Id, Id);
      indent(Depth + 1);
      Src += formatString("if (aux[m%u %% 32] %s v) { v = aux[m%u %% 32]; }\n",
                          Id, Rel, Id);
      indent(Depth);
      Src += "}\n";
      break;
    }
    case 3: // Call (only to already-defined functions).
      if (CanCall > 0) {
        indent(Depth);
        Src += formatString("v = v + %s((v %% 50 + 50) %% 50) %% 31;\n",
                            Funcs[Rng.nextBelow(CanCall)].c_str());
      } else {
        indent(Depth);
        Src += "v = v + 1;\n";
      }
      break;
    case 4: { // If/else.
      indent(Depth);
      Src += formatString("if (v %% %llu < %llu) {\n",
                          (unsigned long long)Rng.nextInRange(2, 7),
                          (unsigned long long)Rng.nextInRange(1, 3));
      emitBlock(1 + Rng.nextBelow(2), Depth + 1, CanCall);
      if (Rng.nextBool(0.5)) {
        indent(Depth);
        Src += "} else {\n";
        emitBlock(1, Depth + 1, CanCall);
      }
      indent(Depth);
      Src += "}\n";
      break;
    }
    case 5: { // Counted loop.
      unsigned Id = LoopCounter++;
      unsigned Iters = 2 + Rng.nextBelow(12);
      indent(Depth);
      Src += formatString("for (int i%u = 0; i%u < %u; i%u = i%u + 1) {\n",
                          Id, Id, Iters, Id, Id);
      // Loop bodies may use the loop variable.
      indent(Depth + 1);
      Src += formatString("aux[i%u %% 32] = aux[i%u %% 32] + v %% 17;\n",
                          Id, Id);
      emitBlock(1 + Rng.nextBelow(2), Depth + 1, CanCall);
      indent(Depth);
      Src += "}\n";
      break;
    }
    case 6: { // Provably DOALL loop: distinct par[] cell per iteration.
      unsigned Id = LoopCounter++;
      unsigned Iters = 4 + Rng.nextBelow(13); // <= 16, in bounds of par.
      indent(Depth);
      Src += formatString("for (int d%u = 0; d%u < %u; d%u = d%u + 1) {\n",
                          Id, Id, Iters, Id, Id);
      indent(Depth + 1);
      Src += formatString("par[d%u] = d%u * 3 + %llu;\n", Id, Id,
                          (unsigned long long)Rng.nextBelow(50));
      indent(Depth);
      Src += "}\n";
      break;
    }
    default: { // Provably serial loop: a non-reduction ZIV recurrence.
      unsigned Id = LoopCounter++;
      unsigned Iters = 4 + Rng.nextBelow(9);
      indent(Depth);
      Src += formatString("for (int s%u = 0; s%u < %u; s%u = s%u + 1) {\n",
                          Id, Id, Iters, Id, Id);
      indent(Depth + 1);
      Src += "ser[0] = (ser[0] * 3 + 1) % 1009;\n";
      indent(Depth);
      Src += "}\n";
      break;
    }
    }
  }

  void emitBlock(unsigned Stmts, unsigned Depth, unsigned CanCall) {
    for (unsigned S = 0; S < Stmts; ++S)
      emitStmt(Depth, CanCall);
  }
};

class PipelineProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineProperty, ProfiledSemanticsMatchPlain) {
  RandomProgram P(GetParam());
  SCOPED_TRACE(P.source());
  int64_t Plain = runPlain(P.source());
  ProfiledRun Run = profileSource(P.source());
  EXPECT_EQ(Run.Exec.ExitValue, Plain);
}

TEST_P(PipelineProperty, TapeMatchesReferenceEngine) {
  // The pre-decoded tape (threaded dispatch, superinstruction fusion,
  // const-event elision) is an execution-strategy change only: against the
  // switch-based reference engine it must produce the same exit value, the
  // same dynamic instruction count, and a bit-identical profile — same
  // summary alphabet (static region, work, cp, child multiset), same root
  // string, and same per-region profile metrics.
  RandomProgram P(GetParam());
  SCOPED_TRACE(P.source());
  InterpConfig TapeCfg;
  TapeCfg.UseTape = true;
  InterpConfig RefCfg;
  RefCfg.UseTape = false;
  ProfiledRun A = profileSource(P.source(), KremlinConfig(), TapeCfg);
  ProfiledRun B = profileSource(P.source(), KremlinConfig(), RefCfg);
  EXPECT_EQ(A.Exec.ExitValue, B.Exec.ExitValue);
  EXPECT_EQ(A.Exec.DynInstructions, B.Exec.DynInstructions);
  ASSERT_EQ(A.Dict->alphabet().size(), B.Dict->alphabet().size());
  for (size_t C = 0; C < A.Dict->alphabet().size(); ++C)
    EXPECT_TRUE(A.Dict->alphabet()[C] == B.Dict->alphabet()[C])
        << "summary " << C << " diverges";
  EXPECT_EQ(A.Dict->roots(), B.Dict->roots());
  EXPECT_EQ(A.Dict->numDynamicRegions(), B.Dict->numDynamicRegions());
  ASSERT_EQ(A.Profile->entries().size(), B.Profile->entries().size());
  for (size_t R = 0; R < A.Profile->entries().size(); ++R) {
    const RegionProfileEntry &EA = A.Profile->entries()[R];
    const RegionProfileEntry &EB = B.Profile->entries()[R];
    EXPECT_EQ(EA.Executed, EB.Executed);
    EXPECT_EQ(EA.TotalWork, EB.TotalWork);
    EXPECT_EQ(EA.TotalCp, EB.TotalCp);
    EXPECT_EQ(EA.Instances, EB.Instances);
    EXPECT_EQ(EA.SelfParallelism, EB.SelfParallelism);
    EXPECT_EQ(EA.TotalParallelism, EB.TotalParallelism);
  }
}

/// The tape engine against the reference engine under a clipped depth
/// window: compound segment events run at levels outside the window too,
/// where no slot is active but rows, work and counts still move.
void expectTapeMatchesReference(const std::string &Source,
                                const KremlinConfig &Cfg) {
  InterpConfig TapeCfg;
  TapeCfg.UseTape = true;
  InterpConfig RefCfg;
  RefCfg.UseTape = false;
  ProfiledRun A = profileSource(Source, Cfg, TapeCfg);
  ProfiledRun B = profileSource(Source, Cfg, RefCfg);
  EXPECT_EQ(A.Exec.DynInstructions, B.Exec.DynInstructions);
  ASSERT_EQ(A.Dict->alphabet().size(), B.Dict->alphabet().size());
  for (size_t C = 0; C < A.Dict->alphabet().size(); ++C)
    EXPECT_TRUE(A.Dict->alphabet()[C] == B.Dict->alphabet()[C])
        << "summary " << C << " diverges";
  EXPECT_EQ(A.Dict->roots(), B.Dict->roots());
}

TEST_P(PipelineProperty, TapeMatchesReferenceEngineInShallowWindow) {
  RandomProgram P(GetParam());
  SCOPED_TRACE(P.source());
  KremlinConfig Cfg;
  Cfg.MinLevel = 1;
  Cfg.NumLevels = 2;
  expectTapeMatchesReference(P.source(), Cfg);
}

TEST_P(PipelineProperty, TapeMatchesReferenceEngineInOneLevel) {
  RandomProgram P(GetParam());
  SCOPED_TRACE(P.source());
  KremlinConfig Cfg;
  Cfg.NumLevels = 1;
  expectTapeMatchesReference(P.source(), Cfg);
}

TEST_P(PipelineProperty, SummaryInvariants) {
  RandomProgram P(GetParam());
  ProfiledRun Run = profileSource(P.source());
  const std::vector<DynRegionSummary> &Alpha = Run.Dict->alphabet();
  for (const DynRegionSummary &S : Alpha) {
    EXPECT_LE(S.Cp, S.Work);
    uint64_t ChildWork = 0;
    for (const auto &[C, Freq] : S.Children) {
      EXPECT_LT(C, Alpha.size());
      ChildWork += Alpha[C].Work * Freq;
    }
    EXPECT_LE(ChildWork, S.Work);
    EXPECT_GE(summarySelfParallelism(S, Alpha), 1.0);
  }
}

TEST_P(PipelineProperty, MultiplicityFlowConservation) {
  RandomProgram P(GetParam());
  ProfiledRun Run = profileSource(P.source());
  const std::vector<DynRegionSummary> &Alpha = Run.Dict->alphabet();
  std::vector<uint64_t> Mult = Run.Dict->computeMultiplicities();
  std::vector<uint64_t> FromParents(Alpha.size(), 0);
  for (size_t C = 0; C < Alpha.size(); ++C)
    for (const auto &[Child, Freq] : Alpha[C].Children)
      FromParents[Child] += Freq * Mult[C];
  for (const auto &[RootChar, Count] : Run.Dict->roots())
    FromParents[RootChar] += Count;
  for (size_t C = 0; C < Alpha.size(); ++C)
    EXPECT_EQ(FromParents[C], Mult[C]);
  // Total dynamic regions are preserved by compression.
  uint64_t TotalDyn = 0;
  for (uint64_t M : Mult)
    TotalDyn += M;
  EXPECT_EQ(TotalDyn, Run.Dict->numDynamicRegions());
}

TEST_P(PipelineProperty, ProfileMetricBounds) {
  RandomProgram P(GetParam());
  ProfiledRun Run = profileSource(P.source());
  for (const RegionProfileEntry &E : Run.Profile->entries()) {
    if (!E.Executed)
      continue;
    EXPECT_GE(E.SelfParallelism, 1.0);
    EXPECT_GE(E.TotalParallelism, 1.0);
    EXPECT_GE(E.CoveragePct, 0.0);
    EXPECT_LE(E.CoveragePct, 100.0 + 1e-9);
    EXPECT_LE(E.TotalCp, E.TotalWork);
    EXPECT_GE(E.Instances, 1u);
  }
}

TEST_P(PipelineProperty, OpenMPPlanRespectsPathConstraint) {
  RandomProgram P(GetParam());
  ProfiledRun Run = profileSource(P.source());
  Plan Plan =
      makeOpenMPPersonality()->plan(*Run.Profile, PlannerOptions());
  PlanningTree Tree(*Run.Profile);
  for (const PlanItem &A : Plan.Items) {
    EXPECT_EQ(Run.M->Regions[A.Region].Kind, RegionKind::Loop);
    for (const PlanItem &B : Plan.Items) {
      if (A.Region == B.Region)
        continue;
      for (RegionId R = Tree.parent(A.Region); R != NoRegion;
           R = Tree.parent(R))
        ASSERT_NE(R, B.Region) << "nested selections in plan";
    }
  }
}

TEST_P(PipelineProperty, DepthWindowPreservesWorkTotals) {
  RandomProgram P(GetParam());
  KremlinConfig Narrow;
  Narrow.NumLevels = 2;
  ProfiledRun A = profileSource(P.source());
  ProfiledRun B = profileSource(P.source(), Narrow);
  EXPECT_EQ(A.Profile->programWork(), B.Profile->programWork());
  for (size_t R = 0; R < A.Profile->entries().size(); ++R)
    EXPECT_EQ(A.Profile->entries()[R].TotalWork,
              B.Profile->entries()[R].TotalWork);
}

TEST_P(PipelineProperty, StaticVerdictsConsistentWithMeasurement) {
  // The static analyzer's verdicts are input-independent claims, so they
  // must square with what HCPA measures on the generated input: a
  // provably DOALL loop's self-parallelism tracks its iteration count,
  // and a provably serial loop can never measure highly parallel.
  RandomProgram P(GetParam());
  SCOPED_TRACE(P.source());
  ProfiledRun Run = profileSource(P.source());
  StaticAnalysisResult R = analyzeModuleDependence(*Run.M);
  for (const StaticLoopResult &L : R.Loops) {
    if (L.Region == NoRegion)
      continue;
    const RegionProfileEntry &E = Run.Profile->entry(L.Region);
    if (!E.Executed || E.avgIterations() < 2.0)
      continue;
    if (L.Verdict == LoopVerdict::ProvablyDoall) {
      EXPECT_GE(E.SelfParallelism, 0.7 * E.avgIterations())
          << Run.M->Regions[L.Region].sourceSpan() << ": " << L.Reason;
    } else if (L.Verdict == LoopVerdict::ProvablySerial) {
      EXPECT_LT(E.SelfParallelism, 5.0)
          << Run.M->Regions[L.Region].sourceSpan() << ": " << L.Reason;
    } else if (L.Verdict == LoopVerdict::ProvablyReduction &&
               !L.MinMaxReduction) {
      // HCPA's runtime rule breaks +/* reductions, so a provable
      // reduction must also *measure* parallel. Min/max folds are exempt:
      // the runtime cannot break those, and they legitimately measure
      // serial on every input.
      EXPECT_GE(E.SelfParallelism, 0.7 * E.avgIterations())
          << Run.M->Regions[L.Region].sourceSpan() << ": " << L.Reason;
    }
  }
}

/// A program whose loops each live in their own function with a verdict
/// known by construction: scalar +/* reductions, min/max folds, doall
/// loops calling a pure recursive helper, and plain doall loops —
/// randomly parameterized (op, relation, trip count, constants).
class KnownVerdictProgram {
public:
  struct ExpectedLoop {
    std::string Func;
    LoopVerdict Verdict;
    bool MinMax = false;
  };

  explicit KnownVerdictProgram(uint64_t Seed) {
    Prng Rng(Seed);
    Src += "int data[48];\n";
    Src += "int out[16];\n";
    Src += "int pure3(int x) {"
           " if (x < 1) { return 1; }"
           " return pure3(x - 2) + 1; }\n";
    unsigned NumLoops = 4 + Rng.nextBelow(4);
    std::string MainBody;
    for (unsigned K = 0; K < NumLoops; ++K) {
      std::string Name = formatString("loop%u", K);
      unsigned Kind = Rng.nextBelow(5);
      unsigned Iters = 4 + Rng.nextBelow(12); // <= 15: in bounds of out.
      unsigned long long C = Rng.nextInRange(1, 9);
      Src += "int " + Name + "() {\n";
      switch (Kind) {
      case 0: // sum += data[i] (the accumulator must be a top-level
              // operand of the update for the reduction mark to fire)
        Src += formatString("  int s = %llu;\n"
                            "  for (int i = 0; i < %u; i = i + 1) {"
                            " s = s + data[i]; }\n"
                            "  return s;\n",
                            C, Iters);
        Expected.push_back({Name, LoopVerdict::ProvablyReduction, false});
        break;
      case 1: // prod *= small factor
        Src += formatString("  int p = 1;\n"
                            "  for (int i = 0; i < %u; i = i + 1) {"
                            " p = p * (data[i] %% 3 + 1); }\n"
                            "  return p;\n",
                            Iters);
        Expected.push_back({Name, LoopVerdict::ProvablyReduction, false});
        break;
      case 2: { // min/max fold
        bool Max = Rng.nextBool(0.5);
        Src += formatString("  int b = data[0];\n"
                            "  for (int i = 0; i < %u; i = i + 1) {"
                            " if (data[i] %s b) { b = data[i]; } }\n"
                            "  return b;\n",
                            Iters, Max ? ">" : "<");
        Expected.push_back({Name, LoopVerdict::ProvablyReduction, true});
        break;
      }
      case 3: // doall through a summarized pure recursive callee
        Src += formatString("  for (int i = 0; i < %u; i = i + 1) {"
                            " out[i] = pure3(i %% 7) + %llu; }\n"
                            "  return out[0];\n",
                            Iters, C);
        Expected.push_back({Name, LoopVerdict::ProvablyDoall, false});
        break;
      default: // plain doall
        Src += formatString("  for (int i = 0; i < %u; i = i + 1) {"
                            " out[i] = i * 2 + %llu; }\n"
                            "  return out[0];\n",
                            Iters, C);
        Expected.push_back({Name, LoopVerdict::ProvablyDoall, false});
        break;
      }
      Src += "}\n";
      MainBody += "  acc = acc + " + Name + "() % 501;\n";
    }
    Src += "int main() {\n  int acc = 0;\n";
    Src += "  for (int w = 0; w < 48; w = w + 1) {"
           " data[w] = (w * 13 + 7) % 101; }\n";
    Src += MainBody;
    Src += "  return acc % 1009;\n}\n";
  }

  const std::string &source() const { return Src; }
  const std::vector<ExpectedLoop> &expected() const { return Expected; }

private:
  std::string Src;
  std::vector<ExpectedLoop> Expected;
};

TEST_P(PipelineProperty, KnownVerdictLoopsClassifyAndMeasureConsistently) {
  KnownVerdictProgram P(GetParam());
  SCOPED_TRACE(P.source());
  ProfiledRun Run = profileSource(P.source());
  StaticAnalysisResult R = analyzeModuleDependence(*Run.M);
  for (const KnownVerdictProgram::ExpectedLoop &X : P.expected()) {
    const StaticLoopResult *Found = nullptr;
    for (const StaticLoopResult &L : R.Loops)
      if (L.Func != NoFunc && Run.M->Functions[L.Func].Name == X.Func)
        Found = &L;
    ASSERT_NE(Found, nullptr) << X.Func;
    EXPECT_EQ(Found->Verdict, X.Verdict)
        << X.Func << ": " << Found->Reason;
    EXPECT_EQ(Found->MinMaxReduction, X.MinMax) << X.Func;
    if (Found->Region == NoRegion)
      continue;
    const RegionProfileEntry &E = Run.Profile->entry(Found->Region);
    if (!E.Executed || E.avgIterations() < 2.0)
      continue;
    // Every provable verdict must square with the measured profile
    // (min/max folds exempt: the runtime cannot break them).
    if (X.Verdict == LoopVerdict::ProvablyDoall ||
        (X.Verdict == LoopVerdict::ProvablyReduction && !X.MinMax)) {
      EXPECT_GE(E.SelfParallelism, 0.7 * E.avgIterations())
          << X.Func << ": " << Found->Reason;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Range<uint64_t>(1, 21));

} // namespace

//===- ir/Verifier.cpp ----------------------------------------------------===//

#include "ir/Verifier.h"

#include "support/StringUtils.h"

#include <algorithm>

using namespace kremlin;

namespace {

/// Collects violations while walking one module.
class VerifierImpl {
public:
  explicit VerifierImpl(const Module &M) : M(M) {}

  std::vector<std::string> run() {
    checkRegions();
    for (const Function &F : M.Functions)
      checkFunction(F);
    return std::move(Problems);
  }

private:
  const Module &M;
  std::vector<std::string> Problems;

  /// The instruction checkInstruction() is looking at.
  struct Location {
    const Function *F = nullptr;
    size_t BB = 0;
    size_t Idx = 0;
  } At;

  void problem(std::string Msg) { Problems.push_back(std::move(Msg)); }

  /// Reports \p Msg at the current instruction. The location is formatted
  /// only here, so a clean instruction costs no string work.
  void problemAt(const std::string &Msg) {
    problem(formatString("@%s bb%zu[%zu]", At.F->Name.c_str(), At.BB,
                         At.Idx) +
            Msg);
  }

  void checkRegions() {
    for (const StaticRegion &R : M.Regions) {
      if (R.Func >= M.Functions.size()) {
        problem(formatString("region r%u references bad function %u", R.Id,
                             R.Func));
        continue;
      }
      if (R.Parent != NoRegion) {
        if (R.Parent >= M.Regions.size()) {
          problem(formatString("region r%u has bad parent", R.Id));
          continue;
        }
        const StaticRegion &P = M.Regions[R.Parent];
        if (std::find(P.Children.begin(), P.Children.end(), R.Id) ==
            P.Children.end())
          problem(formatString("region r%u missing from parent r%u children",
                               R.Id, R.Parent));
        if (R.Kind == RegionKind::Body && P.Kind != RegionKind::Loop)
          problem(formatString("body region r%u not nested in a loop", R.Id));
        if (R.Kind == RegionKind::Function)
          problem(formatString("function region r%u has a static parent",
                               R.Id));
      } else if (R.Kind != RegionKind::Function) {
        problem(formatString("non-function region r%u has no parent", R.Id));
      }
      for (RegionId C : R.Children) {
        if (C >= M.Regions.size()) {
          problem(formatString("region r%u has bad child", R.Id));
          continue;
        }
        if (M.Regions[C].Parent != R.Id)
          problem(formatString("child r%u does not point back to r%u", C,
                               R.Id));
      }
    }
  }

  void checkFunction(const Function &F) {
    const std::string &FN = F.Name;
    if (F.Blocks.empty()) {
      problem(formatString("@%s: function has no blocks", FN.c_str()));
      return;
    }
    if (F.NumParams > F.NumValues)
      problem(formatString("@%s: NumParams exceeds NumValues", FN.c_str()));
    if (F.FuncRegion >= M.Regions.size())
      problem(formatString("@%s: bad function region", FN.c_str()));

    for (size_t BB = 0; BB < F.Blocks.size(); ++BB) {
      const BasicBlock &Block = F.Blocks[BB];
      if (Block.Insts.empty()) {
        problem(formatString("@%s bb%zu: empty block", FN.c_str(), BB));
        continue;
      }
      if (!isTerminator(Block.Insts.back().Op))
        problem(formatString("@%s bb%zu: missing terminator", FN.c_str(), BB));
      for (size_t Idx = 0; Idx < Block.Insts.size(); ++Idx) {
        const Instruction &I = Block.Insts[Idx];
        At = {&F, BB, Idx};
        if (isTerminator(I.Op) && Idx + 1 != Block.Insts.size())
          problemAt(": terminator not at end of block");
        checkInstruction(F, I);
      }
    }
  }

  void checkValue(const Function &F, ValueId V, const char *Role) {
    if (V != NoValue && V >= F.NumValues)
      problemAt(formatString(": %s register %%%u out of range (%u)", Role, V,
                             F.NumValues));
  }

  void checkInstruction(const Function &F, const Instruction &I) {
    if (producesValue(I.Op))
      checkValue(F, I.Result, "result");
    if (isBinaryOp(I.Op)) {
      if (I.A == NoValue || I.B == NoValue)
        problemAt(": binary op with missing operand");
      checkValue(F, I.A, "operand");
      checkValue(F, I.B, "operand");
      return;
    }
    if (isUnaryOp(I.Op)) {
      if (I.A == NoValue)
        problemAt(": unary op with missing operand");
      checkValue(F, I.A, "operand");
      return;
    }
    switch (I.Op) {
    case Opcode::ConstInt:
    case Opcode::ConstFloat:
      break;
    case Opcode::GlobalAddr:
      if (I.Aux >= M.Globals.size())
        problemAt(": bad global id");
      break;
    case Opcode::FrameAddr:
      if (I.Aux >= F.FrameArrays.size())
        problemAt(": bad frame array id");
      break;
    case Opcode::Load:
      if (I.A == NoValue)
        problemAt(": load with no address");
      checkValue(F, I.A, "address");
      break;
    case Opcode::Store:
      if (I.A == NoValue || I.B == NoValue)
        problemAt(": store with missing operand");
      checkValue(F, I.A, "address");
      checkValue(F, I.B, "value");
      break;
    case Opcode::Call: {
      if (I.Aux >= M.Functions.size()) {
        problemAt(": bad callee");
        break;
      }
      const Function &Callee = M.Functions[I.Aux];
      if (I.CallArgs.size() != Callee.NumParams)
        problemAt(formatString(": call to @%s with %zu args, expected %u",
                               Callee.Name.c_str(), I.CallArgs.size(),
                               Callee.NumParams));
      for (ValueId Arg : I.CallArgs)
        checkValue(F, Arg, "argument");
      if (Callee.ReturnTy == Type::Void && I.Result != NoValue)
        problemAt(": void call with a result register");
      break;
    }
    case Opcode::Ret:
      if (I.A != NoValue)
        checkValue(F, I.A, "return value");
      if (F.ReturnTy == Type::Void && I.A != NoValue)
        problemAt(": returning a value from a void function");
      if (F.ReturnTy != Type::Void && I.A == NoValue)
        problemAt(": missing return value");
      break;
    case Opcode::Br:
      if (I.Aux >= F.Blocks.size())
        problemAt(": bad branch target");
      break;
    case Opcode::CondBr:
      if (I.A == NoValue)
        problemAt(": condbr with no condition");
      checkValue(F, I.A, "condition");
      if (I.Aux >= F.Blocks.size() || I.Aux2 >= F.Blocks.size())
        problemAt(": bad condbr target");
      if (I.MergeBlock != NoBlock && I.MergeBlock >= F.Blocks.size())
        problemAt(": bad condbr merge block");
      break;
    case Opcode::RegionEnter:
    case Opcode::RegionExit:
      if (I.Aux >= M.Regions.size())
        problemAt(": bad region id");
      else if (M.Regions[I.Aux].Func != F.Id)
        problemAt(": region marker for another function's region");
      break;
    default:
      break;
    }
  }
};

} // namespace

std::vector<std::string> kremlin::verifyModule(const Module &M) {
  return VerifierImpl(M).run();
}

bool kremlin::moduleVerifies(const Module &M) {
  return verifyModule(M).empty();
}

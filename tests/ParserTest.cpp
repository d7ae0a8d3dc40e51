//===- tests/ParserTest.cpp - MiniC parser tests --------------------------===//

#include "parser/Parser.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <string>
#include <vector>

using namespace kremlin;

namespace {

ProgramAst parseOk(const std::string &Src) {
  ParseResult R = parseMiniC(Src, "test.c");
  EXPECT_TRUE(R.succeeded()) << (R.Errors.empty() ? "" : R.Errors[0]);
  return std::move(R.Program);
}

std::vector<std::string> parseErrors(const std::string &Src) {
  return parseMiniC(Src, "test.c").Errors;
}

TEST(Parser, GlobalArrays) {
  ProgramAst P = parseOk("int a[16];\nfloat m[8][4];\n");
  ASSERT_EQ(P.Globals.size(), 2u);
  EXPECT_EQ(P.Globals[0].Name, "a");
  EXPECT_EQ(P.Globals[0].Ty, Type::Int);
  ASSERT_EQ(P.Globals[0].Dims.size(), 1u);
  EXPECT_EQ(P.Globals[0].Dims[0], 16u);
  EXPECT_EQ(P.Globals[1].Ty, Type::Float);
  ASSERT_EQ(P.Globals[1].Dims.size(), 2u);
  EXPECT_EQ(P.Globals[1].Dims[1], 4u);
}

TEST(Parser, FunctionSignatures) {
  ProgramAst P = parseOk(
      "void f() {}\nint g(int x, float y) { return x; }\n"
      "float h(float a[], int m[4][4]) { return a[0]; }\n");
  ASSERT_EQ(P.Functions.size(), 3u);
  EXPECT_EQ(P.Functions[0].ReturnTy, Type::Void);
  EXPECT_EQ(P.Functions[0].Params.size(), 0u);
  EXPECT_EQ(P.Functions[1].Params.size(), 2u);
  EXPECT_EQ(P.Functions[1].Params[1].Ty, Type::Float);
  EXPECT_FALSE(P.Functions[1].Params[0].IsArray);
  const FuncDecl &H = P.Functions[2];
  EXPECT_TRUE(H.Params[0].IsArray);
  ASSERT_EQ(H.Params[0].Dims.size(), 1u);
  EXPECT_EQ(H.Params[0].Dims[0], 0u); // Unknown leading dim.
  ASSERT_EQ(H.Params[1].Dims.size(), 2u);
  EXPECT_EQ(H.Params[1].Dims[0], 4u);
}

TEST(Parser, StatementKinds) {
  ProgramAst P = parseOk(R"(
    int a[4];
    void f() {
      int x = 1;
      float y;
      int b[2][3];
      x = x + 1;
      a[x] = 2;
      if (x < 3) { x = 0; } else x = 1;
      for (int i = 0; i < 4; i = i + 1) a[i] = i;
      while (x > 0) x = x - 1;
      f();
      return;
    }
  )");
  const FuncDecl &F = P.Functions[0];
  ASSERT_EQ(F.Body->Body.size(), 10u);
  using K = Stmt::Kind;
  EXPECT_EQ(F.Body->Body[0]->K, K::DeclScalar);
  EXPECT_EQ(F.Body->Body[1]->K, K::DeclScalar);
  EXPECT_EQ(F.Body->Body[2]->K, K::DeclArray);
  EXPECT_EQ(F.Body->Body[3]->K, K::Assign);
  EXPECT_EQ(F.Body->Body[4]->K, K::Assign);
  EXPECT_EQ(F.Body->Body[5]->K, K::If);
  EXPECT_EQ(F.Body->Body[6]->K, K::For);
  EXPECT_EQ(F.Body->Body[7]->K, K::While);
  EXPECT_EQ(F.Body->Body[8]->K, K::ExprStmt);
  EXPECT_EQ(F.Body->Body[9]->K, K::Return);
}

TEST(Parser, ExpressionPrecedence) {
  // a + b * c parses as a + (b * c).
  ProgramAst P = parseOk("int f(int a, int b, int c) { return a + b * c; }");
  const Expr &E = *P.Functions[0].Body->Body[0]->Value;
  ASSERT_EQ(E.K, Expr::Kind::Binary);
  EXPECT_EQ(E.BinOp, Expr::BinOpKind::Add);
  EXPECT_EQ(E.Args[1]->BinOp, Expr::BinOpKind::Mul);
}

TEST(Parser, ComparisonBindsLooserThanArith) {
  ProgramAst P = parseOk("int f(int a) { return a + 1 < a * 2; }");
  const Expr &E = *P.Functions[0].Body->Body[0]->Value;
  EXPECT_EQ(E.BinOp, Expr::BinOpKind::Lt);
}

TEST(Parser, LogicalOperators) {
  ProgramAst P =
      parseOk("int f(int a, int b) { return a < 1 && b > 2 || !a; }");
  const Expr &E = *P.Functions[0].Body->Body[0]->Value;
  EXPECT_EQ(E.BinOp, Expr::BinOpKind::Or);
  EXPECT_EQ(E.Args[0]->BinOp, Expr::BinOpKind::And);
  EXPECT_EQ(E.Args[1]->K, Expr::Kind::Unary);
}

TEST(Parser, ParenthesesOverridePrecedence) {
  ProgramAst P = parseOk("int f(int a, int b) { return (a + b) * 2; }");
  const Expr &E = *P.Functions[0].Body->Body[0]->Value;
  EXPECT_EQ(E.BinOp, Expr::BinOpKind::Mul);
  EXPECT_EQ(E.Args[0]->BinOp, Expr::BinOpKind::Add);
}

TEST(Parser, MultiDimIndexing) {
  ProgramAst P = parseOk("int m[4][4];\nint f(int i) { return m[i][i+1]; }");
  const Expr &E = *P.Functions[0].Body->Body[0]->Value;
  ASSERT_EQ(E.K, Expr::Kind::Index);
  EXPECT_EQ(E.Args.size(), 2u);
}

TEST(Parser, CallArguments) {
  ProgramAst P = parseOk(
      "int g(int a, int b) { return a; }\n"
      "int f() { return g(1, g(2, 3)); }");
  const Expr &E = *P.Functions[1].Body->Body[0]->Value;
  ASSERT_EQ(E.K, Expr::Kind::Call);
  EXPECT_EQ(E.Args.size(), 2u);
  EXPECT_EQ(E.Args[1]->K, Expr::Kind::Call);
}

TEST(Parser, ForWithoutInitOrStep) {
  ProgramAst P = parseOk("void f() { for (; 1 < 2;) { } }");
  const Stmt &For = *P.Functions[0].Body->Body[0];
  EXPECT_EQ(For.Init, nullptr);
  EXPECT_EQ(For.Step, nullptr);
  EXPECT_NE(For.Cond, nullptr);
}

TEST(Parser, LineNumbersOnLoops) {
  ProgramAst P = parseOk("void f() {\n\n  for (int i = 0; i < 2; i = i + 1)"
                         " {\n    i = i;\n  }\n}");
  EXPECT_EQ(P.Functions[0].Body->Body[0]->Line, 3u);
  EXPECT_EQ(P.Functions[0].Body->Body[0]->EndLine, 5u);
}

/// Appends every name in \p S (declarations, variables, calls, arrays) in
/// source order.
void collectNames(const Expr *E, std::vector<std::string> &Out) {
  if (!E)
    return;
  if (!E->Name.empty())
    Out.emplace_back(E->Name);
  for (const Expr *Arg : E->Args)
    collectNames(Arg, Out);
}

void collectNames(const Stmt *S, std::vector<std::string> &Out) {
  if (!S)
    return;
  if (!S->Name.empty())
    Out.emplace_back(S->Name);
  collectNames(S->Init, Out);
  collectNames(S->Target, Out);
  collectNames(S->Cond, Out);
  collectNames(S->Value, Out);
  collectNames(S->Step, Out);
  collectNames(S->Then, Out);
  collectNames(S->Else, Out);
  for (const Stmt *Inner : S->Body)
    collectNames(Inner, Out);
}

TEST(Parser, AstOutlivesTheSourceBuffer) {
  // Names are views; they must point into the AST's own storage, not into
  // the caller's buffer, which is scribbled over and freed before use.
  ParseResult R;
  {
    std::string Src =
        "int grid[4];\n"
        "float scale(float weights[], int count) {\n"
        "  int acc = 0;\n"
        "  for (int i = 0; i < count; i = i + 1) acc = acc + grid[i];\n"
        "  return weights[0] * acc;\n"
        "}\n"
        "void main() { float v[2]; scale(v, 3); }\n";
    R = parseMiniC(Src, "t.c");
    std::fill(Src.begin(), Src.end(), '#');
  }
  ASSERT_TRUE(R.succeeded()) << R.Errors.front();
  const ProgramAst &P = R.Program;
  ASSERT_EQ(P.Globals.size(), 1u);
  EXPECT_EQ(P.Globals[0].Name, "grid");
  ASSERT_EQ(P.Functions.size(), 2u);
  EXPECT_EQ(P.Functions[0].Name, "scale");
  ASSERT_EQ(P.Functions[0].Params.size(), 2u);
  EXPECT_EQ(P.Functions[0].Params[0].Name, "weights");
  EXPECT_EQ(P.Functions[0].Params[1].Name, "count");
  EXPECT_EQ(P.Functions[1].Name, "main");
  std::vector<std::string> Names;
  for (const FuncDecl &F : P.Functions)
    collectNames(F.Body, Names);
  // Walk order per statement: Init, Target, Cond, Value, Step, Then.
  EXPECT_EQ(Names, (std::vector<std::string>{
                       "acc", "i", "i", "count", "i", "i", "acc", "acc",
                       "grid", "i", "weights", "acc", "v", "scale", "v"}));
}

TEST(Parser, LexErrorsComeFirstAndNameTheFile) {
  std::vector<std::string> E =
      parseErrors("void f() { int x = 1 }\nint y = 99999999999999999999;");
  ASSERT_GE(E.size(), 2u);
  EXPECT_EQ(E[0],
            "test.c:2:9: integer literal '99999999999999999999' is out of range");
  EXPECT_NE(E[1].find("test.c:1:"), std::string::npos);
}

// --- Error cases -----------------------------------------------------------

TEST(Parser, ErrorMissingSemicolon) {
  std::vector<std::string> E = parseErrors("void f() { int x = 1 }");
  ASSERT_FALSE(E.empty());
  EXPECT_NE(E[0].find("';'"), std::string::npos);
}

TEST(Parser, ErrorScalarGlobal) {
  std::vector<std::string> E = parseErrors("int x;");
  ASSERT_FALSE(E.empty());
  EXPECT_NE(E[0].find("must be arrays"), std::string::npos);
}

TEST(Parser, ErrorAssignToExpression) {
  std::vector<std::string> E = parseErrors("void f() { 1 + 2 = 3; }");
  ASSERT_FALSE(E.empty());
  EXPECT_NE(E[0].find("left side"), std::string::npos);
}

TEST(Parser, ErrorBareNonCallExpression) {
  std::vector<std::string> E = parseErrors("void f(int x) { x + 1; }");
  ASSERT_FALSE(E.empty());
  EXPECT_NE(E[0].find("must be a call"), std::string::npos);
}

TEST(Parser, ErrorsIncludePosition) {
  std::vector<std::string> E = parseErrors("void f() {\n  int 5;\n}");
  ASSERT_FALSE(E.empty());
  EXPECT_NE(E[0].find("test.c:2"), std::string::npos);
}

TEST(Parser, RecoversAcrossTopLevels) {
  // The error in f must not hide g.
  ParseResult R = parseMiniC("void f() { !!! }\nvoid g() { }", "t.c");
  EXPECT_FALSE(R.succeeded());
  bool FoundG = false;
  for (const FuncDecl &F : R.Program.Functions)
    FoundG |= F.Name == "g";
  EXPECT_TRUE(FoundG);
}

} // namespace

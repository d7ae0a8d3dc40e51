//===- tests/LexerTest.cpp - MiniC lexer tests ----------------------------===//

#include "parser/Lexer.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

using namespace kremlin;

namespace {

std::vector<Token> lexOk(std::string_view Src) {
  std::vector<std::string> Errors;
  std::vector<Token> Toks = lexSource(Src, Errors);
  EXPECT_TRUE(Errors.empty()) << (Errors.empty() ? "" : Errors[0]);
  return Toks;
}

/// Expected kind, spelling and position of one token.
struct Pin {
  TokKind Kind;
  std::string_view Text;
  unsigned Line, Col;
};

/// Lexes \p Src and checks every token, Eof included, against \p Want.
void expectTokens(std::string_view Src, const std::vector<Pin> &Want,
                  std::vector<std::string> &Errors) {
  std::vector<Token> T = lexSource(Src, Errors);
  ASSERT_EQ(T.size(), Want.size()) << Src;
  for (size_t I = 0; I < Want.size(); ++I) {
    EXPECT_EQ(T[I].Kind, Want[I].Kind) << "token " << I;
    EXPECT_EQ(T[I].Text, Want[I].Text) << "token " << I;
    EXPECT_EQ(T[I].Line, Want[I].Line) << "token " << I;
    EXPECT_EQ(T[I].Col, Want[I].Col) << "token " << I;
  }
}

void expectTokens(std::string_view Src, const std::vector<Pin> &Want) {
  std::vector<std::string> Errors;
  expectTokens(Src, Want, Errors);
  EXPECT_TRUE(Errors.empty()) << Errors.front();
}

TEST(Lexer, KeywordPrefixesAreIdentifiers) {
  expectTokens("iffy int_ returns double",
               {{TokKind::Ident, "iffy", 1, 1},
                {TokKind::Ident, "int_", 1, 6},
                {TokKind::Ident, "returns", 1, 11},
                {TokKind::KwFloat, "double", 1, 19},
                {TokKind::Eof, "", 1, 25}});
}

TEST(Lexer, NumberForms) {
  std::vector<Token> T = lexOk(".5 5. 1e+3 2E-2 007");
  expectTokens(".5 5. 1e+3 2E-2 007", {{TokKind::FloatLit, ".5", 1, 1},
                                       {TokKind::FloatLit, "5.", 1, 4},
                                       {TokKind::FloatLit, "1e+3", 1, 7},
                                       {TokKind::FloatLit, "2E-2", 1, 12},
                                       {TokKind::IntLit, "007", 1, 17},
                                       {TokKind::Eof, "", 1, 20}});
  EXPECT_DOUBLE_EQ(T[0].FloatValue, 0.5);
  EXPECT_DOUBLE_EQ(T[1].FloatValue, 5.0);
  EXPECT_DOUBLE_EQ(T[2].FloatValue, 1000.0);
  EXPECT_DOUBLE_EQ(T[3].FloatValue, 0.02);
  EXPECT_EQ(T[4].IntValue, 7);
}

TEST(Lexer, CommentFormsKeepPositions) {
  expectTokens("a // line comment\nb /* block\n y */ c\n",
               {{TokKind::Ident, "a", 1, 1},
                {TokKind::Ident, "b", 2, 1},
                {TokKind::Ident, "c", 3, 7},
                {TokKind::Eof, "", 4, 1}});
}

TEST(Lexer, OperatorSpellings) {
  expectTokens("x<=y&&!z||w!=1;",
               {{TokKind::Ident, "x", 1, 1},
                {TokKind::LessEq, "<=", 1, 2},
                {TokKind::Ident, "y", 1, 4},
                {TokKind::AndAnd, "&&", 1, 5},
                {TokKind::Not, "!", 1, 7},
                {TokKind::Ident, "z", 1, 8},
                {TokKind::OrOr, "||", 1, 9},
                {TokKind::Ident, "w", 1, 11},
                {TokKind::NotEq, "!=", 1, 12},
                {TokKind::IntLit, "1", 1, 14},
                {TokKind::Semi, ";", 1, 15},
                {TokKind::Eof, "", 1, 16}});
}

TEST(Lexer, StrayAmpersandAndBarAreSkipped) {
  std::vector<std::string> Errors;
  expectTokens("a & b | c",
               {{TokKind::Ident, "a", 1, 1},
                {TokKind::Ident, "b", 1, 5},
                {TokKind::Ident, "c", 1, 9},
                {TokKind::Eof, "", 1, 10}},
               Errors);
  ASSERT_EQ(Errors.size(), 2u);
  EXPECT_EQ(Errors[0],
            "1:3: stray '&' (MiniC has no bitwise ops or address-of)");
  EXPECT_EQ(Errors[1], "1:7: stray '|'");
}

TEST(Lexer, UnterminatedBlockCommentEndsTheStream) {
  std::vector<std::string> Errors;
  expectTokens("x /* open\nmore", {{TokKind::Ident, "x", 1, 1},
                                    {TokKind::Eof, "", 2, 5}},
               Errors);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_EQ(Errors[0], "1:3: unterminated block comment");
}

TEST(Lexer, OutOfRangeLiteralsAreErrors) {
  std::vector<std::string> Errors;
  std::vector<Token> T = lexSource(
      "9223372036854775807 9223372036854775808 1e308 1e999 1e-999", Errors);
  ASSERT_EQ(T.size(), 6u);
  EXPECT_EQ(T[0].IntValue, INT64_MAX);
  EXPECT_DOUBLE_EQ(T[2].FloatValue, 1e308);
  ASSERT_EQ(Errors.size(), 3u);
  EXPECT_EQ(Errors[0],
            "1:21: integer literal '9223372036854775808' is out of range");
  EXPECT_EQ(Errors[1], "1:47: float literal '1e999' is out of range");
  EXPECT_EQ(Errors[2], "1:53: float literal '1e-999' is out of range");
}

TEST(Lexer, Keywords) {
  std::vector<Token> T = lexOk("int float double void if else for while return");
  ASSERT_EQ(T.size(), 10u); // 9 + EOF.
  EXPECT_EQ(T[0].Kind, TokKind::KwInt);
  EXPECT_EQ(T[1].Kind, TokKind::KwFloat);
  EXPECT_EQ(T[2].Kind, TokKind::KwFloat); // double aliases float.
  EXPECT_EQ(T[3].Kind, TokKind::KwVoid);
  EXPECT_EQ(T[4].Kind, TokKind::KwIf);
  EXPECT_EQ(T[5].Kind, TokKind::KwElse);
  EXPECT_EQ(T[6].Kind, TokKind::KwFor);
  EXPECT_EQ(T[7].Kind, TokKind::KwWhile);
  EXPECT_EQ(T[8].Kind, TokKind::KwReturn);
  EXPECT_EQ(T[9].Kind, TokKind::Eof);
}

TEST(Lexer, IdentifiersAndNumbers) {
  std::vector<Token> T = lexOk("foo _bar x1 42 3.5 1e3 2.5e-2");
  EXPECT_EQ(T[0].Kind, TokKind::Ident);
  EXPECT_EQ(T[0].Text, "foo");
  EXPECT_EQ(T[1].Text, "_bar");
  EXPECT_EQ(T[2].Text, "x1");
  EXPECT_EQ(T[3].Kind, TokKind::IntLit);
  EXPECT_EQ(T[3].IntValue, 42);
  EXPECT_EQ(T[4].Kind, TokKind::FloatLit);
  EXPECT_DOUBLE_EQ(T[4].FloatValue, 3.5);
  EXPECT_EQ(T[5].Kind, TokKind::FloatLit);
  EXPECT_DOUBLE_EQ(T[5].FloatValue, 1000.0);
  EXPECT_DOUBLE_EQ(T[6].FloatValue, 0.025);
}

TEST(Lexer, Operators) {
  std::vector<Token> T =
      lexOk("+ - * / % = == != < <= > >= && || ! ( ) { } [ ] , ;");
  TokKind Expected[] = {
      TokKind::Plus,     TokKind::Minus,    TokKind::Star,
      TokKind::Slash,    TokKind::Percent,  TokKind::Assign,
      TokKind::EqEq,     TokKind::NotEq,    TokKind::Less,
      TokKind::LessEq,   TokKind::Greater,  TokKind::GreaterEq,
      TokKind::AndAnd,   TokKind::OrOr,     TokKind::Not,
      TokKind::LParen,   TokKind::RParen,   TokKind::LBrace,
      TokKind::RBrace,   TokKind::LBracket, TokKind::RBracket,
      TokKind::Comma,    TokKind::Semi};
  for (size_t I = 0; I < sizeof(Expected) / sizeof(Expected[0]); ++I)
    EXPECT_EQ(T[I].Kind, Expected[I]) << "token " << I;
}

TEST(Lexer, Comments) {
  std::vector<Token> T = lexOk("a // line comment\nb /* block\n comment */ c");
  ASSERT_EQ(T.size(), 4u);
  EXPECT_EQ(T[0].Text, "a");
  EXPECT_EQ(T[1].Text, "b");
  EXPECT_EQ(T[2].Text, "c");
}

TEST(Lexer, LineAndColumnTracking) {
  std::vector<Token> T = lexOk("a\n  b\nccc d");
  EXPECT_EQ(T[0].Line, 1u);
  EXPECT_EQ(T[0].Col, 1u);
  EXPECT_EQ(T[1].Line, 2u);
  EXPECT_EQ(T[1].Col, 3u);
  EXPECT_EQ(T[2].Line, 3u);
  EXPECT_EQ(T[3].Line, 3u);
  EXPECT_EQ(T[3].Col, 5u);
}

TEST(Lexer, ErrorsReported) {
  std::vector<std::string> Errors;
  lexSource("a & b", Errors);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_NE(Errors[0].find("stray '&'"), std::string::npos);

  Errors.clear();
  lexSource("x @ y # z", Errors);
  EXPECT_EQ(Errors.size(), 2u);

  Errors.clear();
  lexSource("/* never closed", Errors);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_NE(Errors[0].find("unterminated"), std::string::npos);
}

TEST(Lexer, EmptyInput) {
  std::vector<Token> T = lexOk("");
  ASSERT_EQ(T.size(), 1u);
  EXPECT_EQ(T[0].Kind, TokKind::Eof);
}

} // namespace

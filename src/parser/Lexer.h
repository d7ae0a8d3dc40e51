//===- parser/Lexer.h - MiniC tokenizer -------------------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokenizer for MiniC, the C subset Kremlin profiles in this reproduction.
/// Supports identifiers, integer/float literals, the usual operator set,
/// line ('//') and block comments.
///
/// The lexer allocates nothing per token: a Token's Text is a view into the
/// source buffer, and the parser pulls tokens one at a time from a Lexer
/// instead of materializing the whole stream.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_PARSER_LEXER_H
#define KREMLIN_PARSER_LEXER_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace kremlin {

/// Token kinds produced by the MiniC lexer.
enum class TokKind : unsigned char {
  Eof,
  Ident,
  IntLit,
  FloatLit,
  // Keywords.
  KwInt,
  KwFloat,
  KwVoid,
  KwIf,
  KwElse,
  KwFor,
  KwWhile,
  KwReturn,
  // Punctuation and operators.
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Comma,
  Semi,
  Assign,  // =
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  EqEq,
  NotEq,
  Less,
  LessEq,
  Greater,
  GreaterEq,
  AndAnd,
  OrOr,
  Not
};

/// Returns a printable token-kind name for diagnostics.
const char *tokKindName(TokKind Kind);

/// One lexed token with its source position. Text is the token's spelling,
/// a view into the lexed source (empty for Eof); it is valid only as long
/// as that source buffer is.
struct Token {
  TokKind Kind = TokKind::Eof;
  std::string_view Text;
  int64_t IntValue = 0;
  double FloatValue = 0.0;
  unsigned Line = 0;
  unsigned Col = 0;
};

/// Pull lexer over one source buffer. On a lexical error it appends a
/// "line:col: message" line to the error list and skips the offending
/// character; an unterminated block comment ends the stream.
class Lexer {
public:
  Lexer(std::string_view Source, std::vector<std::string> &Errors)
      : Source(Source), Errors(Errors) {}

  /// The next token; Eof (at the end position) once the source is used up,
  /// and on every call after that.
  Token next();

private:
  std::string_view Source;
  std::vector<std::string> &Errors;
  size_t Pos = 0;
  size_t LineStart = 0; ///< Offset of the first byte of the current line.
  unsigned Line = 1;

  unsigned col() const { return static_cast<unsigned>(Pos - LineStart) + 1; }
  char peek(size_t Ahead = 0) const {
    return Pos + Ahead < Source.size() ? Source[Pos + Ahead] : '\0';
  }
  /// Skips whitespace and comments; false after an unterminated comment.
  bool skipTrivia();
  void lexNumber(Token &T);
};

/// Lexes \p Source completely into a token vector ending in Eof.
std::vector<Token> lexSource(std::string_view Source,
                             std::vector<std::string> &Errors);

} // namespace kremlin

#endif // KREMLIN_PARSER_LEXER_H

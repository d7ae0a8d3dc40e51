//===- parser/Lexer.cpp ---------------------------------------------------===//

#include "parser/Lexer.h"

#include "support/StringUtils.h"

#include <charconv>
#include <utility>

using namespace kremlin;

const char *kremlin::tokKindName(TokKind Kind) {
  switch (Kind) {
  case TokKind::Eof:
    return "end of file";
  case TokKind::Ident:
    return "identifier";
  case TokKind::IntLit:
    return "integer literal";
  case TokKind::FloatLit:
    return "float literal";
  case TokKind::KwInt:
    return "'int'";
  case TokKind::KwFloat:
    return "'float'";
  case TokKind::KwVoid:
    return "'void'";
  case TokKind::KwIf:
    return "'if'";
  case TokKind::KwElse:
    return "'else'";
  case TokKind::KwFor:
    return "'for'";
  case TokKind::KwWhile:
    return "'while'";
  case TokKind::KwReturn:
    return "'return'";
  case TokKind::LParen:
    return "'('";
  case TokKind::RParen:
    return "')'";
  case TokKind::LBrace:
    return "'{'";
  case TokKind::RBrace:
    return "'}'";
  case TokKind::LBracket:
    return "'['";
  case TokKind::RBracket:
    return "']'";
  case TokKind::Comma:
    return "','";
  case TokKind::Semi:
    return "';'";
  case TokKind::Assign:
    return "'='";
  case TokKind::Plus:
    return "'+'";
  case TokKind::Minus:
    return "'-'";
  case TokKind::Star:
    return "'*'";
  case TokKind::Slash:
    return "'/'";
  case TokKind::Percent:
    return "'%'";
  case TokKind::EqEq:
    return "'=='";
  case TokKind::NotEq:
    return "'!='";
  case TokKind::Less:
    return "'<'";
  case TokKind::LessEq:
    return "'<='";
  case TokKind::Greater:
    return "'>'";
  case TokKind::GreaterEq:
    return "'>='";
  case TokKind::AndAnd:
    return "'&&'";
  case TokKind::OrOr:
    return "'||'";
  case TokKind::Not:
    return "'!'";
  }
  return "?";
}

namespace {

bool isSpace(char C) {
  return C == ' ' || C == '\t' || C == '\n' || C == '\v' || C == '\f' ||
         C == '\r';
}
bool isDigit(char C) { return C >= '0' && C <= '9'; }
bool isIdentStart(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
}
bool isIdentChar(char C) { return isIdentStart(C) || isDigit(C); }

TokKind keywordKind(std::string_view Word) {
  switch (Word.size()) {
  case 2:
    if (Word == "if")
      return TokKind::KwIf;
    break;
  case 3:
    if (Word == "int")
      return TokKind::KwInt;
    if (Word == "for")
      return TokKind::KwFor;
    break;
  case 4:
    if (Word == "void")
      return TokKind::KwVoid;
    if (Word == "else")
      return TokKind::KwElse;
    break;
  case 5:
    if (Word == "float")
      return TokKind::KwFloat;
    if (Word == "while")
      return TokKind::KwWhile;
    break;
  case 6:
    if (Word == "double")
      return TokKind::KwFloat;
    if (Word == "return")
      return TokKind::KwReturn;
    break;
  default:
    break;
  }
  return TokKind::Ident;
}

/// The token kind of a one- or two-character operator starting at \p C
/// (\p Next is the following character), with its length; Eof when \p C
/// starts no operator.
std::pair<TokKind, unsigned> operatorKind(char C, char Next) {
  auto OrEq = [&](TokKind WithEq, TokKind Alone) {
    return Next == '=' ? std::make_pair(WithEq, 2u) : std::make_pair(Alone, 1u);
  };
  switch (C) {
  case '(':
    return {TokKind::LParen, 1};
  case ')':
    return {TokKind::RParen, 1};
  case '{':
    return {TokKind::LBrace, 1};
  case '}':
    return {TokKind::RBrace, 1};
  case '[':
    return {TokKind::LBracket, 1};
  case ']':
    return {TokKind::RBracket, 1};
  case ',':
    return {TokKind::Comma, 1};
  case ';':
    return {TokKind::Semi, 1};
  case '+':
    return {TokKind::Plus, 1};
  case '-':
    return {TokKind::Minus, 1};
  case '*':
    return {TokKind::Star, 1};
  case '/':
    return {TokKind::Slash, 1};
  case '%':
    return {TokKind::Percent, 1};
  case '=':
    return OrEq(TokKind::EqEq, TokKind::Assign);
  case '!':
    return OrEq(TokKind::NotEq, TokKind::Not);
  case '<':
    return OrEq(TokKind::LessEq, TokKind::Less);
  case '>':
    return OrEq(TokKind::GreaterEq, TokKind::Greater);
  case '&':
    if (Next == '&')
      return {TokKind::AndAnd, 2};
    break;
  case '|':
    if (Next == '|')
      return {TokKind::OrOr, 2};
    break;
  default:
    break;
  }
  return {TokKind::Eof, 0};
}

} // namespace

bool Lexer::skipTrivia() {
  while (Pos < Source.size()) {
    char C = Source[Pos];
    if (C == '\n') {
      ++Line;
      LineStart = ++Pos;
    } else if (isSpace(C)) {
      ++Pos;
    } else if (C == '/' && peek(1) == '/') {
      while (Pos < Source.size() && Source[Pos] != '\n')
        ++Pos;
    } else if (C == '/' && peek(1) == '*') {
      unsigned StartLine = Line, StartCol = col();
      Pos += 2;
      while (Pos < Source.size() && !(Source[Pos] == '*' && peek(1) == '/')) {
        if (Source[Pos] == '\n') {
          ++Line;
          LineStart = Pos + 1;
        }
        ++Pos;
      }
      if (Pos >= Source.size()) {
        Errors.push_back(formatString("%u:%u: unterminated block comment",
                                      StartLine, StartCol));
        return false;
      }
      Pos += 2;
    } else {
      return true;
    }
  }
  return true;
}

void Lexer::lexNumber(Token &T) {
  // digits [. digits] [(e|E) [+|-] digits]; a '.' or exponent makes it a
  // float literal.
  size_t Start = Pos;
  bool IsFloat = false;
  while (isDigit(peek()))
    ++Pos;
  if (peek() == '.') {
    IsFloat = true;
    ++Pos;
    while (isDigit(peek()))
      ++Pos;
  }
  if (peek() == 'e' || peek() == 'E') {
    IsFloat = true;
    ++Pos;
    if (peek() == '+' || peek() == '-')
      ++Pos;
    while (isDigit(peek()))
      ++Pos;
  }
  T.Kind = IsFloat ? TokKind::FloatLit : TokKind::IntLit;
  T.Text = Source.substr(Start, Pos - Start);
  const char *First = T.Text.data(), *Last = First + T.Text.size();
  // A dangling exponent ("1e", "1e+") reads as the mantissa alone.
  std::errc Ec = IsFloat ? std::from_chars(First, Last, T.FloatValue).ec
                         : std::from_chars(First, Last, T.IntValue).ec;
  if (Ec == std::errc::result_out_of_range)
    Errors.push_back(formatString(
        "%u:%u: %s literal '%.*s' is out of range", T.Line, T.Col,
        IsFloat ? "float" : "integer", static_cast<int>(T.Text.size()),
        T.Text.data()));
}

Token Lexer::next() {
  Token T;
  while (true) {
    bool Ok = skipTrivia();
    T.Line = Line;
    T.Col = col();
    if (!Ok) {
      Pos = Source.size(); // An unterminated comment ends the stream.
      return T;
    }
    if (Pos >= Source.size())
      return T;
    char C = Source[Pos];
    if (isIdentStart(C)) {
      size_t Start = Pos;
      while (isIdentChar(peek()))
        ++Pos;
      T.Text = Source.substr(Start, Pos - Start);
      T.Kind = keywordKind(T.Text);
      return T;
    }
    if (isDigit(C) || (C == '.' && isDigit(peek(1)))) {
      lexNumber(T);
      return T;
    }
    auto [Kind, Len] = operatorKind(C, peek(1));
    if (Len > 0) {
      T.Kind = Kind;
      T.Text = Source.substr(Pos, Len);
      Pos += Len;
      return T;
    }
    if (C == '&')
      Errors.push_back(formatString("%u:%u: stray '&' (MiniC has no bitwise "
                                    "ops or address-of)",
                                    T.Line, T.Col));
    else if (C == '|')
      Errors.push_back(formatString("%u:%u: stray '|'", T.Line, T.Col));
    else
      Errors.push_back(formatString("%u:%u: unexpected character '%c'",
                                    T.Line, T.Col, C));
    ++Pos;
  }
}

std::vector<Token> kremlin::lexSource(std::string_view Source,
                                      std::vector<std::string> &Errors) {
  std::vector<Token> Toks;
  Lexer Lex(Source, Errors);
  do
    Toks.push_back(Lex.next());
  while (Toks.back().Kind != TokKind::Eof);
  return Toks;
}

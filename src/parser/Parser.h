//===- parser/Parser.h - MiniC recursive-descent parser ---------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses MiniC source into a ProgramAst. Errors are collected as
/// "file:line:column: message" lines, lexical ones first; parsing continues
/// past recoverable errors so one run reports as many problems as possible.
/// The AST owns a copy of the source, so it outlives the parsed buffer.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_PARSER_PARSER_H
#define KREMLIN_PARSER_PARSER_H

#include "parser/Ast.h"

#include <string>
#include <string_view>
#include <vector>

namespace kremlin {

/// Result of parsing one source buffer.
struct ParseResult {
  ProgramAst Program;
  std::vector<std::string> Errors;

  bool succeeded() const { return Errors.empty(); }
};

/// Parses \p Source (named \p SourceName for diagnostics/region spans).
ParseResult parseMiniC(std::string_view Source, std::string SourceName);

} // namespace kremlin

#endif // KREMLIN_PARSER_PARSER_H

//===- parser/Ast.h - MiniC abstract syntax trees ---------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST node definitions for MiniC. The AST is an intermediate step between
/// the parser and IR lowering; it is deliberately plain (kind tags, no
/// virtual dispatch) and owns all source-position information used to
/// build the static region table.
///
/// Every node, child list, dimension list and name of a ProgramAst lives in
/// its AstArena: nodes link by plain pointers, lists are spans, and names
/// are views into the arena's copy of the source text. Parsing therefore
/// costs a handful of chunk allocations, not one per node, and the AST
/// stays valid after the buffer it was parsed from is gone.
///
/// MiniC restrictions relevant to the HCPA runtime (documented in
/// DESIGN.md): no break/continue/goto (structured control flow keeps the
/// control-dependence stack exact), no pointers or address-of (arrays are
/// storage, not values), logical &&/|| evaluate eagerly (all arithmetic is
/// trap-free, so this is semantics-preserving).
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_PARSER_AST_H
#define KREMLIN_PARSER_AST_H

#include "ir/Type.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace kremlin {

/// Bump allocator for one AST. Chunks grow geometrically and are freed
/// together; objects placed here must be trivially destructible.
class AstArena {
public:
  AstArena() = default;
  AstArena(AstArena &&O) noexcept { *this = std::move(O); }
  AstArena &operator=(AstArena &&O) noexcept;
  AstArena(const AstArena &) = delete;
  AstArena &operator=(const AstArena &) = delete;

  /// A value-initialized \p T.
  template <typename T> T *make() {
    static_assert(std::is_trivially_destructible_v<T>);
    return new (allocate(sizeof(T), alignof(T))) T();
  }

  /// A copy of \p Items that lives as long as the arena.
  template <typename T> std::span<const T> copy(std::span<const T> Items) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (Items.empty())
      return {};
    T *Out = static_cast<T *>(allocate(Items.size_bytes(), alignof(T)));
    std::uninitialized_copy(Items.begin(), Items.end(), Out);
    return {Out, Items.size()};
  }

  /// A copy of \p Text that lives as long as the arena.
  std::string_view copy(std::string_view Text) {
    std::span<const char> Chars = copy(std::span<const char>(Text));
    return {Chars.data(), Chars.size()};
  }

private:
  void *allocate(size_t Bytes, size_t Align) {
    size_t Padding = -reinterpret_cast<uintptr_t>(Cur) & (Align - 1);
    if (Cur && Padding + Bytes <= static_cast<size_t>(End - Cur)) {
      std::byte *P = Cur + Padding;
      Cur = P + Bytes;
      return P;
    }
    return allocateInNewChunk(Bytes, Align);
  }
  void *allocateInNewChunk(size_t Bytes, size_t Align);

  std::vector<std::unique_ptr<std::byte[]>> Chunks;
  std::byte *Cur = nullptr, *End = nullptr;
  size_t NextChunkBytes = 16 * 1024;
};

struct Expr;
struct Stmt;
/// Child lists; the pointed-to nodes and the list itself live in the
/// program's arena.
using ExprList = std::span<const Expr *const>;
using StmtList = std::span<const Stmt *const>;
using DimList = std::span<const uint64_t>;

/// Expression node.
struct Expr {
  enum class Kind : unsigned char {
    IntLit,   ///< IntValue
    FloatLit, ///< FloatValue
    Var,      ///< Name
    Index,    ///< Name[Args[0]][Args[1]]...
    Call,     ///< Name(Args...)
    Unary,    ///< UnOp applied to Args[0]
    Binary    ///< Args[0] BinOp Args[1]
  };
  enum class UnOpKind : unsigned char { Neg, Not };
  enum class BinOpKind : unsigned char {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or
  };

  Kind K = Kind::IntLit;
  UnOpKind UnOp = UnOpKind::Neg;
  BinOpKind BinOp = BinOpKind::Add;
  unsigned Line = 0;
  int64_t IntValue = 0;
  double FloatValue = 0.0;
  std::string_view Name;
  ExprList Args;
};

/// Statement node.
struct Stmt {
  enum class Kind : unsigned char {
    DeclScalar, ///< Ty Name = Init? ;
    DeclArray,  ///< Ty Name[d0][d1]... ;
    Assign,     ///< Target (Var or Index expr) = Value ;
    If,         ///< if (Cond) Then else Else?
    For,        ///< for (Init?; Cond?; Step?) Body
    While,      ///< while (Cond) Body
    Return,     ///< return Value? ;
    ExprStmt,   ///< Value ; (calls)
    Block       ///< { Body... }
  };

  Kind K = Stmt::Kind::Block;
  Type Ty = Type::Int;
  std::string_view Name;
  DimList Dims;

  const Expr *Target = nullptr; ///< Assign: lvalue (Var or Index).
  const Expr *Value = nullptr;  ///< Assign/Return/ExprStmt value; If/While/
                                ///< For condition lives in Cond.
  const Expr *Cond = nullptr;
  const Stmt *Init = nullptr; ///< For: init statement (Assign or DeclScalar).
  const Stmt *Step = nullptr; ///< For: step statement (Assign).
  const Stmt *Then = nullptr;
  const Stmt *Else = nullptr;
  StmtList Body;

  unsigned Line = 0;
  unsigned EndLine = 0;
};

/// One function parameter. Array parameters carry trailing dimensions for
/// index flattening; Dims[0] == 0 means "unknown first dimension" (T a[]).
struct ParamDecl {
  Type Ty = Type::Int;
  std::string_view Name;
  bool IsArray = false;
  DimList Dims;
  unsigned Line = 0;
};

/// One parsed function definition.
struct FuncDecl {
  Type ReturnTy = Type::Void;
  std::string_view Name;
  std::span<const ParamDecl> Params;
  const Stmt *Body = nullptr; ///< Always a Block statement.
  unsigned Line = 0;
  unsigned EndLine = 0;
};

/// One parsed global array declaration.
struct GlobalDecl {
  Type Ty = Type::Int;
  std::string_view Name;
  DimList Dims;
  unsigned Line = 0;
};

/// A whole parsed translation unit.
struct ProgramAst {
  std::string SourceName;
  std::vector<GlobalDecl> Globals;
  std::vector<FuncDecl> Functions;
  /// Owns the nodes, lists and names the declarations point to.
  AstArena Arena;
};

} // namespace kremlin

#endif // KREMLIN_PARSER_AST_H

// ViewCL abstract syntax (paper §2.2's core syntax, extended to cover every
// construct the paper's example programs use: named views with inheritance,
// where-clauses, switch-case, container constructors with forEach closures,
// anchored box constructors (container_of), inline virtual boxes, and the
// Array.selectFrom distill converter).

#ifndef SRC_VIEWCL_AST_H_
#define SRC_VIEWCL_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "src/dbg/expr.h"
#include "src/support/diag.h"

namespace viewcl {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Binding {
  std::string name;
  ExprPtr value;
  int line = 0;
  vl::Span span;  // the bound name
};

struct ItemDecl {
  enum class Kind { kText, kLink, kContainer };
  Kind kind = Kind::kText;
  std::string name;
  std::string decorator;  // raw spec between <>, e.g. "u64:x", "flag:vm"
  ExprPtr value;          // text value / link target / container content
  int line = 0;
  vl::Span span;            // the item name (or first path segment)
  vl::Span decorator_span;  // the spec between <>, when present
};

struct ViewDecl {
  std::string name;          // "default" for the anonymous view
  std::string parent;        // inherited view name; empty if none
  std::vector<ItemDecl> items;
  std::vector<Binding> where;
  vl::Span span;         // the :name token (or the '[' of the anonymous view)
  vl::Span parent_span;  // the inherited :name token, when present
};

struct BoxDecl {
  std::string name;         // "Task"; generated for inline boxes
  std::string kernel_type;  // "task_struct"; empty => virtual box
  std::vector<ViewDecl> views;
  std::vector<Binding> where;  // box-level where, shared by all views
  int line = 0;
  vl::Span span;       // the definition name
  vl::Span type_span;  // the kernel type between <>, when present
};

struct ForEachClause {
  std::string var;
  std::vector<Binding> bindings;
  ExprPtr yield;
};

struct SwitchCase {
  std::vector<ExprPtr> labels;
  ExprPtr body;
};

struct Expr {
  enum class Kind {
    kCExpr,         // ${...}: text, compiled into cexpr
    kAtRef,         // @name: text ("this" included)
    kInt,           // ival
    kNull,          // NULL literal
    kFieldPath,     // bare a.b.c relative to @this: path
    kSwitch,        // scrutinee = kids[0]; cases; otherwise
    kBoxCtor,       // text = box name; anchor; kids[0] = argument
    kContainerCtor, // text = container kind; kids = args; for_each optional
    kSelectFrom,    // kids[0] = source; text = element box name
    kInlineBox,     // inline_box declaration; evaluated as a fresh virtual box
  };

  Kind kind;
  std::string text;
  uint64_t ival = 0;
  std::vector<std::string> path;    // kFieldPath / kBoxCtor anchor path
  std::vector<ExprPtr> kids;
  std::vector<SwitchCase> cases;    // kSwitch
  ExprPtr otherwise;                // kSwitch
  std::unique_ptr<ForEachClause> for_each;  // kContainerCtor
  std::unique_ptr<BoxDecl> inline_box;      // kInlineBox
  std::shared_ptr<const dbg::CExpr> cexpr;  // kCExpr: compiled at parse
  int line = 0;
  vl::Span span;  // the expression's head token
};

inline ExprPtr NewExpr(Expr::Kind kind, int line) {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->line = line;
  return e;
}

inline ExprPtr NewExpr(Expr::Kind kind, vl::Span span) {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->line = span.line;
  e->span = span;
  return e;
}

struct Program {
  std::vector<std::unique_ptr<BoxDecl>> defines;
  std::vector<Binding> bindings;   // top-level name = expr
  std::vector<ExprPtr> plots;      // plot statements, in order
};

}  // namespace viewcl

#endif  // SRC_VIEWCL_AST_H_

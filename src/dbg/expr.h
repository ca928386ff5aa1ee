// The C-expression engine behind ViewCL's ${...} escapes.
//
// Supports the C subset a kernel debugger needs: member access (./->), array
// indexing, pointer arithmetic, casts to registered types, the usual
// unary/binary/ternary operators, enumerator and symbol resolution, and calls
// into registered helper functions (the "GDB scripts exposing static inline
// kernel functions" of §4).
//
// An expression is compiled once into an immutable CExpr: its text is lexed
// and parsed, operators become enums, and NULL/true/false become constants.
// ViewCL compiles every ${...} when its program is parsed and evaluates the
// handle on every refresh. A parse error is kept in the handle and reported
// by each evaluation ("<msg> in '<expr>'"), so a bad expression in a branch
// that never runs costs nothing. `@name` tokens resolve at evaluation through
// a caller's RefLookup — ViewCL's walks its scope chain, which is how @this
// and local variables reach C expressions.

#ifndef SRC_DBG_EXPR_H_
#define SRC_DBG_EXPR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/dbg/read_session.h"
#include "src/dbg/symbols.h"
#include "src/dbg/type.h"
#include "src/dbg/value.h"
#include "src/support/status.h"

namespace dbg {

class EvalContext;

// A helper ("kernel inline function" exposed to the debugger).
using HelperFn = std::function<vl::StatusOr<Value>(EvalContext*, std::vector<Value>&)>;

class HelperRegistry {
 public:
  void Register(std::string_view name, HelperFn fn) { fns_[std::string(name)] = std::move(fn); }
  const HelperFn* Find(std::string_view name) const {
    auto it = fns_.find(name);
    return it != fns_.end() ? &it->second : nullptr;
  }
  size_t size() const { return fns_.size(); }
  // Registered helper names, sorted — the static analyzer's identifier
  // universe for C-expression call heads.
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(fns_.size());
    for (const auto& [name, fn] : fns_) {
      out.push_back(name);
    }
    return out;
  }

 private:
  std::map<std::string, HelperFn, std::less<>> fns_;
};

// Name -> value bindings for @refs (ViewCL scope variables).
using Environment = std::map<std::string, Value, std::less<>>;

// Resolves `@name` during an evaluation without allocating. Find fills *out
// and returns true when the name is bound.
class RefLookup {
 public:
  virtual ~RefLookup() = default;
  virtual bool Find(std::string_view name, Value* out) const = 0;
};

// A RefLookup over an Environment map; a null map binds nothing.
class EnvironmentRefs final : public RefLookup {
 public:
  explicit EnvironmentRefs(const Environment* env) : env_(env) {}
  bool Find(std::string_view name, Value* out) const override;

 private:
  const Environment* env_;
};

// Everything an expression evaluation needs. Reads flow through a
// ReadSession (the block-cached front-end API); code that needs raw,
// per-request-accounted access goes to session()->target() explicitly.
class EvalContext {
 public:
  EvalContext(TypeRegistry* types, ReadSession* session, const SymbolTable* symbols,
              const HelperRegistry* helpers)
      : types_(types), session_(session), symbols_(symbols), helpers_(helpers) {}

  TypeRegistry* types() { return types_; }
  ReadSession* session() { return session_; }
  const SymbolTable* symbols() const { return symbols_; }
  const HelperRegistry* helpers() const { return helpers_; }

 private:
  TypeRegistry* types_;
  ReadSession* session_;
  const SymbolTable* symbols_;
  const HelperRegistry* helpers_;
};

namespace expr_internal {
struct Node;
}  // namespace expr_internal

// A compiled C expression. Immutable once built, so one handle may be
// evaluated any number of times, from any thread.
class CExpr {
 public:
  ~CExpr();

  const std::string& text() const { return text_; }
  // The parse outcome; when it is an error, every Eval reports it.
  const vl::Status& status() const { return status_; }

  // Evaluates against the context; `refs` may be nullptr (no @refs bound).
  vl::StatusOr<Value> Eval(EvalContext* ctx, const RefLookup* refs) const;

 private:
  friend std::shared_ptr<const CExpr> CompileCExpression(std::string_view text);
  explicit CExpr(std::string_view text);

  std::string text_;
  vl::Status status_;
  std::unique_ptr<const expr_internal::Node> root_;
};

// Lexes and parses `text` once. Never fails: a syntax error is stored in the
// handle (see CExpr::status).
std::shared_ptr<const CExpr> CompileCExpression(std::string_view text);

// Compiles and evaluates `expr` in one go (the shell and tests). `env` may be
// nullptr.
vl::StatusOr<Value> EvalCExpression(EvalContext* ctx, std::string_view expr,
                                    const Environment* env);

}  // namespace dbg

#endif  // SRC_DBG_EXPR_H_

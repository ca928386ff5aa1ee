#include "src/viewcl/interp.h"

#include <cassert>
#include <optional>

#include "src/support/metrics.h"
#include "src/support/str.h"
#include "src/support/trace.h"
#include "src/viewcl/parser.h"
#include "src/viewcl/plan.h"

namespace viewcl {

using dbg::Type;
using dbg::TypeKind;
using dbg::Value;

// ---------------------------------------------------------------------------
// Values and scopes
// ---------------------------------------------------------------------------

struct Interpreter::VclValue {
  enum class Kind { kNull, kDbg, kBox, kBoxSet, kRawSet };
  Kind kind = Kind::kNull;
  Value dbg;                        // kDbg
  uint64_t box = kNoBox;            // kBox
  std::vector<uint64_t> box_set;    // kBoxSet
  std::vector<Value> raw_set;       // kRawSet
  std::string set_kind;             // container kind ("List", "RBTree", ...)

  static VclValue Null() { return VclValue{}; }
  static VclValue Dbg(Value v) {
    VclValue out;
    out.kind = Kind::kDbg;
    out.dbg = v;
    return out;
  }
  static VclValue Box(uint64_t id) {
    VclValue out;
    out.kind = Kind::kBox;
    out.box = id;
    return out;
  }
  static VclValue BoxSet(std::vector<uint64_t> ids) {
    VclValue out;
    out.kind = Kind::kBoxSet;
    out.box_set = std::move(ids);
    return out;
  }
  static VclValue RawSet(std::vector<Value> values) {
    VclValue out;
    out.kind = Kind::kRawSet;
    out.raw_set = std::move(values);
    return out;
  }
};

class Interpreter::Scope {
 public:
  explicit Scope(const Scope* parent = nullptr) : parent_(parent) {}

  const VclValue* Find(std::string_view name) const {
    const VclValue* local = FindLocal(name);
    if (local != nullptr) {
      return local;
    }
    return parent_ != nullptr ? parent_->Find(name) : nullptr;
  }

  // This scope's own binding of `name`, ignoring the parents.
  const VclValue* FindLocal(std::string_view name) const {
    auto it = vars_.find(name);
    return it != vars_.end() ? &it->second : nullptr;
  }

  void Set(const std::string& name, VclValue value) { vars_[name] = std::move(value); }

  const Scope* parent() const { return parent_; }

 private:
  const Scope* parent_;
  std::map<std::string, VclValue, std::less<>> vars_;
};

// ---------------------------------------------------------------------------
// RunState: one evaluation of the accumulated program
// ---------------------------------------------------------------------------

class Interpreter::RunState {
 public:
  RunState(Interpreter* interp)
      : in_(interp),
        dbg_(interp->debugger_),
        ctx_(&interp->debugger_->context()),
        graph_(std::make_unique<ViewGraph>()) {
    ResolveWellKnownOffsets();
  }

  vl::StatusOr<std::unique_ptr<ViewGraph>> Run() {
    vl::ScopedSpan span("viewcl.eval");
    Scope global;
    for (const Binding& binding : in_->bindings_) {
      auto value = EvalExpr(binding.value.get(), &global, 0);
      if (!value.ok()) {
        Warn("binding '" + binding.name + "': " + value.status().ToString());
        global.Set(binding.name, VclValue::Null());
      } else {
        global.Set(binding.name, std::move(value).value());
      }
    }
    for (const ExprPtr& plot : in_->plots_) {
      auto value = EvalExpr(plot.get(), &global, 0);
      if (!value.ok()) {
        Warn("plot: " + value.status().ToString());
        continue;
      }
      switch (value->kind) {
        case VclValue::Kind::kBox:
          graph_->roots().push_back(value->box);
          break;
        case VclValue::Kind::kBoxSet: {
          uint64_t id = MakeContainerBox("plot", value->box_set, value->set_kind);
          graph_->roots().push_back(id);
          break;
        }
        case VclValue::Kind::kRawSet: {
          uint64_t id =
              MakeContainerBox("plot", MakeRawBoxes("item", value->raw_set), value->set_kind);
          graph_->roots().push_back(id);
          break;
        }
        default:
          Warn("plot produced no boxes");
      }
    }
    if (vl::Tracer::Instance().enabled()) {
      vl::MetricsRegistry& metrics = vl::MetricsRegistry::Instance();
      metrics.GetCounter("graph.nodes")->Add(graph_->size());
      metrics.GetCounter("graph.bytes")->Add(graph_->TotalObjectBytes());
    }
    return std::move(graph_);
  }

 private:
  void Warn(std::string message) { in_->warnings_.push_back(std::move(message)); }

  vl::Status LimitError() { return vl::FailedPreconditionError("box limit exceeded"); }

  void ResolveWellKnownOffsets() {
    dbg::TypeRegistry& reg = dbg_->types();
    auto off = [&reg](const char* type_name, const char* field) -> size_t {
      const Type* t = reg.FindByName(type_name);
      assert(t != nullptr);
      const dbg::Field* f = t->FindField(field);
      assert(f != nullptr);
      return f->offset;
    };
    off_list_next_ = off("list_head", "next");
    off_hlist_first_ = off("hlist_head", "first");
    off_hnode_next_ = off("hlist_node", "next");
    off_rbroot_node_ = off("rb_root", "rb_node");
    off_rbcached_root_ = off("rb_root_cached", "rb_root");
    off_rb_left_ = off("rb_node", "rb_left");
    off_rb_right_ = off("rb_node", "rb_right");
    off_radix_rnode_ = off("radix_tree_root", "rnode");
    off_radix_shift_ = off("radix_tree_node", "shift");
    off_radix_slots_ = off("radix_tree_node", "slots");
    off_mt_root_ = off("maple_tree", "ma_root");
    off_mr64_pivot_ = off("maple_range_64", "pivot");
    off_mr64_slot_ = off("maple_range_64", "slot");
    off_ma64_pivot_ = off("maple_arange_64", "pivot");
    off_ma64_slot_ = off("maple_arange_64", "slot");
  }

  // --- scalar plumbing ---

  vl::StatusOr<uint64_t> ObjectAddr(const Value& v) {
    if (v.is_lvalue()) {
      if (v.type() != nullptr && v.type()->kind == TypeKind::kPointer) {
        VL_ASSIGN_OR_RETURN(Value loaded, v.Load(&dbg_->session()));
        return loaded.bits();
      }
      return v.addr();
    }
    return v.bits();
  }

  vl::StatusOr<uint64_t> ScalarBits(const Value& v) {
    VL_ASSIGN_OR_RETURN(Value loaded, v.Load(&dbg_->session()));
    if (loaded.is_lvalue()) {
      return loaded.addr();  // aggregates decay to their address
    }
    return loaded.bits();
  }

  vl::StatusOr<uint64_t> ReadPtr(uint64_t addr) { return dbg_->session().ReadUnsigned(addr, 8); }

  // Resolves a C expression's @refs through the lexical scope chain. The
  // innermost binding a C expression can use wins: a value, or a
  // kernel-backed box as a typed pointer. NULL, virtual-box and set bindings
  // are passed over, so an outer binding of the same name shows through.
  class ScopeRefs final : public dbg::RefLookup {
   public:
    ScopeRefs(RunState* run, const Scope* scope) : run_(run), scope_(scope) {}

    bool Find(std::string_view name, Value* out) const override {
      for (const Scope* s = scope_; s != nullptr; s = s->parent()) {
        const VclValue* value = s->FindLocal(name);
        if (value == nullptr) {
          continue;
        }
        if (value->kind == VclValue::Kind::kDbg) {
          *out = value->dbg;
          return true;
        }
        if (value->kind == VclValue::Kind::kBox) {
          const VBox* box = run_->graph_->box(value->box);
          if (box != nullptr && !box->is_virtual()) {
            dbg::TypeRegistry& types = run_->dbg_->types();
            const Type* t = types.FindByName(box->kernel_type());
            if (t != nullptr) {
              *out = Value::MakePointer(types.PointerTo(t), box->addr());
              return true;
            }
          }
        }
      }
      return false;
    }

   private:
    RunState* run_;
    const Scope* scope_;
  };

  vl::StatusOr<Value> EvalC(const Expr* expr, const Scope* scope) {
    ScopeRefs refs(this, scope);
    return expr->cexpr->Eval(ctx_, &refs);
  }

  // --- expression evaluation ---

  vl::StatusOr<VclValue> EvalExpr(const Expr* expr, Scope* scope, int depth) {
    if (depth > in_->limits_.max_depth) {
      return vl::FailedPreconditionError("evaluation depth limit exceeded");
    }
    switch (expr->kind) {
      case Expr::Kind::kCExpr: {
        VL_ASSIGN_OR_RETURN(Value v, EvalC(expr, scope));
        return VclValue::Dbg(v);
      }
      case Expr::Kind::kAtRef: {
        const VclValue* found = scope->Find(expr->text);
        if (found == nullptr) {
          return vl::EvalError("unbound @" + expr->text);
        }
        return *found;
      }
      case Expr::Kind::kInt:
        return VclValue::Dbg(Value::MakeInt(dbg_->types().u64(), expr->ival));
      case Expr::Kind::kNull:
        return VclValue::Null();
      case Expr::Kind::kFieldPath: {
        const VclValue* self = scope->Find("this");
        if (self == nullptr || self->kind != VclValue::Kind::kDbg) {
          return vl::EvalError("field path '" + vl::StrJoin(expr->path, ".") +
                               "' outside a box context");
        }
        Value v = self->dbg;
        for (const std::string& field : expr->path) {
          VL_ASSIGN_OR_RETURN(v, v.Member(&dbg_->session(), &dbg_->types(), field));
        }
        return VclValue::Dbg(v);
      }
      case Expr::Kind::kSwitch:
        return EvalSwitch(expr, scope, depth);
      case Expr::Kind::kBoxCtor:
        return EvalBoxCtor(expr, scope, depth);
      case Expr::Kind::kContainerCtor:
        return EvalContainerCtor(expr, scope, depth);
      case Expr::Kind::kSelectFrom:
        return EvalSelectFrom(expr, scope, depth);
      case Expr::Kind::kInlineBox:
        return InstantiateBox(expr->inline_box.get(), Value(), scope, depth + 1);
    }
    return vl::InternalError("unhandled ViewCL expression");
  }

  vl::StatusOr<VclValue> EvalSwitch(const Expr* expr, Scope* scope, int depth) {
    VL_ASSIGN_OR_RETURN(VclValue scrutinee, EvalExpr(expr->kids[0].get(), scope, depth + 1));
    uint64_t bits = 0;
    if (scrutinee.kind == VclValue::Kind::kDbg) {
      VL_ASSIGN_OR_RETURN(bits, ScalarBits(scrutinee.dbg));
    } else if (scrutinee.kind == VclValue::Kind::kNull) {
      bits = 0;
    } else {
      return vl::EvalError("switch scrutinee must be a scalar");
    }
    for (const SwitchCase& sc : expr->cases) {
      for (const ExprPtr& label : sc.labels) {
        VL_ASSIGN_OR_RETURN(VclValue lv, EvalExpr(label.get(), scope, depth + 1));
        uint64_t label_bits = 0;
        if (lv.kind == VclValue::Kind::kDbg) {
          VL_ASSIGN_OR_RETURN(label_bits, ScalarBits(lv.dbg));
        }
        if (label_bits == bits) {
          return EvalExpr(sc.body.get(), scope, depth + 1);
        }
      }
    }
    if (expr->otherwise != nullptr) {
      return EvalExpr(expr->otherwise.get(), scope, depth + 1);
    }
    return VclValue::Null();
  }

  vl::StatusOr<VclValue> EvalBoxCtor(const Expr* expr, Scope* scope, int depth) {
    auto it = in_->defines_.find(expr->text);
    if (it == in_->defines_.end()) {
      return vl::EvalError("unknown Box '" + expr->text + "'");
    }
    const BoxDecl* decl = it->second;
    VL_ASSIGN_OR_RETURN(VclValue arg, EvalExpr(expr->kids[0].get(), scope, depth + 1));
    uint64_t addr = 0;
    if (arg.kind == VclValue::Kind::kDbg) {
      VL_ASSIGN_OR_RETURN(addr, ObjectAddr(arg.dbg));
    } else if (arg.kind == VclValue::Kind::kBox) {
      const VBox* box = graph_->box(arg.box);
      addr = box != nullptr ? box->addr() : 0;
    } else if (arg.kind == VclValue::Kind::kNull) {
      return VclValue::Null();
    }
    if (addr == 0) {
      return VclValue::Null();
    }
    // Anchored constructor: container_of the argument.
    if (!expr->path.empty()) {
      VL_ASSIGN_OR_RETURN(size_t anchor_off, AnchorOffset(expr->path));
      addr -= anchor_off;
    }
    const Type* t = dbg_->types().FindByName(decl->kernel_type);
    Value object = Value::MakeLValue(t != nullptr ? t : dbg_->types().void_type(), addr);
    return InstantiateBox(decl, object, nullptr, depth + 1);
  }

  vl::StatusOr<size_t> AnchorOffset(const std::vector<std::string>& path) {
    const Type* t = dbg_->types().FindByName(path[0]);
    if (t == nullptr) {
      return vl::EvalError("unknown anchor type '" + path[0] + "'");
    }
    size_t total = 0;
    for (size_t i = 1; i < path.size(); ++i) {
      if (t->kind == TypeKind::kArray) {
        t = t->element;  // anchors through array fields address element 0
      }
      const dbg::Field* f = t->FindField(path[i]);
      if (f == nullptr) {
        return vl::EvalError("anchor: '" + t->name + "' has no member '" + path[i] + "'");
      }
      total += f->offset;
      t = f->type;
    }
    return total;
  }

  // --- container adapters (the distill/flatten machinery) ---

  vl::StatusOr<VclValue> EvalContainerCtor(const Expr* expr, Scope* scope, int depth) {
    std::vector<VclValue> args;
    for (const ExprPtr& kid : expr->kids) {
      VL_ASSIGN_OR_RETURN(VclValue v, EvalExpr(kid.get(), scope, depth + 1));
      args.push_back(std::move(v));
    }
    std::vector<Value> elements;
    const std::string& kind = expr->text;
    if (kind == "List") {
      VL_ASSIGN_OR_RETURN(elements, WalkList(args));
    } else if (kind == "HList") {
      VL_ASSIGN_OR_RETURN(elements, WalkHList(args));
    } else if (kind == "RBTree") {
      VL_ASSIGN_OR_RETURN(elements, WalkRbTree(args));
    } else if (kind == "Array") {
      VL_ASSIGN_OR_RETURN(elements, WalkArray(args));
    } else if (kind == "XArray" || kind == "RadixTree") {
      VL_ASSIGN_OR_RETURN(elements, WalkRadix(args));
    } else if (kind == "MapleTree") {
      VL_ASSIGN_OR_RETURN(elements, WalkMaple(args));
    } else {
      return vl::EvalError("unknown container '" + kind + "'");
    }

    if (expr->for_each == nullptr) {
      VclValue raw = VclValue::RawSet(std::move(elements));
      raw.set_kind = kind;
      return raw;
    }
    const ForEachClause* fe = expr->for_each.get();
    std::vector<uint64_t> boxes;
    for (const Value& element : elements) {
      Scope iter(scope);
      iter.Set(fe->var, VclValue::Dbg(element));
      bool failed = false;
      for (const Binding& binding : fe->bindings) {
        auto v = EvalExpr(binding.value.get(), &iter, depth + 1);
        if (!v.ok()) {
          Warn("forEach binding '" + binding.name + "': " + v.status().ToString());
          iter.Set(binding.name, VclValue::Null());
          failed = true;
        } else {
          iter.Set(binding.name, std::move(v).value());
        }
      }
      (void)failed;
      auto yielded = EvalExpr(fe->yield.get(), &iter, depth + 1);
      if (!yielded.ok()) {
        Warn("forEach yield: " + yielded.status().ToString());
        continue;
      }
      if (yielded->kind == VclValue::Kind::kBox) {
        boxes.push_back(yielded->box);
      } else if (yielded->kind == VclValue::Kind::kBoxSet) {
        boxes.insert(boxes.end(), yielded->box_set.begin(), yielded->box_set.end());
      }
      // kNull yields are skipped (e.g. empty maple slots).
    }
    VclValue result = VclValue::BoxSet(std::move(boxes));
    result.set_kind = kind;
    return result;
  }

  vl::StatusOr<uint64_t> ArgAddr(const std::vector<VclValue>& args, const char* what) {
    if (args.empty() || args[0].kind != VclValue::Kind::kDbg) {
      return vl::EvalError(std::string(what) + ": expected an object argument");
    }
    return ObjectAddr(args[0].dbg);
  }

  vl::StatusOr<std::vector<Value>> WalkList(const std::vector<VclValue>& args) {
    vl::ScopedSpan span("viewcl.adapter.list");
    VL_ASSIGN_OR_RETURN(uint64_t head, ArgAddr(args, "List"));
    std::vector<Value> out;
    const Type* node_type = dbg_->types().FindByName("list_head");
    VL_ASSIGN_OR_RETURN(uint64_t node, ReadPtr(head + off_list_next_));
    while (node != 0 && node != head && out.size() < in_->limits_.max_container_elems) {
      out.push_back(Value::MakeLValue(node_type, node));
      VL_ASSIGN_OR_RETURN(node, ReadPtr(node + off_list_next_));
    }
    return out;
  }

  vl::StatusOr<std::vector<Value>> WalkHList(const std::vector<VclValue>& args) {
    vl::ScopedSpan span("viewcl.adapter.hlist");
    VL_ASSIGN_OR_RETURN(uint64_t head, ArgAddr(args, "HList"));
    std::vector<Value> out;
    const Type* node_type = dbg_->types().FindByName("hlist_node");
    VL_ASSIGN_OR_RETURN(uint64_t node, ReadPtr(head + off_hlist_first_));
    while (node != 0 && out.size() < in_->limits_.max_container_elems) {
      out.push_back(Value::MakeLValue(node_type, node));
      VL_ASSIGN_OR_RETURN(node, ReadPtr(node + off_hnode_next_));
    }
    return out;
  }

  vl::StatusOr<std::vector<Value>> WalkRbTree(const std::vector<VclValue>& args) {
    vl::ScopedSpan span("viewcl.adapter.rbtree");
    if (args.empty() || args[0].kind != VclValue::Kind::kDbg) {
      return vl::EvalError("RBTree: expected a root argument");
    }
    Value root = args[0].dbg;
    uint64_t root_addr = 0;
    // Accept rb_root, rb_root_cached, or a pointer to either.
    Value cursor = root;
    if (cursor.type() != nullptr && cursor.type()->kind == TypeKind::kPointer) {
      VL_ASSIGN_OR_RETURN(cursor, cursor.Deref(&dbg_->session(), &dbg_->types()));
    }
    if (cursor.type() != nullptr && cursor.type()->name == "rb_root_cached") {
      root_addr = cursor.addr() + off_rbcached_root_;
    } else {
      root_addr = cursor.is_lvalue() ? cursor.addr() : cursor.bits();
    }
    VL_ASSIGN_OR_RETURN(uint64_t node, ReadPtr(root_addr + off_rbroot_node_));
    // Iterative in-order traversal with an explicit stack of node addresses.
    std::vector<Value> out;
    const Type* node_type = dbg_->types().FindByName("rb_node");
    std::vector<uint64_t> stack;
    while ((node != 0 || !stack.empty()) &&
           out.size() < in_->limits_.max_container_elems) {
      while (node != 0) {
        stack.push_back(node);
        VL_ASSIGN_OR_RETURN(node, ReadPtr(node + off_rb_left_));
        if (stack.size() > 4096) {
          return vl::EvalError("RBTree: runaway traversal");
        }
      }
      if (stack.empty()) {
        break;
      }
      uint64_t current = stack.back();
      stack.pop_back();
      out.push_back(Value::MakeLValue(node_type, current));
      VL_ASSIGN_OR_RETURN(node, ReadPtr(current + off_rb_right_));
    }
    return out;
  }

  vl::StatusOr<std::vector<Value>> WalkArray(const std::vector<VclValue>& args) {
    vl::ScopedSpan span("viewcl.adapter.array");
    if (args.empty() || args[0].kind != VclValue::Kind::kDbg) {
      return vl::EvalError("Array: expected an array argument");
    }
    Value arr = args[0].dbg;
    std::vector<Value> out;
    if (arr.is_lvalue() && arr.type() != nullptr && arr.type()->kind == TypeKind::kArray) {
      const Type* elem = arr.type()->element;
      size_t n = arr.type()->array_len;
      if (args.size() > 1 && args[1].kind == VclValue::Kind::kDbg) {
        VL_ASSIGN_OR_RETURN(uint64_t limit, ScalarBits(args[1].dbg));
        n = std::min<size_t>(n, limit);
      }
      n = std::min(n, in_->limits_.max_container_elems);
      for (size_t i = 0; i < n; ++i) {
        out.push_back(Value::MakeLValue(elem, arr.addr() + i * elem->size));
      }
      return out;
    }
    // Pointer base + explicit count.
    if (arr.type() != nullptr && arr.type()->kind == TypeKind::kPointer) {
      if (args.size() < 2 || args[1].kind != VclValue::Kind::kDbg) {
        return vl::EvalError("Array(pointer) requires an element count");
      }
      VL_ASSIGN_OR_RETURN(Value base, arr.Load(&dbg_->session()));
      VL_ASSIGN_OR_RETURN(uint64_t n, ScalarBits(args[1].dbg));
      n = std::min<uint64_t>(n, in_->limits_.max_container_elems);
      const Type* elem = base.type()->pointee;
      if (elem->size == 0) {
        return vl::EvalError("Array of void: unknown element size");
      }
      for (uint64_t i = 0; i < n; ++i) {
        out.push_back(Value::MakeLValue(elem, base.bits() + i * elem->size));
      }
      return out;
    }
    return vl::EvalError("Array: argument is not an array or pointer");
  }

  vl::Status WalkRadixNode(uint64_t node, std::vector<Value>* out) {
    VL_ASSIGN_OR_RETURN(uint64_t shift, dbg_->session().ReadUnsigned(node + off_radix_shift_, 1));
    for (int i = 0; i < vkern::kRadixTreeMapSize; ++i) {
      if (out->size() >= in_->limits_.max_container_elems) {
        return vl::Status::Ok();
      }
      VL_ASSIGN_OR_RETURN(uint64_t slot,
                          ReadPtr(node + off_radix_slots_ + static_cast<uint64_t>(i) * 8));
      if (slot == 0) {
        continue;
      }
      if (shift == 0) {
        out->push_back(
            Value::MakePointer(dbg_->types().PointerTo(dbg_->types().void_type()), slot));
      } else {
        VL_RETURN_IF_ERROR(WalkRadixNode(slot, out));
      }
    }
    return vl::Status::Ok();
  }

  vl::StatusOr<std::vector<Value>> WalkRadix(const std::vector<VclValue>& args) {
    vl::ScopedSpan span("viewcl.adapter.xarray");
    VL_ASSIGN_OR_RETURN(uint64_t root, ArgAddr(args, "XArray"));
    std::vector<Value> out;
    VL_ASSIGN_OR_RETURN(uint64_t rnode, ReadPtr(root + off_radix_rnode_));
    if (rnode != 0) {
      VL_RETURN_IF_ERROR(WalkRadixNode(rnode, &out));
    }
    return out;
  }

  vl::Status WalkMapleNode(uint64_t enode, uint64_t max, std::vector<Value>* out) {
    uint64_t node = enode & ~uint64_t{0xff};
    uint32_t type = (enode >> 3) & 0xf;
    bool leaf = type < vkern::maple_range_64;
    bool arange = type == vkern::maple_arange_64;
    uint64_t pivot_off = arange ? off_ma64_pivot_ : off_mr64_pivot_;
    uint64_t slot_off = arange ? off_ma64_slot_ : off_mr64_slot_;
    uint32_t pivots = arange ? vkern::kMapleArange64Slots - 1 : vkern::kMapleRange64Slots - 1;
    uint64_t prev_pivot = 0;
    for (uint32_t i = 0; i <= pivots; ++i) {
      if (out->size() >= in_->limits_.max_container_elems) {
        return vl::Status::Ok();
      }
      uint64_t slot_max = max;
      if (i < pivots) {
        VL_ASSIGN_OR_RETURN(slot_max,
                            dbg_->session().ReadUnsigned(node + pivot_off + i * 8ull, 8));
        if (slot_max == 0 || slot_max >= max) {
          slot_max = max;  // terminator: this is the last slot
        }
      }
      VL_ASSIGN_OR_RETURN(uint64_t entry, ReadPtr(node + slot_off + i * 8ull));
      if (entry != 0) {
        if (leaf) {
          out->push_back(
              Value::MakePointer(dbg_->types().PointerTo(dbg_->types().void_type()), entry));
        } else {
          VL_RETURN_IF_ERROR(WalkMapleNode(entry, slot_max, out));
        }
      }
      if (slot_max == max) {
        break;
      }
      prev_pivot = slot_max;
      (void)prev_pivot;
    }
    return vl::Status::Ok();
  }

  vl::StatusOr<std::vector<Value>> WalkMaple(const std::vector<VclValue>& args) {
    vl::ScopedSpan span("viewcl.adapter.mapletree");
    VL_ASSIGN_OR_RETURN(uint64_t tree, ArgAddr(args, "MapleTree"));
    std::vector<Value> out;
    VL_ASSIGN_OR_RETURN(uint64_t root, ReadPtr(tree + off_mt_root_));
    if (root == 0) {
      return out;
    }
    if ((root & 2) == 0) {
      // Direct entry at the root.
      out.push_back(Value::MakePointer(dbg_->types().PointerTo(dbg_->types().void_type()), root));
      return out;
    }
    VL_RETURN_IF_ERROR(WalkMapleNode(root, ~0ull, &out));
    return out;
  }

  vl::StatusOr<VclValue> EvalSelectFrom(const Expr* expr, Scope* scope, int depth) {
    VL_ASSIGN_OR_RETURN(VclValue source, EvalExpr(expr->kids[0].get(), scope, depth + 1));
    // Resolve the underlying object (box or value) and its kernel type.
    uint64_t addr = 0;
    std::string type_name;
    if (source.kind == VclValue::Kind::kBox) {
      const VBox* box = graph_->box(source.box);
      if (box == nullptr) {
        return vl::EvalError("selectFrom: dangling box");
      }
      addr = box->addr();
      type_name = box->kernel_type();
    } else if (source.kind == VclValue::Kind::kDbg) {
      Value v = source.dbg;
      if (v.type() != nullptr && v.type()->kind == TypeKind::kPointer) {
        VL_ASSIGN_OR_RETURN(v, v.Deref(&dbg_->session(), &dbg_->types()));
      }
      addr = v.addr();
      type_name = v.type() != nullptr ? v.type()->name : "";
    } else {
      return vl::EvalError("selectFrom: unsupported source");
    }

    std::vector<Value> entries;
    std::vector<VclValue> args;
    args.push_back(VclValue::Dbg(
        Value::MakeLValue(dbg_->types().FindByName(type_name), addr)));
    if (type_name == "maple_tree") {
      VL_ASSIGN_OR_RETURN(entries, WalkMaple(args));
    } else if (type_name == "radix_tree_root" || type_name == "address_space") {
      if (type_name == "address_space") {
        const Type* as = dbg_->types().FindByName("address_space");
        const dbg::Field* f = as->FindField("i_pages");
        args[0] = VclValue::Dbg(Value::MakeLValue(
            dbg_->types().FindByName("radix_tree_root"), addr + f->offset));
      }
      VL_ASSIGN_OR_RETURN(entries, WalkRadix(args));
    } else {
      return vl::EvalError("selectFrom: cannot distill a '" + type_name + "'");
    }

    auto it = in_->defines_.find(expr->text);
    if (it == in_->defines_.end()) {
      return vl::EvalError("selectFrom: unknown Box '" + expr->text + "'");
    }
    const BoxDecl* decl = it->second;
    const Type* elem_type = dbg_->types().FindByName(decl->kernel_type);
    std::vector<uint64_t> boxes;
    for (const Value& entry : entries) {
      Value typed = Value::MakeLValue(elem_type != nullptr ? elem_type : dbg_->types().void_type(),
                                      entry.bits());
      VL_ASSIGN_OR_RETURN(VclValue box, InstantiateBox(decl, typed, nullptr, depth + 1));
      if (box.kind == VclValue::Kind::kBox) {
        boxes.push_back(box.box);
      }
    }
    VclValue result = VclValue::BoxSet(std::move(boxes));
    result.set_kind = "Array";
    return result;
  }

  // --- box instantiation ---

  // Opens a ReadSession page scope for a memo capture; pops it on every exit
  // path so error returns inside the instantiation can't leak a scope.
  class PageScopeGuard {
   public:
    explicit PageScopeGuard(dbg::ReadSession* session) : session_(session) {
      session_->PushPageScope();
    }
    ~PageScopeGuard() {
      if (session_ != nullptr) {
        (void)session_->PopPageScope();
      }
    }
    PageScopeGuard(const PageScopeGuard&) = delete;
    PageScopeGuard& operator=(const PageScopeGuard&) = delete;
    // Closes the scope and hands back its pages (subtree read coverage).
    std::vector<uint64_t> Finish() {
      dbg::ReadSession* session = session_;
      session_ = nullptr;
      return session->PopPageScope();
    }

   private:
    dbg::ReadSession* session_;
  };

  // Memoization engages only when the session's dirty log can prove a
  // snapshot is still valid; default sessions keep exact classic behavior.
  bool MemoEnabled() const {
    return in_->limits_.intern_boxes && dbg_->session().delta_enabled();
  }

  vl::StatusOr<VclValue> InstantiateBox(const BoxDecl* decl, Value object, Scope* lexical,
                                        int depth) {
    if (depth > in_->limits_.max_depth) {
      return vl::FailedPreconditionError("box nesting limit exceeded");
    }
    if (graph_->size() >= in_->limits_.max_boxes) {
      return LimitError();
    }
    bool is_virtual = decl->kernel_type.empty();
    uint64_t addr = 0;
    size_t object_size = 0;
    const Type* type = nullptr;
    if (!is_virtual) {
      type = dbg_->types().FindByName(decl->kernel_type);
      addr = object.is_lvalue() ? object.addr() : object.bits();
      if (addr == 0) {
        return VclValue::Null();
      }
      object_size = type != nullptr ? type->size : 0;
      if (in_->limits_.intern_boxes) {
        auto key = std::make_pair(decl, addr);
        auto found = interned_.find(key);
        if (found != interned_.end()) {
          return VclValue::Box(found->second);
        }
      }
    }

    bool memoize = !is_virtual && MemoEnabled();
    if (memoize) {
      auto key = std::make_pair(decl, addr);
      auto found = in_->memo_.find(key);
      if (found != in_->memo_.end()) {
        uint64_t id = TryReplayMemo(found->second);
        if (id != kNoBox) {
          in_->memo_replays_++;
          if (vl::Tracer::Instance().enabled()) {
            vl::MetricsRegistry::Instance().GetCounter("viewcl.memo.replays")->Add();
          }
          return VclValue::Box(id);
        }
        // Stale or no longer replayable: fall through to re-extract (which
        // recaptures a fresh snapshot below).
        in_->memo_.erase(found);
      }
      in_->memo_misses_++;
      if (vl::Tracer::Instance().enabled()) {
        vl::MetricsRegistry::Instance().GetCounter("viewcl.memo.misses")->Add();
      }
    }
    size_t window_start = graph_->size();
    uint64_t capture_epoch = 0;
    std::optional<PageScopeGuard> memo_scope;
    if (memoize) {
      capture_epoch = dbg_->session().SyncEpoch();
      memo_scope.emplace(&dbg_->session());
    }

    VBox* box = graph_->NewBox(decl->name, decl->kernel_type, addr, object_size);
    if (!is_virtual && in_->limits_.intern_boxes) {
      interned_[std::make_pair(decl, addr)] = box->id();
      intern_by_id_[box->id()] = std::make_pair(decl, addr);
    }
    // Attribute every read below to the kernel type being instantiated
    // (virtual boxes keep the enclosing box's tag), and pull the whole
    // object into the block cache up front: the member walk below then
    // rides one vectored transport round trip instead of one per field.
    // Under tracing, a per-kernel-type span ("viewcl.box.task_struct") makes
    // the member walk attributable in the explain tree.
    std::optional<vl::ScopedNamedSpan> box_span;
    std::optional<dbg::ReadSession::TagScope> read_tag;
    if (!is_virtual) {
      if (vl::Tracer::Instance().enabled()) {
        box_span.emplace("viewcl.box." + decl->kernel_type);
      }
      read_tag.emplace(&dbg_->session(), decl->kernel_type.c_str());
      dbg_->session().PrefetchObject(addr, type);
    }

    // Box scope: @this plus box-level where bindings.
    Scope box_scope(lexical);
    if (!is_virtual && type != nullptr) {
      box_scope.Set("this", VclValue::Dbg(Value::MakeLValue(type, addr)));
    }
    for (const Binding& binding : decl->where) {
      auto v = EvalExpr(binding.value.get(), &box_scope, depth + 1);
      if (!v.ok()) {
        Warn("where '" + binding.name + "' in " + decl->name + ": " + v.status().ToString());
        box_scope.Set(binding.name, VclValue::Null());
      } else {
        RecordMember(box, binding.name, *v);
        box_scope.Set(binding.name, std::move(v).value());
      }
    }

    for (const ViewDecl& view_decl : decl->views) {
      ViewInstance view;
      view.name = view_decl.name;
      Scope view_scope(&box_scope);
      VL_RETURN_IF_ERROR(
          EvalViewInto(decl, &view_decl, &view_scope, box, &view, depth));
      box->views().push_back(std::move(view));
    }
    if (memoize) {
      CaptureMemo(decl, addr, window_start, capture_epoch, memo_scope->Finish());
    }
    return VclValue::Box(box->id());
  }

  // --- box memoization (incremental refresh) ---

  // Replays a memoized subtree into the current graph: copies the snapshot
  // boxes, remaps window-local references by offset and external references
  // through the current run's intern map. Returns the new root id, or kNoBox
  // when the snapshot is stale (a touched page is dirty) or no longer
  // replayable (evaluation drift changed what is interned when).
  uint64_t TryReplayMemo(const BoxMemo& memo) {
    dbg::ReadSession& session = dbg_->session();
    (void)session.SyncEpoch();
    for (uint64_t page : memo.pages) {
      if (!session.RangeCleanSince(page, 1, memo.epoch)) {
        return kNoBox;
      }
    }
    if (graph_->size() + memo.boxes.size() > in_->limits_.max_boxes) {
      return kNoBox;
    }
    std::map<uint64_t, uint64_t> externals;  // capture-run id -> current id
    for (const auto& [orig, key] : memo.externals) {
      auto it = interned_.find(key);
      if (it == interned_.end()) {
        return kNoBox;
      }
      externals[orig] = it->second;
    }
    for (const auto& [local, key] : memo.interns) {
      // The root (local 0) is known un-interned — the caller's intern lookup
      // just missed. A non-root key already interned means this run built
      // the shared box elsewhere first; replaying would duplicate it.
      if (local != 0 && interned_.find(key) != interned_.end()) {
        return kNoBox;
      }
    }
    uint64_t new_base = graph_->size();
    for (const BoxMemo::BoxSnap& snap : memo.boxes) {
      VBox* box = graph_->NewBox(snap.decl_name, snap.kernel_type, snap.addr,
                                 snap.object_size);
      box->members() = snap.members;
      box->views() = snap.views;
      for (ViewInstance& view : box->views()) {
        for (LinkItem& link : view.links) {
          link.target = RemapMemoId(memo, externals, new_base, link.target);
        }
        for (ContainerItem& container : view.containers) {
          for (uint64_t& member : container.members) {
            member = RemapMemoId(memo, externals, new_base, member);
          }
        }
      }
    }
    for (const auto& [local, key] : memo.interns) {
      interned_[key] = new_base + local;
      intern_by_id_[new_base + local] = key;
    }
    // The replay performed no reads; its page coverage still belongs to any
    // enclosing capture in progress.
    session.NotePages(memo.pages);
    return new_base;
  }

  uint64_t RemapMemoId(const BoxMemo& memo, const std::map<uint64_t, uint64_t>& externals,
                       uint64_t new_base, uint64_t id) const {
    if (id == kNoBox) {
      return kNoBox;
    }
    if (id >= memo.base && id < memo.base + memo.boxes.size()) {
      return new_base + (id - memo.base);
    }
    auto it = externals.find(id);
    return it != externals.end() ? it->second : kNoBox;
  }

  // Snapshots the boxes created in [window_start, graph size) as the memo
  // for (decl, addr). Gives up (storing nothing) if the subtree references
  // an out-of-window box that carries no intern key — such a reference could
  // not be resolved in a future run.
  void CaptureMemo(const BoxDecl* decl, uint64_t addr, size_t window_start,
                   uint64_t epoch, std::vector<uint64_t> pages) {
    BoxMemo memo;
    memo.epoch = epoch;
    memo.base = window_start;
    memo.pages = std::move(pages);
    size_t end = graph_->size();
    memo.boxes.reserve(end - window_start);
    for (size_t id = window_start; id < end; ++id) {
      const VBox* box = graph_->box(id);
      BoxMemo::BoxSnap snap;
      snap.decl_name = box->decl_name();
      snap.kernel_type = box->kernel_type();
      snap.addr = box->addr();
      snap.object_size = box->object_size();
      snap.views = box->views();
      snap.members = box->members();
      for (const ViewInstance& view : snap.views) {
        for (const LinkItem& link : view.links) {
          if (!NoteMemoRef(&memo, link.target, window_start, end)) {
            return;
          }
        }
        for (const ContainerItem& container : view.containers) {
          for (uint64_t member : container.members) {
            if (!NoteMemoRef(&memo, member, window_start, end)) {
              return;
            }
          }
        }
      }
      memo.boxes.push_back(std::move(snap));
      auto it = intern_by_id_.find(id);
      if (it != intern_by_id_.end()) {
        memo.interns.emplace_back(id - window_start, it->second);
      }
    }
    in_->memo_[std::make_pair(decl, addr)] = std::move(memo);
  }

  bool NoteMemoRef(BoxMemo* memo, uint64_t target, size_t start, size_t end) {
    if (target == kNoBox) {
      return true;
    }
    if (target >= start && target < end) {
      return true;
    }
    auto it = intern_by_id_.find(target);
    if (it == intern_by_id_.end()) {
      return false;
    }
    memo->externals[target] = it->second;
    return true;
  }

  // Evaluates a view (after resolving its inheritance chain) into `out`.
  vl::Status EvalViewInto(const BoxDecl* decl, const ViewDecl* view_decl, Scope* scope,
                          VBox* box, ViewInstance* out, int depth) {
    // Inherited views first (recursively).
    if (!view_decl->parent.empty()) {
      const ViewDecl* parent = nullptr;
      for (const ViewDecl& candidate : decl->views) {
        if (candidate.name == view_decl->parent) {
          parent = &candidate;
        }
      }
      if (parent == nullptr) {
        return vl::EvalError("view :" + view_decl->name + " inherits unknown :" +
                             view_decl->parent);
      }
      VL_RETURN_IF_ERROR(EvalViewInto(decl, parent, scope, box, out, depth));
    }
    for (const Binding& binding : view_decl->where) {
      auto v = EvalExpr(binding.value.get(), scope, depth + 1);
      if (!v.ok()) {
        Warn("where '" + binding.name + "': " + v.status().ToString());
        scope->Set(binding.name, VclValue::Null());
      } else {
        RecordMember(box, binding.name, *v);
        scope->Set(binding.name, std::move(v).value());
      }
    }
    for (const ItemDecl& item : view_decl->items) {
      EvalItem(item, scope, box, out, depth);
    }
    return vl::Status::Ok();
  }

  void EvalItem(const ItemDecl& item, Scope* scope, VBox* box, ViewInstance* out, int depth) {
    auto value = EvalExpr(item.value.get(), scope, depth + 1);
    if (!value.ok()) {
      if (item.kind == ItemDecl::Kind::kText) {
        out->texts.push_back(TextItem{item.name, "?"});
      } else if (item.kind == ItemDecl::Kind::kLink) {
        out->links.push_back(LinkItem{item.name, kNoBox});
      }
      Warn("item '" + item.name + "' in " + box->decl_name() + ": " +
           value.status().ToString());
      return;
    }
    switch (item.kind) {
      case ItemDecl::Kind::kText:
        EvalTextItem(item, *value, box, out);
        return;
      case ItemDecl::Kind::kLink: {
        uint64_t target = kNoBox;
        if (value->kind == VclValue::Kind::kBox) {
          target = value->box;
        } else if (value->kind == VclValue::Kind::kBoxSet) {
          target = MakeContainerBox(item.name, value->box_set, value->set_kind);
        } else if (value->kind == VclValue::Kind::kRawSet) {
          target = MakeContainerBox(item.name, MakeRawBoxes(item.name, value->raw_set),
                                    value->set_kind);
        } else if (value->kind == VclValue::Kind::kDbg) {
          Warn("link '" + item.name + "' targets a plain value, not a box");
        }
        out->links.push_back(LinkItem{item.name, target});
        return;
      }
      case ItemDecl::Kind::kContainer: {
        ContainerItem container;
        container.name = item.name;
        if (value->kind == VclValue::Kind::kBoxSet) {
          container.members = value->box_set;
        } else if (value->kind == VclValue::Kind::kRawSet) {
          container.members = MakeRawBoxes(item.name, value->raw_set);
        } else if (value->kind == VclValue::Kind::kBox) {
          container.members.push_back(value->box);
        }
        box->members()[item.name + ".size"] =
            MemberValue::Int(static_cast<int64_t>(container.members.size()));
        out->containers.push_back(std::move(container));
        return;
      }
    }
  }

  void EvalTextItem(const ItemDecl& item, const VclValue& value, VBox* box,
                    ViewInstance* out) {
    if (value.kind == VclValue::Kind::kNull) {
      out->texts.push_back(TextItem{item.name, "<null>"});
      box->members()[item.name] = MemberValue::Null();
      return;
    }
    if (value.kind != VclValue::Kind::kDbg) {
      out->texts.push_back(TextItem{item.name, "<box>"});
      return;
    }
    auto formatted = FormatDecorated(ctx_, &in_->emoji_, item.decorator, value.dbg);
    if (!formatted.ok()) {
      out->texts.push_back(TextItem{item.name, "?"});
      Warn("text '" + item.name + "': " + formatted.status().ToString());
      return;
    }
    out->texts.push_back(TextItem{item.name, formatted->display});
    if (formatted->is_string) {
      box->members()[item.name] = MemberValue::Str(formatted->display);
    } else if (formatted->has_raw) {
      box->members()[item.name] = MemberValue::Int(static_cast<int64_t>(formatted->raw_bits));
    } else {
      box->members()[item.name] = MemberValue::Str(formatted->display);
    }
  }

  void RecordMember(VBox* box, const std::string& name, const VclValue& value) {
    if (value.kind != VclValue::Kind::kDbg) {
      return;
    }
    const Value& v = value.dbg;
    if (v.type() != nullptr && v.IsNull() && !v.is_lvalue()) {
      box->members()[name] = MemberValue::Null();
      return;
    }
    if (!v.is_lvalue() && v.type() != nullptr && v.type()->IsScalar()) {
      box->members()[name] = MemberValue::Int(static_cast<int64_t>(v.bits()));
    }
  }

  // A virtual box that groups a set of member boxes (used for plotted sets
  // and links-to-containers).
  uint64_t MakeContainerBox(const std::string& name, const std::vector<uint64_t>& members,
                            const std::string& kind = "") {
    VBox* box =
        graph_->NewBox(kind.empty() ? "<container:" + name + ">" : kind, "", 0, 0);
    ViewInstance view;
    view.name = "default";
    ContainerItem container;
    container.name = name;
    container.members = members;
    view.containers.push_back(std::move(container));
    box->members()[name + ".size"] = MemberValue::Int(static_cast<int64_t>(members.size()));
    box->views().push_back(std::move(view));
    return box->id();
  }

  // Wraps raw scalar elements into single-text virtual boxes.
  std::vector<uint64_t> MakeRawBoxes(const std::string& name,
                                     const std::vector<Value>& values) {
    std::vector<uint64_t> ids;
    for (size_t i = 0; i < values.size(); ++i) {
      if (graph_->size() >= in_->limits_.max_boxes) {
        break;
      }
      VBox* box = graph_->NewBox("<value>", "", 0, 0);
      ViewInstance view;
      view.name = "default";
      auto formatted = FormatDecorated(ctx_, &in_->emoji_, "", values[i]);
      std::string display = formatted.ok() ? formatted->display : "?";
      view.texts.push_back(TextItem{vl::StrFormat("%s[%zu]", name.c_str(), i), display});
      if (formatted.ok() && formatted->has_raw) {
        box->members()["value"] = MemberValue::Int(static_cast<int64_t>(formatted->raw_bits));
      }
      box->views().push_back(std::move(view));
      ids.push_back(box->id());
    }
    return ids;
  }

  Interpreter* in_;
  dbg::KernelDebugger* dbg_;
  dbg::EvalContext* ctx_;
  std::unique_ptr<ViewGraph> graph_;
  std::map<std::pair<const BoxDecl*, uint64_t>, uint64_t> interned_;
  // Reverse intern map (box id -> key), so memo capture can name the shared
  // boxes a snapshot references and a future replay can resolve them.
  std::map<uint64_t, std::pair<const BoxDecl*, uint64_t>> intern_by_id_;

  size_t off_list_next_ = 0;
  size_t off_hlist_first_ = 0;
  size_t off_hnode_next_ = 0;
  size_t off_rbroot_node_ = 0;
  size_t off_rbcached_root_ = 0;
  size_t off_rb_left_ = 0;
  size_t off_rb_right_ = 0;
  size_t off_radix_rnode_ = 0;
  size_t off_radix_shift_ = 0;
  size_t off_radix_slots_ = 0;
  size_t off_mt_root_ = 0;
  size_t off_mr64_pivot_ = 0;
  size_t off_mr64_slot_ = 0;
  size_t off_ma64_pivot_ = 0;
  size_t off_ma64_slot_ = 0;
};

// ---------------------------------------------------------------------------
// Interpreter façade
// ---------------------------------------------------------------------------

Interpreter::Interpreter(dbg::KernelDebugger* debugger, InterpLimits limits)
    : debugger_(debugger), limits_(limits) {}

Interpreter::~Interpreter() = default;

namespace {

// Walks an expression tree collecting every inline box declaration, so the
// Load-time decorator audit sees `Box [ Text<bogus> x ]` too.
void CollectInlineBoxes(const Expr* e, std::vector<const BoxDecl*>* out);

void CollectBoxDecls(const BoxDecl* decl, std::vector<const BoxDecl*>* out) {
  out->push_back(decl);
  for (const ViewDecl& view : decl->views) {
    for (const ItemDecl& item : view.items) {
      CollectInlineBoxes(item.value.get(), out);
    }
    for (const Binding& binding : view.where) {
      CollectInlineBoxes(binding.value.get(), out);
    }
  }
  for (const Binding& binding : decl->where) {
    CollectInlineBoxes(binding.value.get(), out);
  }
}

void CollectInlineBoxes(const Expr* e, std::vector<const BoxDecl*>* out) {
  if (e == nullptr) {
    return;
  }
  if (e->kind == Expr::Kind::kInlineBox && e->inline_box != nullptr) {
    CollectBoxDecls(e->inline_box.get(), out);
    return;
  }
  for (const ExprPtr& kid : e->kids) {
    CollectInlineBoxes(kid.get(), out);
  }
  for (const SwitchCase& sc : e->cases) {
    for (const ExprPtr& label : sc.labels) {
      CollectInlineBoxes(label.get(), out);
    }
    CollectInlineBoxes(sc.body.get(), out);
  }
  CollectInlineBoxes(e->otherwise.get(), out);
  if (e->for_each != nullptr) {
    for (const Binding& binding : e->for_each->bindings) {
      CollectInlineBoxes(binding.value.get(), out);
    }
    CollectInlineBoxes(e->for_each->yield.get(), out);
  }
}

}  // namespace

vl::Status Interpreter::Load(std::string_view source) {
  vl::ScopedSpan span("viewcl.parse");
  VL_ASSIGN_OR_RETURN(Program program, ParseViewCl(source));

  // Structured errors instead of the old silent behaviors: a duplicate
  // definition inside one chunk used to be last-writer-wins, and an unknown
  // decorator head only surfaced as a per-item eval warning.
  std::vector<const BoxDecl*> decls;
  std::map<std::string, int> chunk_lines;
  for (const std::unique_ptr<BoxDecl>& decl : program.defines) {
    auto [it, inserted] = chunk_lines.emplace(decl->name, decl->line);
    if (!inserted) {
      return vl::ParseError(vl::StrFormat("duplicate definition of '%s' at %d:%d (first "
                                          "defined at line %d)",
                                          decl->name.c_str(), decl->span.line, decl->span.col,
                                          it->second));
    }
    CollectBoxDecls(decl.get(), &decls);
  }
  for (const Binding& binding : program.bindings) {
    CollectInlineBoxes(binding.value.get(), &decls);
  }
  for (const ExprPtr& plot : program.plots) {
    CollectInlineBoxes(plot.get(), &decls);
  }
  for (const BoxDecl* decl : decls) {
    for (const ViewDecl& view : decl->views) {
      for (const ItemDecl& item : view.items) {
        // Only unknown heads are rejected here: argument problems (e.g. an
        // emoji set registered after Load) stay legal until lint/eval.
        if (CheckDecoratorSpec(debugger_->types(), &emoji_, item.decorator) ==
            DecoratorIssue::kUnknownHead) {
          return vl::ParseError(vl::StrFormat("unknown decorator '%s' at %d:%d",
                                              item.decorator.c_str(),
                                              item.decorator_span.line,
                                              item.decorator_span.col));
        }
      }
    }
  }
  if (load_validator_ != nullptr) {
    VL_RETURN_IF_ERROR(load_validator_(program, source));
  }
  // Plan gate: unlike the fail-fast validator, a refusal here still loads the
  // chunk — it just pins the program to the classic interpretation path.
  if (plan_gate_ != nullptr && !plan_blocked_ && !plan_gate_(program, source)) {
    plan_blocked_ = true;
  }
  program_version_++;

  for (std::unique_ptr<BoxDecl>& decl : program.defines) {
    defines_[decl->name] = decl.get();
    owned_decls_.push_back(std::move(decl));
  }
  for (Binding& binding : program.bindings) {
    bindings_.push_back(std::move(binding));
  }
  for (ExprPtr& plot : program.plots) {
    plots_.push_back(std::move(plot));
  }
  // A new chunk can redefine declarations out from under the snapshots;
  // memoization restarts from the next Run.
  memo_.clear();
  return vl::Status::Ok();
}

vl::StatusOr<std::unique_ptr<ViewGraph>> Interpreter::Run() {
  warnings_.clear();
  MaybeRunPlan();
  RunState state(this);
  return state.Run();
}

void Interpreter::MaybeRunPlan() {
  // Prefetch is only profitable through a block cache: every plan read must
  // land somewhere the interpreter's identical read can hit.
  if (!limits_.compile_plans || plan_blocked_ ||
      !debugger_->session().cache_enabled()) {
    return;
  }
  vl::ScopedSpan span("viewcl.plan");
  vl::MetricsRegistry& metrics = vl::MetricsRegistry::Instance();
  if (plan_ == nullptr || plan_version_ != program_version_) {
    plan_ = CompilePlan(defines_, bindings_, plots_, debugger_);
    plan_version_ = program_version_;
    metrics.GetCounter("plan.compiles")->Add();
  } else {
    metrics.GetCounter("plan.cache_hits")->Add();
  }
  PlanExecOptions opts;
  opts.max_boxes = limits_.max_boxes;
  opts.max_container_elems = limits_.max_container_elems;
  opts.workers = limits_.plan_workers;
  opts.parallel_min = limits_.plan_parallel_min;
  ExecutePlan(plan_.get(), debugger_, opts);
}

vl::Json Interpreter::PlanToJson() const {
  if (plan_blocked_) {
    vl::Json j = vl::Json::Object();
    j["blocked"] = vl::Json::Bool(true);
    return j;
  }
  if (plan_ == nullptr) {
    return vl::Json::Null();
  }
  return plan_->ToJson();
}

}  // namespace viewcl

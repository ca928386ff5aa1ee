#include "src/viewcl/plan.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/dbg/expr.h"
#include "src/dbg/read_session.h"
#include "src/support/metrics.h"
#include "src/support/str.h"
#include "src/vkern/kstructs.h"

namespace viewcl {

using dbg::Type;
using dbg::TypeKind;
using dbg::Value;

// ---------------------------------------------------------------------------
// Plan representation
// ---------------------------------------------------------------------------

namespace plan_internal {

struct PlanBox;
struct PContainer;

// A value expression lowered at compile time. kThisPath is the fully typed
// fast path (pure offset arithmetic over the box address); kEvalC is the
// universal fallback — safe to run mid-execution because the enclosing
// object's bytes were fetched by the same wavefront, so the evaluation hits
// the block cache instead of issuing round trips.
struct PExpr {
  enum class Kind { kBail, kNull, kInt, kVar, kEvalC, kThisPath };
  Kind kind = Kind::kBail;
  uint64_t ival = 0;           // kInt
  std::string text;            // kVar name
  std::shared_ptr<const dbg::CExpr> cexpr;  // kEvalC
  size_t offset = 0;           // kThisPath: accumulated field offset
  const Type* type = nullptr;  // kThisPath: final field type
  bool address_of = false;     // kThisPath: `&@this....`

  std::string Describe() const {
    switch (kind) {
      case Kind::kBail:
        return "<bail>";
      case Kind::kNull:
        return "NULL";
      case Kind::kInt:
        return vl::StrFormat("%llu", static_cast<unsigned long long>(ival));
      case Kind::kVar:
        return "@" + text;
      case Kind::kEvalC:
        return "${" + cexpr->text() + "}";
      case Kind::kThisPath:
        return vl::StrFormat("%s@this+0x%zx:%s", address_of ? "&" : "", offset,
                             type != nullptr ? type->name.c_str() : "?");
    }
    return "?";
  }
};

// One yield position: what a container element (or link/plot slot) expands
// into. kSpeculate covers switch expressions: every structural branch is
// executed unconditionally instead of evaluating the scrutinee — wrong-branch
// speculation costs spare prefetched bytes, never correctness.
struct PYield {
  enum class Kind { kNull, kBail, kBox, kContainer, kSpeculate };
  Kind kind = Kind::kBail;
  // kBox
  PlanBox* box = nullptr;
  PExpr arg;
  size_t anchor_off = 0;  // container_of: subtracted from the arg address
  // kSpeculate
  std::vector<std::unique_ptr<PYield>> branches;
  // kContainer
  std::unique_ptr<PContainer> container;
};

// A compiled container adapter instance.
struct PContainer {
  std::string kind;  // "List", "HList", "RBTree", "Array", ..., "selectFrom"
  PExpr head;
  PExpr count;                                          // Array: optional count
  std::string var;                                      // forEach variable
  std::vector<std::pair<std::string, PExpr>> bindings;  // forEach bindings
  std::unique_ptr<PYield> yield;                        // null for raw sets
  std::string select_box;  // selectFrom element box name
  bool ok = false;

  // Fanout profile: elements produced across executions of this op. Ops
  // that consistently produced nothing in *prior plan executions* stop being
  // speculated (re-probed every 16th plan run so state growth is picked up
  // eventually). prev_total_elems is the fold point: only history from
  // completed runs steers — a shared op touched 64 times within one run must
  // not starve itself mid-run.
  uint64_t total_elems = 0;
  uint64_t prev_total_elems = 0;
  uint64_t executions = 0;
};

struct PlanBox {
  const BoxDecl* decl = nullptr;
  const Type* type = nullptr;  // null => virtual box
  size_t size = 0;
  // Box-level + view-level wheres, in declaration order.
  std::vector<std::pair<std::string, PExpr>> wheres;
  // Link + container items across all views.
  std::vector<std::unique_ptr<PYield>> items;
  // Decorator string slots: expressions whose pointed-to bytes are worth
  // warming (FormatDecorated chases them outside the object span).
  std::vector<PExpr> strings;
  size_t bails = 0;
};

}  // namespace plan_internal

using plan_internal::PContainer;
using plan_internal::PExpr;
using plan_internal::PlanBox;
using plan_internal::PYield;

struct ExtractionPlan::Impl {
  std::map<const BoxDecl*, std::unique_ptr<PlanBox>> boxes;
  std::vector<std::pair<std::string, PExpr>> bindings;
  std::vector<std::unique_ptr<PYield>> plots;
  // Every container op in the plan, for end-of-run profile folds.
  std::vector<PContainer*> ops;
  size_t fallback_ops = 0;
  uint64_t executions = 0;
  PlanStats last;
};

// ---------------------------------------------------------------------------
// Compiler: AST -> plan, zero target reads
// ---------------------------------------------------------------------------

namespace {

class Compiler {
 public:
  Compiler(const std::map<std::string, const BoxDecl*>& defines,
           dbg::TypeRegistry* types, ExtractionPlan::Impl* impl)
      : defines_(defines), types_(types), impl_(impl) {}

  void Run(const std::vector<Binding>& bindings, const std::vector<ExprPtr>& plots) {
    for (const Binding& binding : bindings) {
      // The interpreter evaluates bindings eagerly, so a structural binding
      // (`buckets = Array(...).forEach ...` followed by `plot @buckets`) does
      // its traversal at binding time. Mirror that: compile structural values
      // as root yields; only scalar values land in the root environment.
      const Expr* value = binding.value.get();
      switch (value->kind) {
        case Expr::Kind::kContainerCtor:
        case Expr::Kind::kBoxCtor:
        case Expr::Kind::kSelectFrom:
        case Expr::Kind::kInlineBox:
        case Expr::Kind::kSwitch:
          impl_->plots.push_back(CompileYield(value, nullptr));
          break;
        default:
          impl_->bindings.emplace_back(binding.name,
                                       CompileExpr(value, nullptr));
          break;
      }
    }
    for (const ExprPtr& plot : plots) {
      impl_->plots.push_back(CompileYield(plot.get(), nullptr));
    }
  }

 private:
  void Bail(PlanBox* box) {
    impl_->fallback_ops++;
    if (box != nullptr) {
      box->bails++;
    }
  }

  PlanBox* GetBox(const BoxDecl* decl) {
    auto it = impl_->boxes.find(decl);
    if (it != impl_->boxes.end()) {
      return it->second.get();
    }
    // Insert before compiling the body: recursive declarations (Task links
    // to parent Task) resolve to the in-progress plan node.
    auto& slot = impl_->boxes[decl];
    slot = std::make_unique<PlanBox>();
    PlanBox* box = slot.get();
    box->decl = decl;
    if (!decl->kernel_type.empty()) {
      box->type = types_->FindByName(decl->kernel_type);
      box->size = box->type != nullptr ? box->type->size : 0;
      if (box->type == nullptr) {
        Bail(box);
      }
    }
    for (const Binding& binding : decl->where) {
      box->wheres.emplace_back(binding.name,
                               CompileExpr(binding.value.get(), box->type));
    }
    for (const ViewDecl& view : decl->views) {
      for (const Binding& binding : view.where) {
        box->wheres.emplace_back(binding.name,
                                 CompileExpr(binding.value.get(), box->type));
      }
      for (const ItemDecl& item : view.items) {
        CompileItem(box, item);
      }
    }
    return box;
  }

  void CompileItem(PlanBox* box, const ItemDecl& item) {
    if (item.kind == ItemDecl::Kind::kText) {
      // Plain text values live inside the object span; only `string`
      // decorators chase a pointer out of it, so only those get a slot.
      if (item.decorator.rfind("string", 0) == 0) {
        PExpr e = CompileExpr(item.value.get(), box->type);
        if (e.kind == PExpr::Kind::kEvalC || e.kind == PExpr::Kind::kThisPath) {
          box->strings.push_back(std::move(e));
        }
      }
      return;
    }
    box->items.push_back(CompileYield(item.value.get(), box));
  }

  std::unique_ptr<PYield> CompileYield(const Expr* expr, PlanBox* ctx) {
    auto y = std::make_unique<PYield>();
    if (expr == nullptr) {
      y->kind = PYield::Kind::kNull;
      return y;
    }
    const Type* this_type = ctx != nullptr ? ctx->type : nullptr;
    switch (expr->kind) {
      case Expr::Kind::kNull:
        y->kind = PYield::Kind::kNull;
        return y;
      case Expr::Kind::kBoxCtor: {
        auto it = defines_.find(expr->text);
        if (it == defines_.end()) {
          Bail(ctx);
          return y;  // kBail
        }
        y->arg = expr->kids.empty()
                     ? PExpr{}
                     : CompileExpr(expr->kids[0].get(), this_type);
        if (expr->kids.empty()) {
          y->arg.kind = PExpr::Kind::kNull;
        }
        if (y->arg.kind == PExpr::Kind::kBail) {
          Bail(ctx);
          return y;
        }
        if (!expr->path.empty()) {
          std::optional<size_t> off = AnchorOffset(expr->path);
          if (!off.has_value()) {
            Bail(ctx);
            return y;
          }
          y->anchor_off = *off;
        }
        y->box = GetBox(it->second);
        y->kind = PYield::Kind::kBox;
        return y;
      }
      case Expr::Kind::kInlineBox: {
        y->box = GetBox(expr->inline_box.get());
        y->arg.kind = PExpr::Kind::kNull;
        y->kind = PYield::Kind::kBox;
        return y;
      }
      case Expr::Kind::kSwitch: {
        for (const SwitchCase& sc : expr->cases) {
          AddBranch(y.get(), sc.body.get(), ctx);
        }
        if (expr->otherwise != nullptr) {
          AddBranch(y.get(), expr->otherwise.get(), ctx);
        }
        y->kind = y->branches.empty() ? PYield::Kind::kNull
                                      : PYield::Kind::kSpeculate;
        return y;
      }
      case Expr::Kind::kContainerCtor: {
        y->container = CompileContainer(expr, ctx);
        y->kind = PYield::Kind::kContainer;
        return y;
      }
      case Expr::Kind::kSelectFrom: {
        y->container = CompileSelectFrom(expr, ctx);
        y->kind = PYield::Kind::kContainer;
        return y;
      }
      default:
        // Scalar-valued yields (kCExpr/kAtRef/kInt/kFieldPath) create no
        // boxes; the enclosing object span already covers their reads.
        y->kind = PYield::Kind::kNull;
        return y;
    }
  }

  void AddBranch(PYield* y, const Expr* body, PlanBox* ctx) {
    std::unique_ptr<PYield> branch = CompileYield(body, ctx);
    if (branch->kind == PYield::Kind::kNull || branch->kind == PYield::Kind::kBail) {
      return;  // nothing structural to speculate (bails were counted)
    }
    y->branches.push_back(std::move(branch));
  }

  std::unique_ptr<PContainer> CompileContainer(const Expr* expr, PlanBox* ctx) {
    auto op = std::make_unique<PContainer>();
    op->kind = expr->text;
    const Type* this_type = ctx != nullptr ? ctx->type : nullptr;
    if (!expr->kids.empty()) {
      op->head = CompileExpr(expr->kids[0].get(), this_type);
    }
    op->count.kind = PExpr::Kind::kNull;
    if (expr->kids.size() > 1) {
      op->count = CompileExpr(expr->kids[1].get(), this_type);
    }
    if (expr->for_each != nullptr) {
      const ForEachClause* fe = expr->for_each.get();
      op->var = fe->var;
      for (const Binding& binding : fe->bindings) {
        op->bindings.emplace_back(binding.name,
                                  CompileExpr(binding.value.get(), this_type));
      }
      op->yield = CompileYield(fe->yield.get(), ctx);
    }
    bool known_kind = op->kind == "List" || op->kind == "HList" ||
                      op->kind == "RBTree" || op->kind == "Array" ||
                      op->kind == "XArray" || op->kind == "RadixTree" ||
                      op->kind == "MapleTree";
    op->ok = known_kind && op->head.kind != PExpr::Kind::kBail;
    if (!op->ok) {
      Bail(ctx);
    }
    impl_->ops.push_back(op.get());
    return op;
  }

  std::unique_ptr<PContainer> CompileSelectFrom(const Expr* expr, PlanBox* ctx) {
    auto op = std::make_unique<PContainer>();
    op->kind = "selectFrom";
    op->select_box = expr->text;
    op->var = "__entry";
    if (!expr->kids.empty()) {
      op->head = CompileExpr(expr->kids[0].get(),
                             ctx != nullptr ? ctx->type : nullptr);
    }
    auto it = defines_.find(expr->text);
    if (it != defines_.end() && op->head.kind != PExpr::Kind::kBail) {
      auto y = std::make_unique<PYield>();
      y->kind = PYield::Kind::kBox;
      y->box = GetBox(it->second);
      y->arg.kind = PExpr::Kind::kVar;
      y->arg.text = op->var;
      op->yield = std::move(y);
      op->ok = true;
    } else {
      Bail(ctx);
    }
    impl_->ops.push_back(op.get());
    return op;
  }

  PExpr CompileExpr(const Expr* expr, const Type* this_type) {
    PExpr out;
    if (expr == nullptr) {
      out.kind = PExpr::Kind::kNull;
      return out;
    }
    switch (expr->kind) {
      case Expr::Kind::kNull:
        out.kind = PExpr::Kind::kNull;
        return out;
      case Expr::Kind::kInt:
        out.kind = PExpr::Kind::kInt;
        out.ival = expr->ival;
        return out;
      case Expr::Kind::kAtRef:
        out.kind = PExpr::Kind::kVar;
        out.text = expr->text;
        return out;
      case Expr::Kind::kCExpr:
        return CompileCExpr(expr, this_type);
      case Expr::Kind::kFieldPath: {
        std::optional<PExpr> path = CompilePath(expr->path, false, this_type);
        if (path.has_value()) {
          return *path;
        }
        return MakeEvalC(dbg::CompileCExpression("@this." + vl::StrJoin(expr->path, ".")));
      }
      default:
        return out;  // kBail: structural expressions are not values here
    }
  }

  static PExpr MakeEvalC(std::shared_ptr<const dbg::CExpr> cexpr) {
    PExpr out;
    out.kind = PExpr::Kind::kEvalC;
    out.cexpr = std::move(cexpr);
    return out;
  }

  // Pattern-compiles `[&]@this(.field)*` texts to typed offsets; everything
  // else stays a (cache-warm) evaluation of the expression's compiled handle.
  PExpr CompileCExpr(const Expr* expr, const Type* this_type) {
    std::string_view s = expr->text;
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
      s.remove_prefix(1);
    }
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
      s.remove_suffix(1);
    }
    bool address_of = !s.empty() && s.front() == '&';
    if (address_of) {
      s.remove_prefix(1);
      while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
        s.remove_prefix(1);
      }
    }
    if (s.rfind("@this", 0) != 0) {
      return MakeEvalC(expr->cexpr);
    }
    s.remove_prefix(5);
    std::vector<std::string> path;
    while (!s.empty()) {
      if (s.front() != '.') {
        return MakeEvalC(expr->cexpr);
      }
      s.remove_prefix(1);
      size_t i = 0;
      while (i < s.size() && (std::isalnum(static_cast<unsigned char>(s[i])) ||
                              s[i] == '_')) {
        ++i;
      }
      if (i == 0) {
        return MakeEvalC(expr->cexpr);
      }
      path.emplace_back(s.substr(0, i));
      s.remove_prefix(i);
    }
    if (path.empty() && !address_of) {
      PExpr out;
      out.kind = PExpr::Kind::kVar;
      out.text = "this";
      return out;
    }
    std::optional<PExpr> compiled = CompilePath(path, address_of, this_type);
    return compiled.has_value() ? *compiled : MakeEvalC(expr->cexpr);
  }

  // Typed offsets for a member chain off @this; nullopt when the chain needs
  // evaluator semantics.
  std::optional<PExpr> CompilePath(const std::vector<std::string>& path, bool address_of,
                                   const Type* this_type) {
    if (this_type == nullptr) {
      return std::nullopt;
    }
    const Type* t = this_type;
    size_t offset = 0;
    for (const std::string& seg : path) {
      // Only plain aggregate member chains compile to offsets; a pointer or
      // array mid-path needs evaluator semantics (auto-deref, indexing).
      if (t == nullptr ||
          (t->kind != TypeKind::kStruct && t->kind != TypeKind::kUnion)) {
        return std::nullopt;
      }
      const dbg::Field* f = t->FindField(seg);
      if (f == nullptr) {
        return std::nullopt;
      }
      offset += f->offset;
      t = f->type;
    }
    PExpr out;
    out.kind = PExpr::Kind::kThisPath;
    out.offset = offset;
    out.type = t;
    out.address_of = address_of;
    return out;
  }

  std::optional<size_t> AnchorOffset(const std::vector<std::string>& path) {
    const Type* t = types_->FindByName(path[0]);
    if (t == nullptr) {
      return std::nullopt;
    }
    size_t total = 0;
    for (size_t i = 1; i < path.size(); ++i) {
      if (t->kind == TypeKind::kArray) {
        t = t->element;  // anchors through array fields address element 0
      }
      const dbg::Field* f = t != nullptr ? t->FindField(path[i]) : nullptr;
      if (f == nullptr) {
        return std::nullopt;
      }
      total += f->offset;
      t = f->type;
    }
    return total;
  }

  const std::map<std::string, const BoxDecl*>& defines_;
  dbg::TypeRegistry* types_;
  ExtractionPlan::Impl* impl_;
};

// ---------------------------------------------------------------------------
// Executor: wavefront-by-wavefront batched prefetch
// ---------------------------------------------------------------------------

// Node offsets/types the adapters need, resolved once per execution (the
// interpreter resolves the same set in RunState).
struct AdapterOffsets {
  bool ok = false;
  size_t list_next = 0, hlist_first = 0, hnode_next = 0;
  size_t rbroot_node = 0, rbcached_root = 0, rb_left = 0, rb_right = 0;
  size_t radix_rnode = 0, radix_shift = 0, radix_slots = 0;
  size_t mt_root = 0, mr64_pivot = 0, mr64_slot = 0, ma64_pivot = 0, ma64_slot = 0;
  size_t rb_node_size = 0, radix_node_size = 0, maple_node_size = 0;
  const Type* list_head_type = nullptr;
  const Type* hlist_node_type = nullptr;
  const Type* rb_node_type = nullptr;

  static AdapterOffsets Resolve(dbg::TypeRegistry& reg) {
    AdapterOffsets o;
    bool all = true;
    auto off = [&reg, &all](const char* type_name, const char* field) -> size_t {
      const Type* t = reg.FindByName(type_name);
      const dbg::Field* f = t != nullptr ? t->FindField(field) : nullptr;
      if (f == nullptr) {
        all = false;
        return 0;
      }
      return f->offset;
    };
    auto size_of = [&reg, &all](const char* type_name) -> size_t {
      const Type* t = reg.FindByName(type_name);
      if (t == nullptr) {
        all = false;
        return 0;
      }
      return t->size;
    };
    o.list_next = off("list_head", "next");
    o.hlist_first = off("hlist_head", "first");
    o.hnode_next = off("hlist_node", "next");
    o.rbroot_node = off("rb_root", "rb_node");
    o.rbcached_root = off("rb_root_cached", "rb_root");
    o.rb_left = off("rb_node", "rb_left");
    o.rb_right = off("rb_node", "rb_right");
    o.radix_rnode = off("radix_tree_root", "rnode");
    o.radix_shift = off("radix_tree_node", "shift");
    o.radix_slots = off("radix_tree_node", "slots");
    o.mt_root = off("maple_tree", "ma_root");
    o.mr64_pivot = off("maple_range_64", "pivot");
    o.mr64_slot = off("maple_range_64", "slot");
    o.ma64_pivot = off("maple_arange_64", "pivot");
    o.ma64_slot = off("maple_arange_64", "slot");
    o.rb_node_size = size_of("rb_node");
    o.radix_node_size = size_of("radix_tree_node");
    o.maple_node_size = size_of("maple_node");
    o.list_head_type = reg.FindByName("list_head");
    o.hlist_node_type = reg.FindByName("hlist_node");
    o.rb_node_type = reg.FindByName("rb_node");
    o.ok = all && o.list_head_type != nullptr && o.hlist_node_type != nullptr &&
           o.rb_node_type != nullptr;
    return o;
  }
};

// Read-only view of one wavefront's blocks for worker-thread decode. The
// snapshot map is immutable while workers run; the session itself is only
// ever touched by the coordinator thread.
struct SnapReader {
  const std::unordered_map<uint64_t, std::vector<uint8_t>>* snap;
  uint64_t block_mask;  // block_bytes - 1 (block_bytes is a power of two)

  bool Read(uint64_t addr, void* out, size_t len) const {
    char* dst = static_cast<char*>(out);
    while (len > 0) {
      uint64_t base = addr & ~block_mask;
      auto it = snap->find(base);
      if (it == snap->end()) {
        return false;
      }
      size_t offset = static_cast<size_t>(addr - base);
      if (offset >= it->second.size()) {
        return false;
      }
      size_t take = std::min(len, it->second.size() - offset);
      std::memcpy(dst, it->second.data() + offset, take);
      dst += take;
      addr += take;
      len -= take;
    }
    return true;
  }
};

// Coordinator-side reader: goes through the session (cache hits after the
// wavefront's FetchSpans; exact-range fallback for unreadable blocks).
struct SessionReader {
  dbg::ReadSession* session;

  bool Read(uint64_t addr, void* out, size_t len) const {
    return session->ReadBytes(addr, out, len).ok();
  }
};

using Env = dbg::Environment;

// Per-container-instance bookkeeping. Element budgets and the fanout profile
// are applied by the coordinator only; workers never touch this.
struct ContainerState {
  PContainer* op = nullptr;
  size_t elems = 0;
  const Type* elem_type = nullptr;  // element lvalue type; null => void* entry
};

struct Work {
  enum class Kind { kBox, kPtr, kRbNode, kRadixNode, kMapleNode, kArray, kString };
  // What a decoded kPtr pointer means.
  enum PtrStage : uint32_t {
    kPtrList = 0,
    kPtrHlist,
    kPtrRbRoot,
    kPtrRadixRoot,
    kPtrMapleRoot,
  };

  Kind kind = Kind::kBox;
  const PlanBox* box = nullptr;  // kBox
  // kBox: object address; kPtr: pointer cell location; kRbNode/kRadixNode:
  // node address; kMapleNode: encoded node (flag bits included); kArray: base.
  uint64_t addr = 0;
  // kPtr(list): head sentinel; kMapleNode: max pivot; kArray: element count.
  uint64_t aux = 0;
  // kPtr: PtrStage; kArray: element size.
  uint32_t stage = 0;
  std::shared_ptr<ContainerState> state;
  std::shared_ptr<Env> env;  // scope for complex yields / virtual boxes
  Value sval;                // kString: resolved pointer lvalue
  bool simple = false;       // worker-eligible (yield is Box(@var), no bindings)
};

// Decode output: element tokens (node/entry addresses — the coordinator turns
// them into typed values and boxes) plus continuation steps. Pure data; safe
// to produce on worker threads.
struct Emit {
  std::vector<uint64_t> tokens;
  std::vector<Work> steps;
  bool resolved = true;  // false: data missing (worker snapshot miss)
};

class Executor {
 public:
  Executor(ExtractionPlan::Impl* impl, dbg::KernelDebugger* dbg,
           const PlanExecOptions& opts)
      : impl_(impl),
        dbg_(dbg),
        session_(&dbg->session()),
        opts_(opts),
        offsets_(AdapterOffsets::Resolve(dbg->types())) {}

  PlanStats Run() {
    if (!session_->cache_enabled()) {
      return stats_;
    }
    // Root environment: top-level bindings, evaluated once. Cold reads here
    // are neutral — the interpreter performs the identical evaluation next
    // and hits the blocks these warm.
    auto root_env = std::make_shared<Env>();
    for (const auto& [name, expr] : impl_->bindings) {
      std::optional<Value> v = EvalPExpr(expr, *root_env);
      if (v.has_value()) {
        (*root_env)[name] = *v;
      }
    }
    for (const std::unique_ptr<PYield>& plot : impl_->plots) {
      ApplyYield(plot.get(), nullptr, std::string(), root_env);
    }

    std::unordered_map<uint64_t, std::vector<uint8_t>> snapshot;
    // Budgets bound total work; the wavefront cap is a last-ditch guard
    // against pathological (corrupted-pointer) topologies.
    constexpr uint64_t kMaxWavefronts = 1 << 16;
    while ((!next_works_.empty() || !next_spans_.empty()) &&
           stats_.wavefronts < kMaxWavefronts) {
      std::vector<Work> works = std::move(next_works_);
      std::vector<dbg::ReadSession::Span> spans = std::move(next_spans_);
      next_works_.clear();
      next_spans_.clear();
      stats_.wavefronts++;
      stats_.spans += spans.size();
      for (const dbg::ReadSession::Span& span : spans) {
        stats_.span_bytes += span.len;
      }
      size_t eligible = 0;
      for (const Work& w : works) {
        if (WorkerEligible(w)) {
          ++eligible;
        }
      }
      bool parallel = opts_.workers > 1 && eligible >= opts_.parallel_min;
      snapshot.clear();
      dbg::ReadSession::SpanFetch fetch =
          session_->FetchSpans(spans, parallel ? &snapshot : nullptr);
      stats_.batches += fetch.batches;
      if (parallel) {
        ProcessParallel(works, snapshot);
      } else {
        for (Work& w : works) {
          ProcessWork(w, nullptr);
        }
      }
    }

    impl_->executions++;
    impl_->last = stats_;
    for (PContainer* op : impl_->ops) {
      op->prev_total_elems = op->total_elems;
    }
    vl::MetricsRegistry& metrics = vl::MetricsRegistry::Instance();
    metrics.GetCounter("plan.executions")->Add();
    metrics.GetCounter("plan.wavefronts")->Add(stats_.wavefronts);
    metrics.GetCounter("plan.batches")->Add(stats_.batches);
    metrics.GetCounter("plan.spans")->Add(stats_.spans);
    metrics.GetCounter("plan.boxes")->Add(stats_.boxes);
    metrics.GetCounter("plan.steps")->Add(stats_.steps);
    metrics.GetCounter("plan.parallel_wavefronts")->Add(stats_.parallel_wavefronts);
    metrics.GetCounter("plan.steered_skips")->Add(stats_.steered_skips);
    metrics.GetCounter("plan.soft_errors")->Add(stats_.soft_errors);
    return stats_;
  }

 private:
  // --- wavefront plumbing ---

  void AddSpan(uint64_t addr, size_t len) {
    if (addr == 0 || len == 0) {
      return;
    }
    next_spans_.push_back(dbg::ReadSession::Span{addr, len});
  }

  void EmitWork(Work w) {
    switch (w.kind) {
      case Work::Kind::kBox:
        AddSpan(w.addr, w.box != nullptr ? w.box->size : 0);
        break;
      case Work::Kind::kPtr:
        AddSpan(w.addr, 8);
        break;
      case Work::Kind::kRbNode:
        AddSpan(w.addr, offsets_.rb_node_size);
        break;
      case Work::Kind::kRadixNode:
        AddSpan(w.addr, offsets_.radix_node_size);
        break;
      case Work::Kind::kMapleNode:
        AddSpan(w.addr & ~uint64_t{0xff}, offsets_.maple_node_size);
        break;
      case Work::Kind::kArray:
        AddSpan(w.addr, static_cast<size_t>(w.aux) * w.stage);
        break;
      case Work::Kind::kString:
        break;  // spans were added when the slot was resolved
    }
    next_works_.push_back(std::move(w));
  }

  static bool WorkerEligible(const Work& w) {
    switch (w.kind) {
      case Work::Kind::kPtr:
      case Work::Kind::kRbNode:
      case Work::Kind::kRadixNode:
      case Work::Kind::kMapleNode:
      case Work::Kind::kArray:
        return w.simple;
      default:
        return false;
    }
  }

  void ProcessParallel(std::vector<Work>& works,
                       const std::unordered_map<uint64_t, std::vector<uint8_t>>& snapshot) {
    stats_.parallel_wavefronts++;
    std::vector<size_t> par;  // indices of worker-eligible steps
    for (size_t i = 0; i < works.size(); ++i) {
      if (WorkerEligible(works[i])) {
        par.push_back(i);
      }
    }
    std::vector<Emit> results(par.size());
    SnapReader reader{&snapshot, session_->config().block_bytes - 1};
    int nthreads = static_cast<int>(
        std::min<size_t>(static_cast<size_t>(opts_.workers), par.size()));
    // Workers only read the immutable snapshot and write disjoint result
    // slots; every session/cache access and all bookkeeping stays here on
    // the coordinator.
    std::vector<std::thread> threads;
    threads.reserve(nthreads);
    for (int t = 0; t < nthreads; ++t) {
      threads.emplace_back([this, t, nthreads, &par, &works, &results, &reader] {
        for (size_t i = static_cast<size_t>(t); i < par.size();
             i += static_cast<size_t>(nthreads)) {
          results[i] = Decode(works[par[i]], reader);
        }
      });
    }
    for (std::thread& th : threads) {
      th.join();
    }
    // Apply in original order so parallel wavefronts discover work in the
    // same sequence serial ones do.
    size_t next_result = 0;
    for (size_t i = 0; i < works.size(); ++i) {
      if (next_result < par.size() && par[next_result] == i) {
        ProcessWork(works[i], &results[next_result]);
        ++next_result;
      } else {
        ProcessWork(works[i], nullptr);
      }
    }
  }

  void ProcessWork(Work& w, const Emit* precomputed) {
    switch (w.kind) {
      case Work::Kind::kBox:
        ExpandBox(w);
        return;
      case Work::Kind::kString:
        ProcessString(w);
        return;
      default:
        break;
    }
    stats_.steps++;
    SessionReader reader{session_};
    Emit fallback;
    const Emit* emit = precomputed;
    if (emit == nullptr || !emit->resolved) {
      // No worker result (serial wavefront) or snapshot miss: decode through
      // the session, which fetches the exact range on a cache miss.
      fallback = Decode(w, reader);
      emit = &fallback;
    }
    if (!emit->resolved) {
      stats_.soft_errors++;  // genuinely unreadable; subtree stays cold
      return;
    }
    ApplyTokens(w, emit->tokens);
    for (const Work& step : emit->steps) {
      if (step.state != nullptr &&
          step.state->elems >= opts_.max_container_elems) {
        continue;  // budget exhausted; stop chasing this container
      }
      EmitWork(step);
    }
  }

  // --- decode (thread-safe: touches only the work item and the reader) ---

  template <typename Reader>
  Emit Decode(const Work& w, const Reader& r) const {
    Emit out;
    switch (w.kind) {
      case Work::Kind::kPtr: {
        uint64_t p = 0;
        if (!r.Read(w.addr, &p, 8)) {
          out.resolved = false;
          return out;
        }
        switch (w.stage) {
          case Work::kPtrList:
            if (p != 0 && p != w.aux) {
              out.tokens.push_back(p);
              Work next = w;
              next.addr = p + offsets_.list_next;
              out.steps.push_back(std::move(next));
            }
            break;
          case Work::kPtrHlist:
            if (p != 0) {
              out.tokens.push_back(p);
              Work next = w;
              next.addr = p + offsets_.hnode_next;
              out.steps.push_back(std::move(next));
            }
            break;
          case Work::kPtrRbRoot:
            if (p != 0) {
              out.tokens.push_back(p);
              Work next = w;
              next.kind = Work::Kind::kRbNode;
              next.addr = p;
              out.steps.push_back(std::move(next));
            }
            break;
          case Work::kPtrRadixRoot:
            if (p != 0) {
              Work next = w;
              next.kind = Work::Kind::kRadixNode;
              next.addr = p;
              out.steps.push_back(std::move(next));
            }
            break;
          case Work::kPtrMapleRoot:
            if (p != 0) {
              if ((p & 2) == 0) {
                out.tokens.push_back(p);  // direct entry at the root
              } else {
                Work next = w;
                next.kind = Work::Kind::kMapleNode;
                next.addr = p;
                next.aux = ~uint64_t{0};
                out.steps.push_back(std::move(next));
              }
            }
            break;
        }
        return out;
      }
      case Work::Kind::kRbNode: {
        // BFS instead of the interpreter's in-order walk: visit order is
        // irrelevant for prefetch, and siblings batch into one wavefront.
        uint64_t left = 0, right = 0;
        if (!r.Read(w.addr + offsets_.rb_left, &left, 8) ||
            !r.Read(w.addr + offsets_.rb_right, &right, 8)) {
          out.resolved = false;
          return out;
        }
        for (uint64_t child : {left, right}) {
          if (child != 0) {
            out.tokens.push_back(child);
            Work next = w;
            next.addr = child;
            out.steps.push_back(std::move(next));
          }
        }
        return out;
      }
      case Work::Kind::kRadixNode: {
        uint8_t shift = 0;
        if (!r.Read(w.addr + offsets_.radix_shift, &shift, 1)) {
          out.resolved = false;
          return out;
        }
        for (int i = 0; i < vkern::kRadixTreeMapSize; ++i) {
          uint64_t slot = 0;
          if (!r.Read(w.addr + offsets_.radix_slots + static_cast<uint64_t>(i) * 8,
                      &slot, 8)) {
            out.resolved = false;
            return out;
          }
          if (slot == 0) {
            continue;
          }
          if (shift == 0) {
            out.tokens.push_back(slot);
          } else {
            Work next = w;
            next.kind = Work::Kind::kRadixNode;
            next.addr = slot;
            out.steps.push_back(std::move(next));
          }
        }
        return out;
      }
      case Work::Kind::kMapleNode: {
        uint64_t node = w.addr & ~uint64_t{0xff};
        uint32_t type = (w.addr >> 3) & 0xf;
        bool leaf = type < vkern::maple_range_64;
        bool arange = type == vkern::maple_arange_64;
        uint64_t pivot_off = arange ? offsets_.ma64_pivot : offsets_.mr64_pivot;
        uint64_t slot_off = arange ? offsets_.ma64_slot : offsets_.mr64_slot;
        uint32_t pivots = arange ? vkern::kMapleArange64Slots - 1
                                 : vkern::kMapleRange64Slots - 1;
        uint64_t max = w.aux;
        for (uint32_t i = 0; i <= pivots; ++i) {
          uint64_t slot_max = max;
          if (i < pivots) {
            if (!r.Read(node + pivot_off + i * 8ull, &slot_max, 8)) {
              out.resolved = false;
              return out;
            }
            if (slot_max == 0 || slot_max >= max) {
              slot_max = max;  // terminator: this is the last slot
            }
          }
          uint64_t entry = 0;
          if (!r.Read(node + slot_off + i * 8ull, &entry, 8)) {
            out.resolved = false;
            return out;
          }
          if (entry != 0) {
            if (leaf) {
              out.tokens.push_back(entry);
            } else {
              Work next = w;
              next.kind = Work::Kind::kMapleNode;
              next.addr = entry;
              next.aux = slot_max;
              out.steps.push_back(std::move(next));
            }
          }
          if (slot_max == max) {
            break;
          }
        }
        return out;
      }
      case Work::Kind::kArray: {
        // Pure token generation: element lvalues at base + i*size. The span
        // already covers the array bytes, so yields evaluate cache-warm.
        for (uint64_t i = 0; i < w.aux; ++i) {
          out.tokens.push_back(w.addr + i * w.stage);
        }
        return out;
      }
      default:
        return out;
    }
  }

  // --- coordinator-side application ---

  void ApplyTokens(Work& w, const std::vector<uint64_t>& tokens) {
    if (tokens.empty() || w.state == nullptr) {
      return;
    }
    ContainerState* state = w.state.get();
    PContainer* op = state->op;
    const PYield* yield = op->yield.get();
    for (uint64_t token : tokens) {
      if (state->elems >= opts_.max_container_elems) {
        return;
      }
      state->elems++;
      op->total_elems++;
      if (yield == nullptr) {
        continue;  // raw set: the node spans themselves are the prefetch
      }
      Value elem =
          state->elem_type != nullptr
              ? Value::MakeLValue(state->elem_type, token)
              : Value::MakePointer(
                    dbg_->types().PointerTo(dbg_->types().void_type()), token);
      if (w.simple) {
        // Fast path: `yield Box<anchor>(@var)` — token to address, no env.
        std::optional<uint64_t> addr = ObjectAddrOf(elem);
        if (addr.has_value() && *addr != 0) {
          EmitBox(yield->box, *addr - yield->anchor_off);
        }
        continue;
      }
      std::shared_ptr<Env> env = ExtendEnv(w.env, op->var, &elem, op);
      ApplyYield(yield, &elem, op->var, env);
    }
  }

  // `env` is already extended with the forEach var + bindings when `elem`
  // is set (mirrors the interpreter's iteration scope).
  void ApplyYield(const PYield* y, const Value* elem, const std::string& var,
                  const std::shared_ptr<Env>& env) {
    if (y == nullptr) {
      return;
    }
    switch (y->kind) {
      case PYield::Kind::kNull:
      case PYield::Kind::kBail:
        return;
      case PYield::Kind::kSpeculate:
        for (const std::unique_ptr<PYield>& branch : y->branches) {
          ApplyYield(branch.get(), elem, var, env);
        }
        return;
      case PYield::Kind::kContainer:
        StartContainer(y->container.get(), env);
        return;
      case PYield::Kind::kBox: {
        if (y->box == nullptr) {
          return;
        }
        if (y->arg.kind == PExpr::Kind::kNull && y->box->type == nullptr) {
          // Inline virtual box: instantiated in the enclosing scope.
          ExpandVirtual(y->box, env);
          return;
        }
        uint64_t addr = 0;
        if (elem != nullptr && y->arg.kind == PExpr::Kind::kVar &&
            y->arg.text == var) {
          std::optional<uint64_t> a = ObjectAddrOf(*elem);
          if (!a.has_value()) {
            stats_.soft_errors++;
            return;
          }
          addr = *a;
        } else {
          std::optional<Value> v = EvalPExpr(y->arg, *env);
          if (!v.has_value()) {
            return;  // unbound/null argument: nothing to prefetch
          }
          std::optional<uint64_t> a = ObjectAddrOf(*v);
          if (!a.has_value()) {
            stats_.soft_errors++;
            return;
          }
          addr = *a;
        }
        if (addr == 0) {
          return;
        }
        addr -= y->anchor_off;
        if (y->box->type == nullptr) {
          // Named virtual box: the interpreter instantiates it with no
          // lexical scope.
          ExpandVirtual(y->box, nullptr);
          return;
        }
        EmitBox(y->box, addr);
        return;
      }
    }
  }

  void EmitBox(const PlanBox* box, uint64_t addr) {
    if (box == nullptr || addr == 0 || box->type == nullptr) {
      return;
    }
    if (visited_.size() >= opts_.max_boxes) {
      return;
    }
    if (!visited_.emplace(box->decl, addr).second) {
      return;  // interning: shared/cyclic structures terminate
    }
    Work w;
    w.kind = Work::Kind::kBox;
    w.box = box;
    w.addr = addr;
    EmitWork(std::move(w));
  }

  // Expands a fetched non-virtual box: wheres into a fresh `this` scope,
  // then every item yield. Runs in the same wavefront that fetched the
  // object's span, so the evaluations below are cache hits.
  void ExpandBox(const Work& w) {
    stats_.boxes++;
    auto env = std::make_shared<Env>();
    env->emplace("this", Value::MakeLValue(w.box->type, w.addr));
    ExpandInto(w.box, env);
  }

  void ExpandVirtual(const PlanBox* box, const std::shared_ptr<Env>& lexical) {
    if (box == nullptr || virtual_depth_ >= 64) {
      return;
    }
    stats_.boxes++;
    auto env = lexical != nullptr ? std::make_shared<Env>(*lexical)
                                  : std::make_shared<Env>();
    virtual_depth_++;
    ExpandInto(box, env);
    virtual_depth_--;
  }

  void ExpandInto(const PlanBox* box, const std::shared_ptr<Env>& env) {
    for (const auto& [name, expr] : box->wheres) {
      std::optional<Value> v = EvalPExpr(expr, *env);
      if (v.has_value()) {
        (*env)[name] = *v;
      }
    }
    for (const std::unique_ptr<PYield>& item : box->items) {
      ApplyYield(item.get(), nullptr, std::string(), env);
    }
    for (const PExpr& slot : box->strings) {
      StartString(slot, *env);
    }
  }

  // Decorator string slots: warm the bytes FormatDecorated will chase.
  void StartString(const PExpr& slot, const Env& env) {
    std::optional<Value> v = EvalPExpr(slot, env);
    if (!v.has_value() || v->type() == nullptr) {
      return;
    }
    if (v->is_lvalue()) {
      if (v->type()->kind == TypeKind::kPointer) {
        // Two hops: the pointer cell (covered by the object span when the
        // field is inline) now, the pointed-to bytes next wavefront.
        AddSpan(v->addr(), 8);
        Work w;
        w.kind = Work::Kind::kString;
        w.sval = *v;
        next_works_.push_back(std::move(w));
      } else if (v->type()->size != 0) {
        AddSpan(v->addr(), std::min<size_t>(v->type()->size, 256));
      }
      return;
    }
    if (v->type()->kind == TypeKind::kPointer && v->bits() != 0) {
      AddSpan(v->bits(), 64);
    }
  }

  void ProcessString(Work& w) {
    vl::StatusOr<Value> loaded = w.sval.Load(session_);
    if (!loaded.ok()) {
      stats_.soft_errors++;
      return;
    }
    if (loaded->bits() != 0) {
      AddSpan(loaded->bits(), 64);  // first string chunk; plenty for names
    }
  }

  void StartContainer(PContainer* op, const std::shared_ptr<Env>& env) {
    if (op == nullptr || !op->ok || !offsets_.ok) {
      return;
    }
    // Profile steering: an op that produced no elements across prior plan
    // executions is not worth a wavefront; skip it (the interpreter still
    // covers it) and re-probe every 16th plan run in case the structure
    // grew. Only completed-run history steers — never counts from the run
    // in flight, so the first (cold) execution is always exhaustive.
    const uint64_t plan_runs = impl_->executions;  // completed runs only
    if (plan_runs >= 2 && op->prev_total_elems == 0 && (plan_runs % 16) != 0) {
      op->executions++;
      stats_.steered_skips++;
      return;
    }
    op->executions++;
    std::optional<Value> head = EvalPExpr(op->head, *env);
    if (!head.has_value()) {
      stats_.soft_errors++;
      return;
    }
    auto state = std::make_shared<ContainerState>();
    state->op = op;
    Work w;
    w.kind = Work::Kind::kPtr;
    w.state = state;
    w.env = env;
    w.simple = IsSimpleYield(op);

    const std::string& kind = op->kind;
    if (kind == "List") {
      std::optional<uint64_t> addr = ObjectAddrOf(*head);
      if (!addr.has_value() || *addr == 0) {
        return;
      }
      state->elem_type = offsets_.list_head_type;
      w.stage = Work::kPtrList;
      w.addr = *addr + offsets_.list_next;
      w.aux = *addr;  // sentinel: the walk stops back at the head
      EmitWork(std::move(w));
      return;
    }
    if (kind == "HList") {
      std::optional<uint64_t> addr = ObjectAddrOf(*head);
      if (!addr.has_value() || *addr == 0) {
        return;
      }
      state->elem_type = offsets_.hlist_node_type;
      w.stage = Work::kPtrHlist;
      w.addr = *addr + offsets_.hlist_first;
      EmitWork(std::move(w));
      return;
    }
    if (kind == "RBTree") {
      Value cursor = *head;
      if (cursor.type() != nullptr && cursor.type()->kind == TypeKind::kPointer) {
        vl::StatusOr<Value> deref = cursor.Deref(session_, &dbg_->types());
        if (!deref.ok()) {
          stats_.soft_errors++;
          return;
        }
        cursor = *deref;
      }
      uint64_t root_addr;
      if (cursor.type() != nullptr && cursor.type()->name == "rb_root_cached") {
        root_addr = cursor.addr() + offsets_.rbcached_root;
      } else {
        root_addr = cursor.is_lvalue() ? cursor.addr() : cursor.bits();
      }
      if (root_addr == 0) {
        return;
      }
      state->elem_type = offsets_.rb_node_type;
      w.stage = Work::kPtrRbRoot;
      w.addr = root_addr + offsets_.rbroot_node;
      EmitWork(std::move(w));
      return;
    }
    if (kind == "Array") {
      StartArray(op, *head, std::move(w), state, env);
      return;
    }
    if (kind == "XArray" || kind == "RadixTree") {
      std::optional<uint64_t> addr = ObjectAddrOf(*head);
      if (!addr.has_value() || *addr == 0) {
        return;
      }
      w.stage = Work::kPtrRadixRoot;
      w.addr = *addr + offsets_.radix_rnode;
      EmitWork(std::move(w));
      return;
    }
    if (kind == "MapleTree") {
      std::optional<uint64_t> addr = ObjectAddrOf(*head);
      if (!addr.has_value() || *addr == 0) {
        return;
      }
      w.stage = Work::kPtrMapleRoot;
      w.addr = *addr + offsets_.mt_root;
      EmitWork(std::move(w));
      return;
    }
    if (kind == "selectFrom") {
      Value source = *head;
      if (source.type() != nullptr && source.type()->kind == TypeKind::kPointer) {
        vl::StatusOr<Value> deref = source.Deref(session_, &dbg_->types());
        if (!deref.ok()) {
          stats_.soft_errors++;
          return;
        }
        source = *deref;
      }
      uint64_t addr = source.addr();
      const std::string type_name =
          source.type() != nullptr ? source.type()->name : "";
      if (type_name == "maple_tree") {
        w.stage = Work::kPtrMapleRoot;
        w.addr = addr + offsets_.mt_root;
      } else if (type_name == "radix_tree_root" || type_name == "address_space") {
        if (type_name == "address_space") {
          const Type* as = dbg_->types().FindByName("address_space");
          const dbg::Field* f = as != nullptr ? as->FindField("i_pages") : nullptr;
          if (f == nullptr) {
            return;
          }
          addr += f->offset;
        }
        w.stage = Work::kPtrRadixRoot;
        w.addr = addr + offsets_.radix_rnode;
      } else {
        return;  // unknown distill source; interpreter handles it
      }
      if (addr == 0) {
        return;
      }
      EmitWork(std::move(w));
      return;
    }
  }

  void StartArray(PContainer* op, const Value& head, Work w,
                  const std::shared_ptr<ContainerState>& state,
                  const std::shared_ptr<Env>& env) {
    uint64_t base;
    const Type* elem;
    size_t n;
    if (head.is_lvalue() && head.type() != nullptr &&
        head.type()->kind == TypeKind::kArray) {
      base = head.addr();
      elem = head.type()->element;
      n = head.type()->array_len;
    } else if (head.type() != nullptr && head.type()->kind == TypeKind::kPointer) {
      vl::StatusOr<Value> loaded = head.Load(session_);
      if (!loaded.ok()) {
        stats_.soft_errors++;
        return;
      }
      base = loaded->bits();
      elem = loaded->type() != nullptr ? loaded->type()->pointee : nullptr;
      n = opts_.max_container_elems;  // bounded below by the count argument
    } else {
      return;
    }
    if (op->count.kind != PExpr::Kind::kNull) {
      std::optional<Value> count = EvalPExpr(op->count, *env);
      if (count.has_value()) {
        std::optional<uint64_t> bits = ScalarBitsOf(*count);
        if (bits.has_value()) {
          n = std::min<size_t>(n, static_cast<size_t>(*bits));
        }
      }
    } else if (!(head.is_lvalue() && head.type() != nullptr &&
                 head.type()->kind == TypeKind::kArray)) {
      return;  // Array(pointer) requires an explicit count
    }
    n = std::min(n, opts_.max_container_elems);
    if (base == 0 || elem == nullptr || elem->size == 0 || n == 0) {
      return;
    }
    state->elem_type = elem;
    w.kind = Work::Kind::kArray;
    w.addr = base;
    w.aux = n;
    w.stage = static_cast<uint32_t>(elem->size);
    EmitWork(std::move(w));
  }

  static bool IsSimpleYield(const PContainer* op) {
    return op->yield != nullptr && op->yield->kind == PYield::Kind::kBox &&
           op->yield->box != nullptr && op->yield->box->type != nullptr &&
           op->yield->arg.kind == PExpr::Kind::kVar &&
           op->yield->arg.text == op->var && op->bindings.empty();
  }

  // --- value plumbing (coordinator only) ---

  std::shared_ptr<Env> ExtendEnv(const std::shared_ptr<Env>& base,
                                 const std::string& var, const Value* elem,
                                 const PContainer* op) {
    auto env = base != nullptr ? std::make_shared<Env>(*base)
                               : std::make_shared<Env>();
    if (elem != nullptr && !var.empty()) {
      (*env)[var] = *elem;
    }
    if (op != nullptr) {
      for (const auto& [name, expr] : op->bindings) {
        std::optional<Value> v = EvalPExpr(expr, *env);
        if (v.has_value()) {
          (*env)[name] = *v;
        }
      }
    }
    return env;
  }

  std::optional<Value> EvalPExpr(const PExpr& e, const Env& env) {
    switch (e.kind) {
      case PExpr::Kind::kBail:
      case PExpr::Kind::kNull:
        return std::nullopt;
      case PExpr::Kind::kInt:
        return Value::MakeInt(dbg_->types().u64(), e.ival);
      case PExpr::Kind::kVar: {
        auto it = env.find(e.text);
        if (it == env.end()) {
          return std::nullopt;
        }
        return it->second;
      }
      case PExpr::Kind::kThisPath: {
        auto it = env.find("this");
        if (it == env.end() || !it->second.is_lvalue()) {
          return std::nullopt;
        }
        uint64_t addr = it->second.addr() + e.offset;
        if (e.address_of) {
          const Type* t = e.type != nullptr ? e.type : dbg_->types().void_type();
          return Value::MakePointer(dbg_->types().PointerTo(t), addr);
        }
        return Value::MakeLValue(e.type, addr);
      }
      case PExpr::Kind::kEvalC: {
        dbg::EnvironmentRefs refs(&env);
        vl::StatusOr<Value> v = e.cexpr->Eval(&dbg_->context(), &refs);
        if (!v.ok()) {
          return std::nullopt;
        }
        return *v;
      }
    }
    return std::nullopt;
  }

  std::optional<uint64_t> ObjectAddrOf(const Value& v) {
    if (v.is_lvalue()) {
      if (v.type() != nullptr && v.type()->kind == TypeKind::kPointer) {
        vl::StatusOr<Value> loaded = v.Load(session_);
        if (!loaded.ok()) {
          return std::nullopt;
        }
        return loaded->bits();
      }
      return v.addr();
    }
    return v.bits();
  }

  std::optional<uint64_t> ScalarBitsOf(const Value& v) {
    vl::StatusOr<Value> loaded = v.Load(session_);
    if (!loaded.ok()) {
      return std::nullopt;
    }
    return loaded->is_lvalue() ? loaded->addr() : loaded->bits();
  }

  ExtractionPlan::Impl* impl_;
  dbg::KernelDebugger* dbg_;
  dbg::ReadSession* session_;
  PlanExecOptions opts_;
  AdapterOffsets offsets_;
  PlanStats stats_;
  std::vector<Work> next_works_;
  std::vector<dbg::ReadSession::Span> next_spans_;
  std::set<std::pair<const BoxDecl*, uint64_t>> visited_;
  int virtual_depth_ = 0;
};

// --- DAG dump helpers ---

vl::Json YieldToJson(const PYield* y);

vl::Json ContainerToJson(const PContainer* op) {
  vl::Json j = vl::Json::Object();
  j["adapter"] = vl::Json::Str(op->kind);
  j["head"] = vl::Json::Str(op->head.Describe());
  if (op->count.kind != PExpr::Kind::kNull) {
    j["count"] = vl::Json::Str(op->count.Describe());
  }
  if (!op->var.empty()) {
    j["var"] = vl::Json::Str(op->var);
  }
  if (!op->select_box.empty()) {
    j["select"] = vl::Json::Str(op->select_box);
  }
  j["ok"] = vl::Json::Bool(op->ok);
  if (op->yield != nullptr) {
    j["yield"] = YieldToJson(op->yield.get());
  }
  j["executions"] = vl::Json::Int(static_cast<int64_t>(op->executions));
  j["fanout_avg"] = vl::Json::Number(
      op->executions > 0 ? static_cast<double>(op->total_elems) /
                               static_cast<double>(op->executions)
                         : 0.0);
  return j;
}

vl::Json YieldToJson(const PYield* y) {
  vl::Json j = vl::Json::Object();
  switch (y->kind) {
    case PYield::Kind::kNull:
      j["kind"] = vl::Json::Str("null");
      break;
    case PYield::Kind::kBail:
      j["kind"] = vl::Json::Str("bail");
      break;
    case PYield::Kind::kBox:
      j["kind"] = vl::Json::Str("box");
      j["target"] = vl::Json::Str(y->box != nullptr ? y->box->decl->name : "?");
      j["arg"] = vl::Json::Str(y->arg.Describe());
      if (y->anchor_off != 0) {
        j["anchor_off"] = vl::Json::Int(static_cast<int64_t>(y->anchor_off));
      }
      break;
    case PYield::Kind::kSpeculate: {
      j["kind"] = vl::Json::Str("speculate");
      vl::Json branches = vl::Json::Array();
      for (const std::unique_ptr<PYield>& b : y->branches) {
        branches.Append(YieldToJson(b.get()));
      }
      j["branches"] = std::move(branches);
      break;
    }
    case PYield::Kind::kContainer:
      j["kind"] = vl::Json::Str("container");
      if (y->container != nullptr) {
        j["container"] = ContainerToJson(y->container.get());
      }
      break;
  }
  return j;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

vl::Json PlanStats::ToJson() const {
  vl::Json j = vl::Json::Object();
  j["wavefronts"] = vl::Json::Int(static_cast<int64_t>(wavefronts));
  j["batches"] = vl::Json::Int(static_cast<int64_t>(batches));
  j["spans"] = vl::Json::Int(static_cast<int64_t>(spans));
  j["span_bytes"] = vl::Json::Int(static_cast<int64_t>(span_bytes));
  j["boxes"] = vl::Json::Int(static_cast<int64_t>(boxes));
  j["steps"] = vl::Json::Int(static_cast<int64_t>(steps));
  j["parallel_wavefronts"] = vl::Json::Int(static_cast<int64_t>(parallel_wavefronts));
  j["steered_skips"] = vl::Json::Int(static_cast<int64_t>(steered_skips));
  j["soft_errors"] = vl::Json::Int(static_cast<int64_t>(soft_errors));
  return j;
}

ExtractionPlan::ExtractionPlan(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
ExtractionPlan::~ExtractionPlan() = default;

bool ExtractionPlan::complete() const { return impl_->fallback_ops == 0; }
size_t ExtractionPlan::fallback_ops() const { return impl_->fallback_ops; }
size_t ExtractionPlan::box_count() const { return impl_->boxes.size(); }
uint64_t ExtractionPlan::executions() const { return impl_->executions; }
const PlanStats& ExtractionPlan::last_stats() const { return impl_->last; }

vl::Json ExtractionPlan::ToJson() const {
  vl::Json j = vl::Json::Object();
  j["complete"] = vl::Json::Bool(complete());
  j["fallback_ops"] = vl::Json::Int(static_cast<int64_t>(impl_->fallback_ops));
  j["executions"] = vl::Json::Int(static_cast<int64_t>(impl_->executions));
  vl::Json boxes = vl::Json::Object();
  for (const auto& [decl, box] : impl_->boxes) {
    vl::Json b = vl::Json::Object();
    b["kernel_type"] = vl::Json::Str(decl->kernel_type);
    b["size"] = vl::Json::Int(static_cast<int64_t>(box->size));
    b["wheres"] = vl::Json::Int(static_cast<int64_t>(box->wheres.size()));
    b["strings"] = vl::Json::Int(static_cast<int64_t>(box->strings.size()));
    b["bails"] = vl::Json::Int(static_cast<int64_t>(box->bails));
    vl::Json items = vl::Json::Array();
    for (const std::unique_ptr<PYield>& item : box->items) {
      items.Append(YieldToJson(item.get()));
    }
    b["items"] = std::move(items);
    boxes[decl->name] = std::move(b);
  }
  j["boxes"] = std::move(boxes);
  vl::Json plots = vl::Json::Array();
  for (const std::unique_ptr<PYield>& plot : impl_->plots) {
    plots.Append(YieldToJson(plot.get()));
  }
  j["plots"] = std::move(plots);
  j["last_exec"] = impl_->last.ToJson();
  return j;
}

std::unique_ptr<ExtractionPlan> CompilePlan(
    const std::map<std::string, const BoxDecl*>& defines,
    const std::vector<Binding>& bindings,
    const std::vector<ExprPtr>& plots,
    dbg::KernelDebugger* debugger) {
  auto impl = std::make_unique<ExtractionPlan::Impl>();
  Compiler compiler(defines, &debugger->types(), impl.get());
  compiler.Run(bindings, plots);
  return std::make_unique<ExtractionPlan>(std::move(impl));
}

PlanStats ExecutePlan(ExtractionPlan* plan, dbg::KernelDebugger* debugger,
                      const PlanExecOptions& options) {
  Executor executor(plan->impl(), debugger, options);
  return executor.Run();
}

}  // namespace viewcl

#include "src/viewql/query.h"

#include "src/support/str.h"
#include "src/support/trace.h"
#include "src/viewql/parse.h"

namespace viewql {

vl::Json ExecStats::ToJson() const {
  vl::Json j = vl::Json::Object();
  j["statements"] = vl::Json::Int(statements);
  j["selects"] = vl::Json::Int(selects);
  j["updates"] = vl::Json::Int(updates);
  j["last_selected"] = vl::Json::Int(static_cast<int64_t>(last_selected));
  j["boxes_updated"] = vl::Json::Int(static_cast<int64_t>(boxes_updated));
  j["select_ns"] = vl::Json::Int(static_cast<int64_t>(select_ns));
  j["update_ns"] = vl::Json::Int(static_cast<int64_t>(update_ns));
  return j;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

class ExecState {
 public:
  ExecState(QueryEngine* engine) : engine_(engine), graph_(engine->graph_) {}

  vl::Status Execute(const std::vector<Statement>& stmts) {
    for (const Statement& stmt : stmts) {
      engine_->stats_.statements++;
      uint64_t before = TargetNanos();
      if (stmt.kind == Statement::Kind::kSelect) {
        vl::ScopedSpan span("viewql.select");
        VL_RETURN_IF_ERROR(ExecSelect(stmt.select));
        engine_->stats_.select_ns += TargetNanos() - before;
      } else {
        vl::ScopedSpan span("viewql.update");
        VL_RETURN_IF_ERROR(ExecUpdate(stmt.update));
        engine_->stats_.update_ns += TargetNanos() - before;
      }
    }
    return vl::Status::Ok();
  }

 private:
  uint64_t TargetNanos() const {
    return engine_->debugger_ != nullptr
               ? engine_->debugger_->target().clock().nanos()
               : 0;
  }

  BoxSet AllBoxes() const {
    BoxSet out;
    for (uint64_t id = 0; id < graph_->size(); ++id) {
      out.insert(id);
    }
    return out;
  }

  vl::StatusOr<BoxSet> EvalSet(const SetExpr* expr) {
    switch (expr->kind) {
      case SetExpr::Kind::kAll:
        return AllBoxes();
      case SetExpr::Kind::kName: {
        const BoxSet* found = engine_->FindSet(expr->name);
        if (found == nullptr) {
          return vl::EvalError("unknown set '" + expr->name + "'");
        }
        return *found;
      }
      case SetExpr::Kind::kReachable: {
        VL_ASSIGN_OR_RETURN(BoxSet seed, EvalSet(expr->arg.get()));
        std::vector<uint64_t> from(seed.begin(), seed.end());
        std::vector<uint64_t> closure = graph_->Reachable(from);
        return BoxSet(closure.begin(), closure.end());
      }
      case SetExpr::Kind::kMembers: {
        // One hop only: the boxes directly referenced by items of the seed
        // set (the paper's is_inside-style containment operator).
        VL_ASSIGN_OR_RETURN(BoxSet seed, EvalSet(expr->arg.get()));
        BoxSet out;
        for (uint64_t id : seed) {
          for (uint64_t next : graph_->Neighbors(id)) {
            out.insert(next);
          }
        }
        return out;
      }
      case SetExpr::Kind::kBinary: {
        VL_ASSIGN_OR_RETURN(BoxSet lhs, EvalSet(expr->lhs.get()));
        VL_ASSIGN_OR_RETURN(BoxSet rhs, EvalSet(expr->rhs.get()));
        BoxSet out;
        if (expr->op == '\\') {
          for (uint64_t id : lhs) {
            if (rhs.count(id) == 0) {
              out.insert(id);
            }
          }
        } else if (expr->op == '&') {
          for (uint64_t id : lhs) {
            if (rhs.count(id) != 0) {
              out.insert(id);
            }
          }
        } else {
          out = lhs;
          out.insert(rhs.begin(), rhs.end());
        }
        return out;
      }
    }
    return vl::InternalError("unhandled set expression");
  }

  // Statement-level entry into set evaluation: one "viewql.set" span per
  // FROM/target clause so set algebra shows up as its own explain-tree node.
  vl::StatusOr<BoxSet> EvalSetRoot(const SetExpr* expr) {
    vl::ScopedSpan span("viewql.set");
    return EvalSet(expr);
  }

  vl::Status ExecSelect(const SelectStmt& stmt) {
    engine_->stats_.selects++;
    VL_ASSIGN_OR_RETURN(BoxSet source, EvalSetRoot(stmt.source.get()));
    BoxSet result;
    for (uint64_t id : source) {
      const viewcl::VBox* box = graph_->box(id);
      if (box == nullptr) {
        continue;
      }
      if (!stmt.type_name.empty() && box->kernel_type() != stmt.type_name &&
          box->decl_name() != stmt.type_name) {
        continue;
      }
      VL_ASSIGN_OR_RETURN(bool keep, MatchWhere(stmt, *box));
      if (!keep) {
        continue;
      }
      if (stmt.item_path.empty()) {
        result.insert(id);
      } else {
        // type.member selects the boxes referenced by the named item.
        CollectItemTargets(*box, stmt.item_path, &result);
      }
    }
    engine_->stats_.last_selected = result.size();
    engine_->sets_[stmt.result_name] = std::move(result);
    return vl::Status::Ok();
  }

  void CollectItemTargets(const viewcl::VBox& box, const std::vector<std::string>& path,
                          BoxSet* out) const {
    // Single-level item paths cover the paper's usage (slots, pagecache, bufs).
    const std::string& item_name = path.back();
    for (const viewcl::ViewInstance& view : box.views()) {
      for (const viewcl::LinkItem& link : view.links) {
        if (link.name == item_name && link.target != viewcl::kNoBox) {
          out->insert(link.target);
        }
      }
      for (const viewcl::ContainerItem& container : view.containers) {
        if (container.name == item_name) {
          for (uint64_t member : container.members) {
            out->insert(member);
          }
        }
      }
    }
  }

  vl::StatusOr<bool> MatchWhere(const SelectStmt& stmt, const viewcl::VBox& box) {
    if (!stmt.has_where) {
      return true;
    }
    // WHERE evaluation can fall back to raw-field target reads; its own span
    // separates that cost from the set algebra above it.
    vl::ScopedSpan span("viewql.where");
    for (const std::vector<CondExpr>& clause : stmt.where.clauses) {
      bool all = true;
      for (const CondExpr& expr : clause) {
        VL_ASSIGN_OR_RETURN(bool ok, MatchCond(stmt, expr, box));
        if (!ok) {
          all = false;
          break;
        }
      }
      if (all) {
        return true;
      }
    }
    return false;
  }

  vl::StatusOr<bool> MatchCond(const SelectStmt& stmt, const CondExpr& expr,
                               const viewcl::VBox& box) {
    // 1. Alias: `vma != 0x...` compares the box's own object address.
    if (expr.member.size() == 1 && !stmt.alias.empty() && expr.member[0] == stmt.alias) {
      return CompareInt(static_cast<int64_t>(box.addr()), expr);
    }
    // 2. Evaluated members (ViewCL-defined fields and displayed items).
    std::string joined = vl::StrJoin(expr.member, ".");
    auto it = box.members().find(joined);
    if (it != box.members().end()) {
      const viewcl::MemberValue& member = it->second;
      if (member.kind == viewcl::MemberValue::Kind::kString) {
        return CompareString(member.str, expr);
      }
      if (member.kind == viewcl::MemberValue::Kind::kNull) {
        return CompareInt(0, expr);
      }
      return CompareInt(member.num, expr);
    }
    // 3. Raw kernel field through the debugger: the member chain off the
    // box's object, as `${@this.<member>}` would evaluate it.
    if (engine_->debugger_ != nullptr && !box.is_virtual()) {
      const dbg::Type* type = engine_->debugger_->types().FindByName(box.kernel_type());
      if (type != nullptr) {
        vl::StatusOr<dbg::Value> value = dbg::Value::MakeLValue(type, box.addr());
        for (size_t i = 0; i < expr.member.size() && value.ok(); ++i) {
          value = value->Member(&engine_->debugger_->session(), &engine_->debugger_->types(),
                                expr.member[i]);
        }
        if (value.ok()) {
          auto loaded = value->Load(&engine_->debugger_->session());
          if (loaded.ok()) {
            if (loaded->is_lvalue() && loaded->type() != nullptr &&
                loaded->type()->kind == dbg::TypeKind::kArray &&
                loaded->type()->element->kind == dbg::TypeKind::kChar) {
              auto text = engine_->debugger_->session().ReadCString(
                  loaded->addr(), loaded->type()->array_len);
              if (text.ok()) {
                return CompareString(*text, expr);
              }
            }
            if (!loaded->is_lvalue()) {
              return CompareInt(static_cast<int64_t>(loaded->bits()), expr);
            }
          }
        }
      }
    }
    // Unresolvable member: no match (tolerant, like a debugger filter).
    return false;
  }

  vl::StatusOr<bool> CompareInt(int64_t lhs, const CondExpr& expr) {
    int64_t rhs = 0;
    switch (expr.val_kind) {
      case CondExpr::ValKind::kInt:
      case CondExpr::ValKind::kBool:
        rhs = expr.int_val;
        break;
      case CondExpr::ValKind::kNull:
        rhs = 0;
        break;
      case CondExpr::ValKind::kIdent: {
        int64_t enum_value = 0;
        if (engine_->debugger_ != nullptr &&
            engine_->debugger_->types().FindEnumerator(expr.str_val, &enum_value)) {
          rhs = enum_value;
        } else {
          return vl::EvalError("unknown value '" + expr.str_val + "'");
        }
        break;
      }
      case CondExpr::ValKind::kString:
        return false;  // numeric member vs string literal: never equal
    }
    if (expr.op == "==") return lhs == rhs;
    if (expr.op == "!=") return lhs != rhs;
    if (expr.op == "<") return lhs < rhs;
    if (expr.op == "<=") return lhs <= rhs;
    if (expr.op == ">") return lhs > rhs;
    if (expr.op == ">=") return lhs >= rhs;
    if (expr.op == "contains") return (lhs & rhs) == rhs;  // bitmask contains
    return vl::EvalError("bad operator " + expr.op);
  }

  vl::StatusOr<bool> CompareString(const std::string& lhs, const CondExpr& expr) {
    if (expr.val_kind == CondExpr::ValKind::kNull) {
      bool empty = lhs.empty() || lhs == "<null>";
      if (expr.op == "==") return empty;
      if (expr.op == "!=") return !empty;
      return false;
    }
    const std::string& rhs =
        expr.val_kind == CondExpr::ValKind::kString ? expr.str_val : expr.str_val;
    if (expr.op == "==") return lhs == rhs;
    if (expr.op == "!=") return lhs != rhs;
    if (expr.op == "contains") return lhs.find(rhs) != std::string::npos;
    if (expr.op == "<") return lhs < rhs;
    if (expr.op == ">") return lhs > rhs;
    if (expr.op == "<=") return lhs <= rhs;
    if (expr.op == ">=") return lhs >= rhs;
    return vl::EvalError("bad operator " + expr.op);
  }

  vl::Status ExecUpdate(const UpdateStmt& stmt) {
    engine_->stats_.updates++;
    VL_ASSIGN_OR_RETURN(BoxSet targets, EvalSetRoot(stmt.target.get()));
    for (uint64_t id : targets) {
      viewcl::VBox* box = graph_->box(id);
      if (box == nullptr) {
        continue;
      }
      for (const UpdateAttr& attr : stmt.attrs) {
        box->attrs()[attr.name] = attr.value;
      }
      engine_->stats_.boxes_updated++;
    }
    return vl::Status::Ok();
  }

  QueryEngine* engine_;
  viewcl::ViewGraph* graph_;
};

vl::Status QueryEngine::Execute(std::string_view program) {
  std::vector<Statement> stmts;
  {
    vl::ScopedSpan span("viewql.parse");
    VL_ASSIGN_OR_RETURN(stmts, ParseViewQlProgram(program));
  }
  ExecState state(this);
  return state.Execute(stmts);
}

vl::Status CheckViewQl(std::string_view program) {
  auto stmts = ParseViewQlProgram(program);
  return stmts.ok() ? vl::Status::Ok() : stmts.status();
}

}  // namespace viewql

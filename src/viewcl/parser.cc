#include "src/viewcl/parser.h"

#include <set>

#include "src/support/str.h"
#include "src/viewcl/lexer.h"

namespace viewcl {

namespace {

bool IsContainerKind(const std::string& name) {
  return name == "List" || name == "HList" || name == "RBTree" || name == "Array" ||
         name == "XArray" || name == "MapleTree" || name == "RadixTree";
}

class ParserImpl {
 public:
  explicit ParserImpl(std::vector<Token> toks) : toks_(std::move(toks)) {}

  vl::StatusOr<Program> Run() {
    Program program;
    while (!AtEnd()) {
      if (IsIdent("define")) {
        VL_ASSIGN_OR_RETURN(std::unique_ptr<BoxDecl> decl, ParseDefine());
        program.defines.push_back(std::move(decl));
      } else if (IsIdent("plot")) {
        Advance();
        VL_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpr());
        program.plots.push_back(std::move(expr));
      } else if (Cur().kind == TokKind::kIdent && Peek(1).kind == TokKind::kPunct &&
                 Peek(1).text == "=") {
        Binding binding;
        binding.name = Cur().text;
        binding.line = Cur().line;
        binding.span = Cur().span();
        Advance();
        Advance();  // '='
        VL_ASSIGN_OR_RETURN(binding.value, ParseExpr());
        program.bindings.push_back(std::move(binding));
      } else {
        return Err("expected 'define', 'plot', or a binding");
      }
    }
    return program;
  }

 private:
  const Token& Cur() const { return toks_[idx_]; }
  const Token& Peek(size_t n) const {
    size_t i = idx_ + n;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  bool AtEnd() const { return Cur().kind == TokKind::kEnd; }
  void Advance() {
    if (!AtEnd()) {
      ++idx_;
    }
  }

  bool IsIdent(std::string_view text) const {
    return Cur().kind == TokKind::kIdent && Cur().text == text;
  }
  bool IsPunct(std::string_view text) const {
    return Cur().kind == TokKind::kPunct && Cur().text == text;
  }
  bool EatPunct(std::string_view text) {
    if (IsPunct(text)) {
      Advance();
      return true;
    }
    return false;
  }
  bool EatIdent(std::string_view text) {
    if (IsIdent(text)) {
      Advance();
      return true;
    }
    return false;
  }

  // Extends `start` to cover everything up to the last consumed token.
  vl::Span SpanFrom(vl::Span start) const {
    if (idx_ > 0) {
      const Token& prev = toks_[idx_ - 1];
      size_t end = prev.offset + prev.length;
      if (end > start.offset) {
        start.length = end - start.offset;
      }
    }
    return start;
  }

  vl::Status Err(std::string_view message) const {
    return vl::ParseError(vl::StrFormat("%.*s at %d:%d (near '%s')",
                                        static_cast<int>(message.size()), message.data(),
                                        Cur().line, Cur().col, Cur().text.c_str()));
  }

  vl::Status ExpectPunct(std::string_view text) {
    if (!EatPunct(text)) {
      return Err(vl::StrFormat("expected '%.*s'", static_cast<int>(text.size()), text.data()));
    }
    return vl::Status::Ok();
  }

  // Consumes a ':' that may have been lexed as part of a ":name" view-name
  // token (e.g. the decorator "u64:x" or an unspaced "name:expr"); in that
  // case the token is morphed into the bare identifier that followed the ':'.
  bool EatColon() {
    if (EatPunct(":")) {
      return true;
    }
    if (Cur().kind == TokKind::kViewName) {
      toks_[idx_].kind = TokKind::kIdent;
      return true;
    }
    return false;
  }

  vl::Status ExpectColon() {
    if (!EatColon()) {
      return Err("expected ':'");
    }
    return vl::Status::Ok();
  }

  vl::StatusOr<std::string> ExpectIdent() {
    if (Cur().kind != TokKind::kIdent) {
      return Err("expected an identifier");
    }
    std::string name = Cur().text;
    Advance();
    return name;
  }

  // --- define ---

  vl::StatusOr<std::unique_ptr<BoxDecl>> ParseDefine() {
    int line = Cur().line;
    Advance();  // 'define'
    vl::Span name_span = Cur().span();
    VL_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
    defined_boxes_.insert(name);
    if (!EatIdent("as")) {
      return Err("expected 'as'");
    }
    if (!EatIdent("Box")) {
      return Err("expected 'Box'");
    }
    auto decl = std::make_unique<BoxDecl>();
    decl->name = name;
    decl->line = line;
    decl->span = name_span;
    if (EatPunct("<")) {
      // Kernel type name, possibly "struct foo".
      std::string type_name;
      vl::Span type_span = Cur().span();
      while (Cur().kind == TokKind::kIdent) {
        if (!type_name.empty()) {
          type_name += " ";
        }
        type_name += Cur().text;
        Advance();
      }
      decl->type_span = SpanFrom(type_span);
      VL_RETURN_IF_ERROR(ExpectPunct(">"));
      decl->kernel_type = type_name;
    }
    VL_RETURN_IF_ERROR(ParseBoxBody(decl.get()));
    return decl;
  }

  vl::Status ParseBoxBody(BoxDecl* decl) {
    if (IsPunct("[")) {
      // Single anonymous view: it becomes "default".
      ViewDecl view;
      view.name = "default";
      view.span = Cur().span();
      VL_RETURN_IF_ERROR(ParseViewBody(&view));
      if (IsIdent("where")) {
        VL_RETURN_IF_ERROR(ParseWhere(&view.where));
      }
      decl->views.push_back(std::move(view));
      return vl::Status::Ok();
    }
    if (!EatPunct("{")) {
      return Err("expected '[' or '{' after Box declaration");
    }
    while (!IsPunct("}")) {
      if (Cur().kind != TokKind::kViewName) {
        return Err("expected a view name (:name)");
      }
      ViewDecl view;
      std::string first = Cur().text;
      vl::Span first_span = Cur().span();
      Advance();
      if (EatPunct("=>")) {
        if (Cur().kind != TokKind::kViewName) {
          return Err("expected a view name after '=>'");
        }
        view.parent = first;
        view.parent_span = first_span;
        view.name = Cur().text;
        view.span = Cur().span();
        Advance();
      } else {
        view.name = first;
        view.span = first_span;
      }
      VL_RETURN_IF_ERROR(ParseViewBody(&view));
      if (IsIdent("where")) {
        VL_RETURN_IF_ERROR(ParseWhere(&view.where));
      }
      decl->views.push_back(std::move(view));
    }
    VL_RETURN_IF_ERROR(ExpectPunct("}"));
    if (IsIdent("where")) {
      VL_RETURN_IF_ERROR(ParseWhere(&decl->where));
    }
    return vl::Status::Ok();
  }

  vl::Status ParseViewBody(ViewDecl* view) {
    VL_RETURN_IF_ERROR(ExpectPunct("["));
    while (!IsPunct("]")) {
      VL_RETURN_IF_ERROR(ParseItem(view));
    }
    return ExpectPunct("]");
  }

  vl::Status ParseItem(ViewDecl* view) {
    int line = Cur().line;
    if (EatIdent("Text")) {
      std::string decorator;
      vl::Span decorator_span;
      if (EatPunct("<")) {
        decorator_span = Cur().span();
        VL_ASSIGN_OR_RETURN(decorator, ParseDecoratorSpec());
        decorator_span = SpanFrom(decorator_span);
        VL_RETURN_IF_ERROR(ExpectPunct(">"));
      }
      while (true) {
        ItemDecl item;
        item.kind = ItemDecl::Kind::kText;
        item.decorator = decorator;
        item.decorator_span = decorator_span;
        item.line = line;
        VL_RETURN_IF_ERROR(ParseTextDecl(&item));
        view->items.push_back(std::move(item));
        if (!EatPunct(",")) {
          break;
        }
      }
      return vl::Status::Ok();
    }
    if (EatIdent("Link")) {
      ItemDecl item;
      item.kind = ItemDecl::Kind::kLink;
      item.line = line;
      item.span = Cur().span();
      VL_ASSIGN_OR_RETURN(item.name, ExpectIdent());
      VL_RETURN_IF_ERROR(ExpectPunct("->"));
      VL_ASSIGN_OR_RETURN(item.value, ParseExpr());
      view->items.push_back(std::move(item));
      return vl::Status::Ok();
    }
    if (EatIdent("Container")) {
      ItemDecl item;
      item.kind = ItemDecl::Kind::kContainer;
      item.line = line;
      item.span = Cur().span();
      VL_ASSIGN_OR_RETURN(item.name, ExpectIdent());
      VL_RETURN_IF_ERROR(ExpectColon());
      VL_ASSIGN_OR_RETURN(item.value, ParseExpr());
      view->items.push_back(std::move(item));
      return vl::Status::Ok();
    }
    return Err("expected Text, Link, or Container");
  }

  vl::StatusOr<std::string> ParseDecoratorSpec() {
    std::string spec;
    while (Cur().kind == TokKind::kIdent || Cur().kind == TokKind::kInt) {
      spec += Cur().text;
      Advance();
      if (EatColon()) {
        spec += ":";
        continue;
      }
      break;
    }
    if (spec.empty()) {
      return Err("empty decorator spec");
    }
    return spec;
  }

  vl::Status ParseTextDecl(ItemDecl* item) {
    if (Cur().kind == TokKind::kAtIdent) {
      // `Text @last_ma_min`: the item shows a where-clause variable.
      item->name = Cur().text;
      item->span = Cur().span();
      item->value = NewExpr(Expr::Kind::kAtRef, Cur().span());
      item->value->text = Cur().text;
      Advance();
      return vl::Status::Ok();
    }
    if (Cur().kind != TokKind::kIdent) {
      return Err("expected a field name");
    }
    // Either `name : expr` or a bare (dotted) field path.
    std::vector<std::string> path;
    path.push_back(Cur().text);
    vl::Span span = Cur().span();
    Advance();
    while (IsPunct(".")) {
      Advance();
      VL_ASSIGN_OR_RETURN(std::string part, ExpectIdent());
      path.push_back(std::move(part));
    }
    span = SpanFrom(span);
    item->span = span;
    if (path.size() == 1 && EatColon()) {
      item->name = path[0];
      VL_ASSIGN_OR_RETURN(item->value, ParseExpr());
      return vl::Status::Ok();
    }
    item->name = vl::StrJoin(path, ".");
    item->value = NewExpr(Expr::Kind::kFieldPath, span);
    item->value->path = std::move(path);
    return vl::Status::Ok();
  }

  vl::Status ParseWhere(std::vector<Binding>* out) {
    Advance();  // 'where'
    VL_RETURN_IF_ERROR(ExpectPunct("{"));
    while (!IsPunct("}")) {
      Binding binding;
      binding.line = Cur().line;
      binding.span = Cur().span();
      VL_ASSIGN_OR_RETURN(binding.name, ExpectIdent());
      VL_RETURN_IF_ERROR(ExpectPunct("="));
      VL_ASSIGN_OR_RETURN(binding.value, ParseExpr());
      out->push_back(std::move(binding));
    }
    return ExpectPunct("}");
  }

  // --- expressions ---

  vl::StatusOr<ExprPtr> ParseExpr() {
    vl::Span span = Cur().span();
    switch (Cur().kind) {
      case TokKind::kCExpr: {
        ExprPtr e = NewExpr(Expr::Kind::kCExpr, span);
        e->text = Cur().text;
        e->cexpr = dbg::CompileCExpression(e->text);
        Advance();
        return e;
      }
      case TokKind::kAtIdent: {
        ExprPtr e = NewExpr(Expr::Kind::kAtRef, span);
        e->text = Cur().text;
        Advance();
        return e;
      }
      case TokKind::kInt: {
        ExprPtr e = NewExpr(Expr::Kind::kInt, span);
        e->ival = Cur().ival;
        Advance();
        return e;
      }
      case TokKind::kIdent:
        break;
      default:
        return Err("expected an expression");
    }

    const std::string& head = Cur().text;
    if (head == "NULL" || head == "null") {
      Advance();
      return NewExpr(Expr::Kind::kNull, span);
    }
    if (head == "switch") {
      return ParseSwitch();
    }
    if (head == "Box") {
      return ParseInlineBox();
    }
    if (head == "Array" && Peek(1).kind == TokKind::kPunct && Peek(1).text == "." &&
        Peek(2).kind == TokKind::kIdent && Peek(2).text == "selectFrom") {
      Advance();  // Array
      Advance();  // .
      Advance();  // selectFrom
      VL_RETURN_IF_ERROR(ExpectPunct("("));
      ExprPtr e = NewExpr(Expr::Kind::kSelectFrom, span);
      VL_ASSIGN_OR_RETURN(ExprPtr source, ParseExpr());
      e->kids.push_back(std::move(source));
      VL_RETURN_IF_ERROR(ExpectPunct(","));
      // The span names the element box: that is the reference lint checks.
      e->span = Cur().span();
      VL_ASSIGN_OR_RETURN(e->text, ExpectIdent());
      VL_RETURN_IF_ERROR(ExpectPunct(")"));
      return e;
    }
    if (IsContainerKind(head) && defined_boxes_.count(head) == 0 &&
        Peek(1).kind == TokKind::kPunct && Peek(1).text == "(") {
      // A user `define` with a builtin container's name shadows the builtin.
      return ParseContainerCtor();
    }
    if (Peek(1).kind == TokKind::kPunct && (Peek(1).text == "(" || Peek(1).text == "<")) {
      return ParseBoxCtor();
    }
    // Bare field path relative to @this.
    ExprPtr e = NewExpr(Expr::Kind::kFieldPath, span);
    e->path.push_back(head);
    Advance();
    while (IsPunct(".")) {
      Advance();
      VL_ASSIGN_OR_RETURN(std::string part, ExpectIdent());
      e->path.push_back(std::move(part));
    }
    e->span = SpanFrom(e->span);
    return e;
  }

  vl::StatusOr<ExprPtr> ParseSwitch() {
    vl::Span span = Cur().span();
    Advance();  // 'switch'
    ExprPtr e = NewExpr(Expr::Kind::kSwitch, span);
    VL_ASSIGN_OR_RETURN(ExprPtr scrutinee, ParseExpr());
    e->kids.push_back(std::move(scrutinee));
    VL_RETURN_IF_ERROR(ExpectPunct("{"));
    while (!IsPunct("}")) {
      if (EatIdent("case")) {
        SwitchCase sc;
        while (true) {
          VL_ASSIGN_OR_RETURN(ExprPtr label, ParseExpr());
          sc.labels.push_back(std::move(label));
          if (!EatPunct(",")) {
            break;
          }
        }
        VL_RETURN_IF_ERROR(ExpectColon());
        VL_ASSIGN_OR_RETURN(sc.body, ParseExpr());
        e->cases.push_back(std::move(sc));
      } else if (EatIdent("otherwise")) {
        VL_RETURN_IF_ERROR(ExpectColon());
        VL_ASSIGN_OR_RETURN(e->otherwise, ParseExpr());
      } else {
        return Err("expected 'case' or 'otherwise'");
      }
    }
    VL_RETURN_IF_ERROR(ExpectPunct("}"));
    return e;
  }

  vl::StatusOr<ExprPtr> ParseInlineBox() {
    vl::Span span = Cur().span();
    int line = span.line;
    Advance();  // 'Box'
    auto decl = std::make_unique<BoxDecl>();
    decl->name = vl::StrFormat("<inline:%d>", line);
    decl->line = line;
    decl->span = span;
    if (EatPunct("<")) {
      decl->type_span = Cur().span();
      VL_ASSIGN_OR_RETURN(decl->kernel_type, ExpectIdent());
      VL_RETURN_IF_ERROR(ExpectPunct(">"));
    }
    VL_RETURN_IF_ERROR(ParseBoxBody(decl.get()));
    ExprPtr e = NewExpr(Expr::Kind::kInlineBox, span);
    e->inline_box = std::move(decl);
    return e;
  }

  vl::StatusOr<ExprPtr> ParseContainerCtor() {
    ExprPtr e = NewExpr(Expr::Kind::kContainerCtor, Cur().span());
    e->text = Cur().text;
    Advance();  // kind
    VL_RETURN_IF_ERROR(ExpectPunct("("));
    if (!IsPunct(")")) {
      while (true) {
        VL_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
        e->kids.push_back(std::move(arg));
        if (!EatPunct(",")) {
          break;
        }
      }
    }
    VL_RETURN_IF_ERROR(ExpectPunct(")"));
    // Optional .forEach |var| { bindings... yield expr }
    if (IsPunct(".") && Peek(1).kind == TokKind::kIdent && Peek(1).text == "forEach") {
      Advance();  // .
      Advance();  // forEach
      auto fe = std::make_unique<ForEachClause>();
      VL_RETURN_IF_ERROR(ExpectPunct("|"));
      VL_ASSIGN_OR_RETURN(fe->var, ExpectIdent());
      VL_RETURN_IF_ERROR(ExpectPunct("|"));
      VL_RETURN_IF_ERROR(ExpectPunct("{"));
      while (!IsIdent("yield")) {
        if (AtEnd() || IsPunct("}")) {
          return Err("forEach body must end with a 'yield'");
        }
        Binding binding;
        binding.line = Cur().line;
        binding.span = Cur().span();
        VL_ASSIGN_OR_RETURN(binding.name, ExpectIdent());
        VL_RETURN_IF_ERROR(ExpectPunct("="));
        VL_ASSIGN_OR_RETURN(binding.value, ParseExpr());
        fe->bindings.push_back(std::move(binding));
      }
      Advance();  // 'yield'
      VL_ASSIGN_OR_RETURN(fe->yield, ParseExpr());
      VL_RETURN_IF_ERROR(ExpectPunct("}"));
      e->for_each = std::move(fe);
    }
    return e;
  }

  vl::StatusOr<ExprPtr> ParseBoxCtor() {
    ExprPtr e = NewExpr(Expr::Kind::kBoxCtor, Cur().span());
    e->text = Cur().text;
    Advance();  // box name
    if (EatPunct("<")) {
      // Anchor path: type.member.member...
      VL_ASSIGN_OR_RETURN(std::string part, ExpectIdent());
      e->path.push_back(std::move(part));
      while (EatPunct(".")) {
        VL_ASSIGN_OR_RETURN(std::string next, ExpectIdent());
        e->path.push_back(std::move(next));
      }
      VL_RETURN_IF_ERROR(ExpectPunct(">"));
    }
    VL_RETURN_IF_ERROR(ExpectPunct("("));
    VL_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
    e->kids.push_back(std::move(arg));
    VL_RETURN_IF_ERROR(ExpectPunct(")"));
    return e;
  }

  std::vector<Token> toks_;
  size_t idx_ = 0;
  std::set<std::string> defined_boxes_;
};

}  // namespace

vl::StatusOr<Program> ParseViewCl(std::string_view source) {
  VL_ASSIGN_OR_RETURN(std::vector<Token> toks, LexViewCl(source));
  return ParserImpl(std::move(toks)).Run();
}

}  // namespace viewcl

// ViewCL end-to-end tests: lexer, parser, and interpreter evaluated against a
// live simulated kernel — including the paper's §1 motivating program (the
// CFS runqueue red-black tree).

#include <gtest/gtest.h>

#include "src/viewcl/interp.h"
#include "src/viewcl/lexer.h"
#include "src/viewcl/parser.h"
#include "tests/test_util.h"

namespace viewcl {
namespace {

class ViewClTest : public vltest::WorkloadKernelTest {
 protected:
  void SetUp() override {
    vltest::WorkloadKernelTest::SetUp();
    debugger_ = std::make_unique<dbg::KernelDebugger>(kernel_.get());
    interp_ = std::make_unique<Interpreter>(debugger_.get());
  }

  std::unique_ptr<ViewGraph> MustRun(std::string_view program) {
    auto graph = interp_->RunProgram(program);
    EXPECT_TRUE(graph.ok()) << graph.status().ToString();
    if (!graph.ok()) {
      return nullptr;
    }
    return std::move(graph).value();
  }

  // Count boxes of a kernel type.
  static int CountType(const ViewGraph& graph, std::string_view type) {
    int n = 0;
    graph.ForEachBox([&](const VBox& box) {
      if (box.kernel_type() == type) {
        ++n;
      }
    });
    return n;
  }

  std::unique_ptr<dbg::KernelDebugger> debugger_;
  std::unique_ptr<Interpreter> interp_;
};

TEST_F(ViewClTest, LexerTokens) {
  auto toks = LexViewCl("define Task as Box<task_struct> [ Text<u64:x> pid ] // c\nplot @x");
  ASSERT_TRUE(toks.ok());
  EXPECT_GT(toks->size(), 10u);
  EXPECT_EQ((*toks)[0].kind, TokKind::kIdent);
  EXPECT_EQ((*toks)[0].text, "define");
}

TEST_F(ViewClTest, LexerCExprCapturesRawText) {
  auto toks = LexViewCl("root = ${cpu_rq(0)->cfs.tasks_timeline}");
  ASSERT_TRUE(toks.ok());
  ASSERT_GE(toks->size(), 3u);
  EXPECT_EQ((*toks)[2].kind, TokKind::kCExpr);
  EXPECT_EQ((*toks)[2].text, "cpu_rq(0)->cfs.tasks_timeline");
}

TEST_F(ViewClTest, LexerRejectsUnterminatedCExpr) {
  EXPECT_FALSE(LexViewCl("x = ${oops").ok());
}

TEST_F(ViewClTest, CountCodeLinesSkipsCommentsAndBlanks) {
  EXPECT_EQ(CountCodeLines("a = ${1}\n\n// comment\nb = ${2}\n"), 2);
}

TEST_F(ViewClTest, ParserRejectsGarbage) {
  EXPECT_FALSE(ParseViewCl("define without as").ok());
  EXPECT_FALSE(ParseViewCl("plot").ok());
  EXPECT_FALSE(ParseViewCl("x = ").ok());
}

TEST_F(ViewClTest, ParserAcceptsNamedViewsWithInheritance) {
  auto program = ParseViewCl(R"(
    define Task as Box<task_struct> {
      :default [ Text pid, comm ]
      :default => :sched [ Text se.vruntime ]
    }
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ASSERT_EQ(program->defines.size(), 1u);
  ASSERT_EQ(program->defines[0]->views.size(), 2u);
  EXPECT_EQ(program->defines[0]->views[1].name, "sched");
  EXPECT_EQ(program->defines[0]->views[1].parent, "default");
}

TEST_F(ViewClTest, SimpleBoxPlot) {
  auto graph = MustRun(R"(
    define Task as Box<task_struct> [
      Text pid, comm
      Text ppid: parent.pid
    ]
    plot Task(${init_task.pids[0].pid == 0 ? &init_task : &init_task})
  )");
  ASSERT_NE(graph, nullptr);
  ASSERT_EQ(graph->roots().size(), 1u);
  const VBox* box = graph->box(graph->roots()[0]);
  ASSERT_NE(box, nullptr);
  EXPECT_EQ(box->kernel_type(), "task_struct");
  const ViewInstance* view = box->ActiveView();
  ASSERT_NE(view, nullptr);
  ASSERT_EQ(view->texts.size(), 3u);
  EXPECT_EQ(view->texts[0].name, "pid");
  EXPECT_EQ(view->texts[0].display, "0");
  EXPECT_EQ(view->texts[1].display, "swapper/0");
  // members map captured for ViewQL.
  EXPECT_EQ(box->members().at("pid").num, 0);
  EXPECT_EQ(box->members().at("comm").str, "swapper/0");
}

TEST_F(ViewClTest, PaperIntroExampleCfsRunqueue) {
  // The §1 motivating program, verbatim modulo whitespace.
  auto graph = MustRun(R"(
    define Task as Box<task_struct> [
      Text pid, comm
      Text ppid: parent.pid
      Text<string> state: ${task_state(@this)}
      Text se.vruntime
    ]
    root = ${cpu_rq(0)->cfs.tasks_timeline}
    sched_tree = RBTree(@root).forEach |node| {
      yield Task<task_struct.se.run_node>(@node)
    }
    plot @sched_tree
  )");
  ASSERT_NE(graph, nullptr);
  int tasks = CountType(*graph, "task_struct");
  EXPECT_EQ(tasks, static_cast<int>(kernel_->sched().cpu_rq(0)->cfs.nr_running));
  EXPECT_GT(tasks, 0);
  // Every task box shows four text items with a decoded state string.
  graph->ForEachBox([&](const VBox& box) {
    if (box.kernel_type() != "task_struct") {
      return;
    }
    const ViewInstance* view = box.ActiveView();
    ASSERT_NE(view, nullptr);
    ASSERT_EQ(view->texts.size(), 5u);
    EXPECT_FALSE(box.members().at("state").str.empty());
    // vruntime ordering is reflected in tree order by construction; at least
    // verify the member parsed as an integer.
    EXPECT_EQ(box.members().at("se.vruntime").kind, MemberValue::Kind::kInt);
  });
}

TEST_F(ViewClTest, AnchoredCtorRecoversContainer) {
  // Walk init_task's children list through container_of.
  auto graph = MustRun(R"(
    define Task as Box<task_struct> [ Text pid, comm ]
    kids = List(${&init_task.children}).forEach |node| {
      yield Task<task_struct.sibling>(@node)
    }
    plot @kids
  )");
  ASSERT_NE(graph, nullptr);
  int tasks = CountType(*graph, "task_struct");
  EXPECT_EQ(tasks, static_cast<int>(vkern::list_count(
                       &kernel_->procs().init_task()->children)));
  // One of them must be init (pid 1).
  bool found_init = false;
  graph->ForEachBox([&](const VBox& box) {
    if (box.kernel_type() == "task_struct" && box.members().count("pid") != 0 &&
        box.members().at("pid").num == 1) {
      found_init = true;
    }
  });
  EXPECT_TRUE(found_init);
}

TEST_F(ViewClTest, ViewInheritanceProducesBothViews) {
  auto graph = MustRun(R"(
    define Task as Box<task_struct> {
      :default [ Text pid, comm ]
      :default => :sched [ Text se.vruntime ]
    }
    plot Task(${&init_task})
  )");
  ASSERT_NE(graph, nullptr);
  const VBox* box = graph->box(graph->roots()[0]);
  const ViewInstance* def = box->FindView("default");
  const ViewInstance* sched = box->FindView("sched");
  ASSERT_NE(def, nullptr);
  ASSERT_NE(sched, nullptr);
  EXPECT_EQ(def->texts.size(), 2u);
  EXPECT_EQ(sched->texts.size(), 3u);  // inherited pid, comm + vruntime
}

TEST_F(ViewClTest, InterningTerminatesCycles) {
  // parent links form cycles (init_task is its own ancestor anchor); a
  // recursive Link must terminate via interning.
  auto graph = MustRun(R"(
    define Task as Box<task_struct> [
      Text pid
      Link parent -> Task(${@this.parent})
    ]
    plot Task(${&init_task})
  )");
  ASSERT_NE(graph, nullptr);
  // init_task's parent is null, so exactly one box exists; run also on init.
  EXPECT_EQ(CountType(*graph, "task_struct"), 1);
}

TEST_F(ViewClTest, InterningSharesBoxesAcrossPaths) {
  auto graph = MustRun(R"(
    define Task as Box<task_struct> [
      Text pid
      Link parent -> Task(${@this.parent})
    ]
    plot Task(${&runqueues[0]})
  )");
  // Bogus type for plot root is fine — instead test two plots sharing a node:
  (void)graph;
  interp_ = std::make_unique<Interpreter>(debugger_.get());
  auto graph2 = MustRun(R"(
    define Task as Box<task_struct> [
      Text pid
      Link parent -> Task(${@this.parent})
    ]
    a = Task(${&init_task})
    plot @a
    plot @a
  )");
  ASSERT_NE(graph2, nullptr);
  EXPECT_EQ(graph2->roots().size(), 2u);
  EXPECT_EQ(graph2->roots()[0], graph2->roots()[1]);
}

TEST_F(ViewClTest, WhereClauseBindings) {
  auto graph = MustRun(R"(
    define Rq as Box<rq> [
      Text cpu
      Text nr: @n
    ] where {
      n = ${@this.cfs.nr_running}
    }
    plot Rq(${cpu_rq(0)})
  )");
  ASSERT_NE(graph, nullptr);
  const VBox* box = graph->box(graph->roots()[0]);
  EXPECT_EQ(box->members().at("nr").num,
            static_cast<int64_t>(kernel_->sched().cpu_rq(0)->cfs.nr_running));
}

TEST_F(ViewClTest, SwitchCaseSelectsArm) {
  auto graph = MustRun(R"(
    define A as Box<task_struct> [ Text pid ]
    define B as Box<task_struct> [ Text tgid ]
    x = switch ${1 + 1} {
      case ${3}: A(${&init_task})
      case ${2}: B(${&init_task})
      otherwise: NULL
    }
    plot @x
  )");
  ASSERT_NE(graph, nullptr);
  const VBox* box = graph->box(graph->roots()[0]);
  EXPECT_EQ(box->decl_name(), "B");
}

TEST_F(ViewClTest, DecoratorsRenderPerTable1) {
  vkern::task_struct* proc = workload_->process(0);
  char program[640];
  std::snprintf(program, sizeof(program), R"(
    define Vma as Box<vm_area_struct> [
      Text<u64:x> vm_start, vm_end
      Text<flag:vm_flags_bits> vm_flags
      Text<bool> is_writable: ${(@this.vm_flags & VM_WRITE) != 0}
    ]
    define Mm as Box<mm_struct> [
      Text map_count
      Container vmas: Array.selectFrom(${&((mm_struct*)0x%llx)->mm_mt}, Vma)
    ]
    plot Mm(${(mm_struct*)0x%llx})
  )",
                static_cast<unsigned long long>(reinterpret_cast<uint64_t>(proc->mm)),
                static_cast<unsigned long long>(reinterpret_cast<uint64_t>(proc->mm)));
  auto g = MustRun(program);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(CountType(*g, "vm_area_struct"), proc->mm->map_count);
  bool saw_hex = false;
  bool saw_flags = false;
  g->ForEachBox([&](const VBox& box) {
    if (box.kernel_type() != "vm_area_struct") {
      return;
    }
    const ViewInstance* view = box.ActiveView();
    if (view->texts[0].display.substr(0, 2) == "0x") {
      saw_hex = true;
    }
    if (box.members().at("vm_flags").str.find("VM_READ") != std::string::npos) {
      saw_flags = true;
    }
  });
  EXPECT_TRUE(saw_hex);
  EXPECT_TRUE(saw_flags);
}

TEST_F(ViewClTest, XArrayWalksPageCache) {
  // Find a file inode with cached pages and plot its page cache.
  vkern::inode* target_ino = nullptr;
  VKERN_LIST_FOR_EACH(pos, &kernel_->ext4_sb()->s_inodes) {
    vkern::inode* ino = VKERN_CONTAINER_OF(pos, vkern::inode, i_sb_list);
    if (ino->i_data.nrpages >= 2) {
      target_ino = ino;
      break;
    }
  }
  ASSERT_NE(target_ino, nullptr);
  char program[512];
  std::snprintf(program, sizeof(program), R"(
    define Page as Box<page> [
      Text<u64:x> flags
      Text index
    ]
    pages = XArray(${&((inode*)0x%llx)->i_data.i_pages}).forEach |entry| {
      yield Page(${(page*)@entry})
    }
    plot @pages
  )",
                static_cast<unsigned long long>(reinterpret_cast<uint64_t>(target_ino)));
  auto graph = MustRun(program);
  ASSERT_NE(graph, nullptr);
  EXPECT_EQ(CountType(*graph, "page"), static_cast<int>(target_ino->i_data.nrpages));
}

TEST_F(ViewClTest, HListWalksPidHash) {
  auto graph = MustRun(R"(
    define Pid as Box<pid> [ Text nr ]
    bucket = HList(${&pid_hash[1]}).forEach |node| {
      yield Pid<pid.pid_chain>(@node)
    }
    plot @bucket
  )");
  ASSERT_NE(graph, nullptr);
  EXPECT_EQ(CountType(*graph, "pid"),
            static_cast<int>(vkern::hlist_count(&kernel_->procs().pid_hash()[1])));
}

TEST_F(ViewClTest, MapleTreeContainerDistillsVmas) {
  vkern::mm_struct* mm = workload_->process(1)->mm;
  char program[512];
  std::snprintf(program, sizeof(program), R"(
    define Vma as Box<vm_area_struct> [ Text<u64:x> vm_start ]
    vmas = MapleTree(${&((mm_struct*)0x%llx)->mm_mt}).forEach |entry| {
      yield Vma(${(vm_area_struct*)@entry})
    }
    plot @vmas
  )",
                static_cast<unsigned long long>(reinterpret_cast<uint64_t>(mm)));
  auto graph = MustRun(program);
  ASSERT_NE(graph, nullptr);
  EXPECT_EQ(CountType(*graph, "vm_area_struct"), mm->map_count);
}

TEST_F(ViewClTest, InlineVirtualBoxes) {
  auto graph = MustRun(R"(
    define Task as Box<task_struct> [ Text pid ]
    wrapper = List(${&init_task.children}).forEach |node| {
      t = Task<task_struct.sibling>(@node)
      yield Box [
        Link child -> @t
      ]
    }
    plot @wrapper
  )");
  ASSERT_NE(graph, nullptr);
  int virtual_boxes = 0;
  graph->ForEachBox([&](const VBox& box) {
    if (box.is_virtual() && box.decl_name().substr(0, 8) == "<inline:") {
      ++virtual_boxes;
    }
  });
  EXPECT_GT(virtual_boxes, 0);
}

TEST_F(ViewClTest, RawContainerRendersValueBoxes) {
  auto graph = MustRun(R"(
    define Sighand as Box<sighand_struct> [
      Text count
      Container actions: Array(${@this.action}, 4)
    ]
    plot Sighand(${init_task.sighand})
  )");
  ASSERT_NE(graph, nullptr);
  const VBox* root = graph->box(graph->roots()[0]);
  const ViewInstance* view = root->ActiveView();
  ASSERT_EQ(view->containers.size(), 1u);
  EXPECT_EQ(view->containers[0].members.size(), 4u);
  EXPECT_EQ(root->members().at("actions.size").num, 4);
}

TEST_F(ViewClTest, WarningsInsteadOfHardFailures) {
  auto graph = MustRun(R"(
    define Task as Box<task_struct> [
      Text pid
      Text broken: ${nonexistent_fn(@this)}
    ]
    plot Task(${&init_task})
  )");
  ASSERT_NE(graph, nullptr);
  EXPECT_FALSE(interp_->warnings().empty());
  const VBox* box = graph->box(graph->roots()[0]);
  EXPECT_EQ(box->ActiveView()->texts[1].display, "?");
}

TEST_F(ViewClTest, ReachableComputesClosure) {
  auto graph = MustRun(R"(
    define Task as Box<task_struct> [
      Text pid
      Link parent -> Task(${@this.parent})
    ]
    plot Task(${&init_task.children == 0 ? 0 : 0})
  )");
  interp_ = std::make_unique<Interpreter>(debugger_.get());
  vkern::task_struct* deep = workload_->user_tasks()[0];
  char program[256];
  std::snprintf(program, sizeof(program), R"(
    define Task as Box<task_struct> [
      Text pid
      Link parent -> Task(${@this.parent})
    ]
    plot Task(${(task_struct*)0x%llx})
  )",
                static_cast<unsigned long long>(reinterpret_cast<uint64_t>(deep)));
  auto g = MustRun(program);
  ASSERT_NE(g, nullptr);
  // bench-0 -> init -> swapper: three tasks reachable through parent links.
  auto reach = g->Reachable(g->roots());
  EXPECT_EQ(reach.size(), 3u);
}

// Counts kCExpr nodes under `e`, and those among them with a compiled handle.
void CountCExprs(const Expr* e, int* total, int* compiled);

void CountBoxCExprs(const BoxDecl& decl, int* total, int* compiled) {
  for (const Binding& b : decl.where) {
    CountCExprs(b.value.get(), total, compiled);
  }
  for (const ViewDecl& view : decl.views) {
    for (const ItemDecl& item : view.items) {
      CountCExprs(item.value.get(), total, compiled);
    }
    for (const Binding& b : view.where) {
      CountCExprs(b.value.get(), total, compiled);
    }
  }
}

void CountCExprs(const Expr* e, int* total, int* compiled) {
  if (e == nullptr) {
    return;
  }
  if (e->kind == Expr::Kind::kCExpr) {
    ++*total;
    if (e->cexpr != nullptr && e->cexpr->text() == e->text) {
      ++*compiled;
    }
  }
  for (const ExprPtr& kid : e->kids) {
    CountCExprs(kid.get(), total, compiled);
  }
  for (const SwitchCase& sc : e->cases) {
    for (const ExprPtr& label : sc.labels) {
      CountCExprs(label.get(), total, compiled);
    }
    CountCExprs(sc.body.get(), total, compiled);
  }
  CountCExprs(e->otherwise.get(), total, compiled);
  if (e->for_each != nullptr) {
    for (const Binding& b : e->for_each->bindings) {
      CountCExprs(b.value.get(), total, compiled);
    }
    CountCExprs(e->for_each->yield.get(), total, compiled);
  }
  if (e->inline_box != nullptr) {
    CountBoxCExprs(*e->inline_box, total, compiled);
  }
}

TEST_F(ViewClTest, ParserCompilesEveryCExpr) {
  auto program = ParseViewCl(R"(
    define Task as Box<task_struct> {
      :default [
        Text pid
        Text v: ${@this.pid + 1}
        Link parent -> Task(${@this.parent})
      ] where { w = ${@this.tgid} }
    } where { x = ${@this.pid + 7} }
    kids = List(${&init_task.children}).forEach |node| {
      t = Task<task_struct.sibling>(@node)
      n = ${1 + / 2}
      yield Box [ Text a: ${2}  Link child -> @t ]
    }
    s = switch ${1} {
      case ${2}, ${3}: Task(${&init_task})
      otherwise: ${0}
    }
    plot Task(${&init_task})
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  int total = 0;
  int compiled = 0;
  for (const auto& decl : program->defines) {
    CountBoxCExprs(*decl, &total, &compiled);
  }
  for (const Binding& b : program->bindings) {
    CountCExprs(b.value.get(), &total, &compiled);
  }
  for (const ExprPtr& plot : program->plots) {
    CountCExprs(plot.get(), &total, &compiled);
  }
  EXPECT_EQ(total, 13);
  EXPECT_EQ(compiled, total);
}

// A ${} syntax error is reported by the evaluation that reaches it, not at
// load: in an untaken switch arm the program runs clean; taken, it warns.
TEST_F(ViewClTest, CExprSyntaxErrorSurfacesOnlyWhenEvaluated) {
  auto untaken = MustRun(R"(
    define A as Box<task_struct> [ Text pid ]
    x = switch ${1} {
      case ${2}: ${1 + / 2}
      otherwise: A(${&init_task})
    }
    plot @x
  )");
  ASSERT_NE(untaken, nullptr);
  EXPECT_EQ(untaken->roots().size(), 1u);
  EXPECT_TRUE(interp_->warnings().empty());

  interp_ = std::make_unique<Interpreter>(debugger_.get());
  auto taken = MustRun(R"(
    define A as Box<task_struct> [ Text pid ]
    x = switch ${2} {
      case ${2}: ${1 + / 2}
      otherwise: A(${&init_task})
    }
    plot @x
  )");
  ASSERT_NE(taken, nullptr);
  ASSERT_FALSE(interp_->warnings().empty());
  EXPECT_EQ(interp_->warnings()[0],
            "binding 'x': PARSE_ERROR: expected an expression (near position 4) in "
            "'1 + / 2'");
}

// @refs inside ${} resolve through the scope chain: the innermost usable
// binding wins, and a binding a C expression cannot use (NULL, a virtual
// box) is passed over so the outer binding of the same name shows through.
TEST_F(ViewClTest, CExprRefsSkipUnusableInnerBindings) {
  auto graph = MustRun(R"(
    define Other as Box<task_struct> [ Text pid ]
    define Task as Box<task_struct> {
      :outer [ Text v: ${@x + 0} ]
      :null [ Text v: ${@x + 0} ] where { x = NULL }
      :virt [ Text v: ${@x + 0} ] where { x = Box [ Text a: ${1} ] }
      :box [ Text v: ${@x->pid + 5} ] where { x = Other(${&init_task}) }
      :inner [ Text v: ${@x + 0} ] where { x = ${@this.pid + 40} }
    } where { x = ${@this.pid + 7} }
    plot Task(${&init_task})
  )");
  ASSERT_NE(graph, nullptr);
  const VBox* box = graph->box(graph->roots()[0]);
  ASSERT_NE(box, nullptr);
  std::map<std::string, std::string> shown;
  for (const ViewInstance& view : box->views()) {
    ASSERT_FALSE(view.texts.empty()) << view.name;
    shown[view.name] = view.texts[0].display;
  }
  EXPECT_EQ(shown["outer"], "7");
  EXPECT_EQ(shown["null"], "7");
  EXPECT_EQ(shown["virt"], "7");
  EXPECT_EQ(shown["box"], "5");
  EXPECT_EQ(shown["inner"], "40");
}

// Parameterized: every workload process's VMA count must match between the
// kernel and the distilled ViewCL container.
class ViewClProcessSweep : public ViewClTest, public ::testing::WithParamInterface<int> {};

TEST_P(ViewClProcessSweep, VmaDistillMatchesKernel) {
  vkern::mm_struct* mm = workload_->process(GetParam())->mm;
  char program[384];
  std::snprintf(program, sizeof(program), R"(
    define Vma as Box<vm_area_struct> [ Text<u64:x> vm_start, vm_end ]
    vmas = Array.selectFrom(${(maple_tree*)0x%llx}, Vma)
    plot @vmas
  )",
                static_cast<unsigned long long>(reinterpret_cast<uint64_t>(&mm->mm_mt)));
  auto graph = MustRun(program);
  ASSERT_NE(graph, nullptr);
  EXPECT_EQ(CountType(*graph, "vm_area_struct"), mm->map_count);
  // And the VMAs come out sorted by vm_start.
  uint64_t prev = 0;
  graph->ForEachBox([&](const VBox& box) {
    if (box.kernel_type() != "vm_area_struct") {
      return;
    }
    auto it = box.members().find("vm_start");
    ASSERT_NE(it, box.members().end());
    uint64_t start = static_cast<uint64_t>(it->second.num);
    EXPECT_GE(start, prev);
    prev = start;
  });
}

INSTANTIATE_TEST_SUITE_P(AllProcesses, ViewClProcessSweep, ::testing::Values(0, 1, 2, 3, 4));

}  // namespace
}  // namespace viewcl

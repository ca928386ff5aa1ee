// Debugger-substrate tests: type registry, target reads + latency accounting,
// and the C expression engine evaluated against a live simulated kernel.

#include <gtest/gtest.h>

#include "src/dbg/kernel_introspect.h"
#include "tests/test_util.h"

namespace dbg {
namespace {

class DbgTest : public vltest::WorkloadKernelTest {
 protected:
  void SetUp() override {
    vltest::WorkloadKernelTest::SetUp();
    debugger_ = std::make_unique<KernelDebugger>(kernel_.get());
  }

  uint64_t EvalU64(const std::string& expr, const Environment* env = nullptr) {
    auto result = debugger_->Eval(expr, env);
    EXPECT_TRUE(result.ok()) << expr << ": " << result.status().ToString();
    if (!result.ok()) {
      return ~0ull;
    }
    auto loaded = result->Load(&debugger_->session());
    EXPECT_TRUE(loaded.ok()) << expr << ": " << loaded.status().ToString();
    return loaded.ok() ? loaded->bits() : ~0ull;
  }

  std::unique_ptr<KernelDebugger> debugger_;
};

TEST_F(DbgTest, TypeLayoutsMatchCompiler) {
  const Type* task = debugger_->types().FindByName("task_struct");
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(task->size, sizeof(vkern::task_struct));
  const Field* pid = task->FindField("pid");
  ASSERT_NE(pid, nullptr);
  EXPECT_EQ(pid->offset, offsetof(vkern::task_struct, pid));
  EXPECT_EQ(pid->type->size, sizeof(int));
  EXPECT_TRUE(pid->type->is_signed);
  const Field* comm = task->FindField("comm");
  ASSERT_NE(comm, nullptr);
  EXPECT_EQ(comm->type->kind, TypeKind::kArray);
  EXPECT_EQ(comm->type->array_len, static_cast<size_t>(vkern::kTaskCommLen));
}

TEST_F(DbgTest, StructTagPrefixLookup) {
  EXPECT_EQ(debugger_->types().FindByName("struct task_struct"),
            debugger_->types().FindByName("task_struct"));
  EXPECT_NE(debugger_->types().FindByName("unsigned long"), nullptr);
  EXPECT_EQ(debugger_->types().FindByName("u64"), debugger_->types().FindByName("unsigned long"));
}

TEST_F(DbgTest, TargetReadsArenaMemory) {
  vkern::task_struct* init = kernel_->procs().init_task();
  auto pid = debugger_->target().ReadUnsigned(
      reinterpret_cast<uint64_t>(init) + offsetof(vkern::task_struct, pid), 4);
  ASSERT_TRUE(pid.ok());
  EXPECT_EQ(*pid, 0u);
  auto comm = debugger_->target().ReadCString(
      reinterpret_cast<uint64_t>(init) + offsetof(vkern::task_struct, comm));
  ASSERT_TRUE(comm.ok());
  EXPECT_EQ(*comm, "swapper/0");
}

TEST_F(DbgTest, TargetRejectsOutOfBounds) {
  uint8_t buf[8];
  EXPECT_FALSE(debugger_->target().ReadBytes(0x10, buf, 8).ok());
  EXPECT_FALSE(debugger_->target().ReadBytes(kernel_->arena().end_addr(), buf, 1).ok());
}

TEST_F(DbgTest, LatencyModelChargesVirtualTime) {
  Target& target = debugger_->target();
  target.set_model(LatencyModel::KgdbRpi400());
  target.ResetStats();
  uint64_t addr = reinterpret_cast<uint64_t>(kernel_->procs().init_task());
  ASSERT_TRUE(target.ReadUnsigned(addr, 8).ok());
  // One uint64 over KGDB ~ 5 ms (the paper's observation).
  EXPECT_GE(target.clock().millis(), 5.0);
  EXPECT_LT(target.clock().millis(), 6.0);
  EXPECT_EQ(target.reads(), 1u);
  EXPECT_EQ(target.bytes_read(), 8u);

  target.set_model(LatencyModel::GdbQemu());
  target.ResetStats();
  ASSERT_TRUE(target.ReadUnsigned(addr, 8).ok());
  EXPECT_LT(target.clock().millis(), 0.2);
}

TEST_F(DbgTest, EvalLiteralsAndArithmetic) {
  EXPECT_EQ(EvalU64("1 + 2 * 3"), 7u);
  EXPECT_EQ(EvalU64("(1 + 2) * 3"), 9u);
  EXPECT_EQ(EvalU64("0x10 | 0x01"), 0x11u);
  EXPECT_EQ(EvalU64("1 << 12"), 4096u);
  EXPECT_EQ(EvalU64("10 % 3"), 1u);
  EXPECT_EQ(EvalU64("7 / 2"), 3u);
  EXPECT_EQ(EvalU64("~0 & 0xff"), 0xffu);
  EXPECT_EQ(EvalU64("1 ? 42 : 13"), 42u);
  EXPECT_EQ(EvalU64("0 ? 42 : 13"), 13u);
  EXPECT_EQ(EvalU64("'A'"), 65u);
  EXPECT_EQ(EvalU64("010"), 8u);
}

TEST_F(DbgTest, EvalLogicalAndComparisons) {
  EXPECT_EQ(EvalU64("1 && 2"), 1u);
  EXPECT_EQ(EvalU64("0 || 0"), 0u);
  EXPECT_EQ(EvalU64("3 == 3"), 1u);
  EXPECT_EQ(EvalU64("3 != 3"), 0u);
  EXPECT_EQ(EvalU64("2 < 3 && 3 <= 3 && 4 > 3 && 3 >= 3"), 1u);
  EXPECT_EQ(EvalU64("!5"), 0u);
  EXPECT_EQ(EvalU64("!0"), 1u);
}

TEST_F(DbgTest, EvalGlobalSymbolMemberChains) {
  EXPECT_EQ(EvalU64("init_task.pid"), 0u);
  // Flattened dot-path through pointers (ViewCL's flatten primitive).
  vkern::task_struct* init_proc = kernel_->procs().FindTaskByPid(1);
  Environment env;
  env.emplace("this", Value::MakeLValue(debugger_->types().FindByName("task_struct"),
                                        reinterpret_cast<uint64_t>(init_proc)));
  EXPECT_EQ(EvalU64("@this.pid", &env), 1u);
  EXPECT_EQ(EvalU64("@this.parent.pid", &env), 0u);  // init's parent is swapper
  EXPECT_EQ(EvalU64("@this.mm.map_count", &env),
            static_cast<uint64_t>(init_proc->mm->map_count));
  EXPECT_EQ(EvalU64("@this.signal.nr_threads", &env), 1u);
}

TEST_F(DbgTest, EvalArrowEqualsDot) {
  vkern::task_struct* t = kernel_->procs().FindTaskByPid(1);
  Environment env;
  env.emplace("t", Value::MakePointer(
                       debugger_->types().PointerTo(debugger_->types().FindByName("task_struct")),
                       reinterpret_cast<uint64_t>(t)));
  EXPECT_EQ(EvalU64("@t->pid", &env), 1u);
  EXPECT_EQ(EvalU64("@t.pid", &env), 1u);  // GDB-style permissive dot
  EXPECT_EQ(EvalU64("(*@t).pid", &env), 1u);
}

TEST_F(DbgTest, EvalArrayIndexing) {
  // runqueues[1].cpu == 1
  EXPECT_EQ(EvalU64("runqueues[1].cpu"), 1u);
  EXPECT_EQ(EvalU64("runqueues[0].cpu"), 0u);
  // irq_desc[14] has a shared action chain.
  EXPECT_NE(EvalU64("irq_desc[14].action"), 0u);
  EXPECT_NE(EvalU64("irq_desc[14].action->next"), 0u);
  EXPECT_EQ(EvalU64("irq_desc[14].action->irq"), 14u);
}

TEST_F(DbgTest, EvalHelperCalls) {
  EXPECT_EQ(EvalU64("cpu_rq(0)->cpu"), 0u);
  EXPECT_EQ(EvalU64("cpu_rq(1)->cfs.nr_running"),
            static_cast<uint64_t>(kernel_->sched().cpu_rq(1)->cfs.nr_running));
  EXPECT_EQ(EvalU64("pid_hashfn(65)"), 1u);
}

TEST_F(DbgTest, EvalMapleHelpers) {
  vkern::mm_struct* mm = workload_->process(0)->mm;
  Environment env;
  env.emplace("mm", Value::MakeLValue(debugger_->types().FindByName("mm_struct"),
                                      reinterpret_cast<uint64_t>(mm)));
  uint64_t root = EvalU64("@mm.mm_mt.ma_root", &env);
  ASSERT_NE(root, 0u);
  EXPECT_EQ(EvalU64("xa_is_node(@mm.mm_mt.ma_root)", &env), 1u);
  uint64_t node_addr = EvalU64("mte_to_node(@mm.mm_mt.ma_root)", &env);
  EXPECT_EQ(node_addr & 0xff, 0u);
  uint64_t node_type = EvalU64("mte_node_type(@mm.mm_mt.ma_root)", &env);
  EXPECT_TRUE(node_type == vkern::maple_arange_64 || node_type == vkern::maple_leaf_64);
  // Enumerator comparison, as used in ViewCL switch-cases.
  EXPECT_EQ(EvalU64("mte_node_type(@mm.mm_mt.ma_root) == maple_arange_64 || "
                    "mte_node_type(@mm.mm_mt.ma_root) == maple_leaf_64",
                    &env),
            1u);
}

TEST_F(DbgTest, EvalCasts) {
  vkern::task_struct* t = kernel_->procs().FindTaskByPid(1);
  Environment env;
  env.emplace("addr",
              Value::MakeInt(debugger_->types().u64(), reinterpret_cast<uint64_t>(t)));
  EXPECT_EQ(EvalU64("((struct task_struct *)@addr)->pid", &env), 1u);
  EXPECT_EQ(EvalU64("((task_struct *)@addr)->pid", &env), 1u);
  EXPECT_EQ(EvalU64("(unsigned long)123", &env), 123u);
  EXPECT_EQ(EvalU64("(u8)0x1ff", &env), 0xffu);
  // Signed narrowing sign-extends.
  EXPECT_EQ(static_cast<int64_t>(EvalU64("(s8)0xff", &env)), -1);
}

TEST_F(DbgTest, EvalSizeof) {
  EXPECT_EQ(EvalU64("sizeof(task_struct)"), sizeof(vkern::task_struct));
  EXPECT_EQ(EvalU64("sizeof(unsigned long)"), 8u);
  EXPECT_EQ(EvalU64("sizeof(maple_node)"), sizeof(vkern::maple_node));
}

TEST_F(DbgTest, EvalEnumerators) {
  EXPECT_EQ(EvalU64("PIPE_BUF_FLAG_CAN_MERGE"), vkern::PIPE_BUF_FLAG_CAN_MERGE);
  EXPECT_EQ(EvalU64("VM_WRITE"), vkern::VM_WRITE);
  EXPECT_EQ(EvalU64("maple_leaf_64"), 1u);
  EXPECT_EQ(EvalU64("NULL == 0"), 1u);
}

TEST_F(DbgTest, EvalPointerArithmetic) {
  // &mem_map[3] == mem_map + 3 scaled by sizeof(page).
  uint64_t base = EvalU64("&mem_map[0]");
  uint64_t third = EvalU64("&mem_map[3]");
  EXPECT_EQ(third - base, 3 * sizeof(vkern::page));
}

TEST_F(DbgTest, EvalErrorsAreReported) {
  EXPECT_FALSE(debugger_->Eval("nonexistent_symbol").ok());
  EXPECT_FALSE(debugger_->Eval("init_task.no_such_field").ok());
  EXPECT_FALSE(debugger_->Eval("1 +").ok());
  EXPECT_FALSE(debugger_->Eval("unknown_helper(3)").ok());
  EXPECT_FALSE(debugger_->Eval("1 / 0").ok());
  EXPECT_FALSE(debugger_->Eval("@unbound").ok());
  EXPECT_FALSE(debugger_->Eval("").ok());
}

TEST_F(DbgTest, TaskStateHelperYieldsString) {
  auto result = debugger_->Eval("task_state(init_task)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->type()->kind, TypeKind::kPointer);
  auto text = debugger_->target().ReadCString(result->bits());
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "I (idle)");
}

TEST_F(DbgTest, FunctionSymbolization) {
  uint64_t func = EvalU64("irq_desc[14].action->handler");
  EXPECT_EQ(debugger_->symbols().FunctionName(func), "ata_bmdma_interrupt");
}

TEST_F(DbgTest, RbNodeColorCompactionHelpers) {
  // Find a queued task and decode its run_node parent pointer.
  vkern::rb_node* leftmost =
      vkern::rb_first_cached(&kernel_->sched().cpu_rq(0)->cfs.tasks_timeline);
  if (leftmost == nullptr) {
    GTEST_SKIP() << "no runnable tasks on CPU 0";
  }
  Environment env;
  env.emplace("n", Value::MakeLValue(debugger_->types().FindByName("rb_node"),
                                     reinterpret_cast<uint64_t>(leftmost)));
  uint64_t parent = EvalU64("rb_parent(@n.__rb_parent_color)", &env);
  EXPECT_EQ(parent, reinterpret_cast<uint64_t>(vkern::rb_parent(leftmost)));
}

TEST_F(DbgTest, CheckExpressionParseOnly) {
  EXPECT_TRUE(CompileCExpression("a.b->c[3] + foo(1,2) ? x : y")->status().ok());
  EXPECT_FALSE(CompileCExpression("a + / b")->status().ok());
  EXPECT_FALSE(CompileCExpression("(a")->status().ok());
}

}  // namespace
}  // namespace dbg

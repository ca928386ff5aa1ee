// Extraction-plan correctness: plan-assisted extraction must render
// byte-identically to the classic interpreter across the full figure corpus
// (including the CVE case studies), batch accounting must reconcile exactly
// against the virtual clock, plan caching must invalidate on redefinition,
// gated programs must fall back to pure interpretation, and parallel
// wavefront decode must not change results.

#include "src/viewcl/plan.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/dbg/kernel_introspect.h"
#include "src/dbg/read_session.h"
#include "src/serve/shell.h"
#include "src/support/metrics.h"
#include "src/viewcl/interp.h"
#include "src/vision/figures.h"
#include "src/vision/render.h"
#include "src/vkern/faults.h"
#include "tests/test_util.h"

namespace viewcl {
namespace {

class PlanTest : public vltest::WorkloadKernelTest {
 protected:
  // A fresh debugger with a block cache and the paper's GDB latency model
  // (plans only engage through a cache; the latency model makes the batch
  // accounting non-trivial).
  std::unique_ptr<dbg::KernelDebugger> MakeDebugger() {
    auto debugger = std::make_unique<dbg::KernelDebugger>(
        kernel_.get(), dbg::LatencyModel::GdbQemu(), dbg::CacheConfig{});
    vision::RegisterFigureSymbols(debugger.get(), workload_.get());
    return debugger;
  }

  static InterpLimits PlanLimits() {
    InterpLimits limits;
    limits.compile_plans = true;
    return limits;
  }

  // Renders one program cold (fresh debugger) under the given limits.
  std::string Render(const std::string& program, const InterpLimits& limits) {
    auto debugger = MakeDebugger();
    Interpreter interp(debugger.get(), limits);
    auto graph = interp.RunProgram(program);
    EXPECT_TRUE(graph.ok()) << graph.status().ToString();
    if (!graph.ok()) {
      return std::string();
    }
    return vision::AsciiRenderer().Render(**graph);
  }

  void ExpectIdenticalRenders(const std::string& id, const std::string& program) {
    std::string classic = Render(program, InterpLimits{});
    std::string planned = Render(program, PlanLimits());
    ASSERT_FALSE(classic.empty()) << id;
    EXPECT_EQ(classic, planned) << id << ": plan-assisted render diverged";
  }
};

// The core contract: the plan is a prefetch oracle, so every Table 2 figure
// must render byte-identically with plans on and off.
TEST_F(PlanTest, ByteIdenticalRendersAcrossAllFigures) {
  ASSERT_EQ(vision::AllFigures().size(), 21u);
  for (const vision::FigureDef& figure : vision::AllFigures()) {
    ExpectIdenticalRenders(figure.id, figure.viewcl);
  }
}

// Same contract over corrupted kernel states: both CVE case studies mutate
// structures (freed maple node, page-cache overwrite) that the speculative
// executor walks.
TEST_F(PlanTest, ByteIdenticalRendersAfterStackRot) {
  vkern::StackRotReport report =
      vkern::RunStackRotScenario(kernel_.get(), workload_->process(0));
  ASSERT_NE(report.fetched_node, nullptr);
  for (const char* id : {"fig9_2", "fig3_4"}) {
    const vision::FigureDef* figure = vision::FindFigure(id);
    ASSERT_NE(figure, nullptr) << id;
    ExpectIdenticalRenders(id, figure->viewcl);
  }
}

TEST_F(PlanTest, ByteIdenticalRendersAfterDirtyPipe) {
  vkern::DirtyPipeReport report = vkern::RunDirtyPipeScenario(
      kernel_.get(), workload_->process(0), /*vulnerable=*/true);
  ASSERT_TRUE(report.file_content_corrupted);
  for (const char* id : {"fig15_1", "fig12_3"}) {
    const vision::FigureDef* figure = vision::FindFigure(id);
    ASSERT_NE(figure, nullptr) << id;
    ExpectIdenticalRenders(id, figure->viewcl);
  }
}

// Exact batch accounting: with batching in play the virtual clock must still
// decompose exactly into reads * per_access + bytes * per_byte (a vectored
// batch counts as ONE read), and the batches must actually have coalesced
// multiple would-be round trips.
TEST_F(PlanTest, BatchAccountingReconcilesExactly) {
  auto debugger = MakeDebugger();
  debugger->target().ResetStats();  // zero the read.vector.* / plan.* families

  Interpreter interp(debugger.get(), PlanLimits());
  const vision::FigureDef* figure = vision::FindFigure("fig3_6");
  ASSERT_NE(figure, nullptr);
  auto graph = interp.RunProgram(figure->viewcl);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();

  const dbg::Target& target = debugger->target();
  const dbg::LatencyModel& model = target.model();
  EXPECT_EQ(target.clock().nanos(),
            target.reads() * model.per_access_ns +
                target.bytes_read() * model.per_byte_ns)
      << "clock must equal reads x per_access + bytes x per_byte exactly";

  vl::MetricsRegistry& metrics = vl::MetricsRegistry::Instance();
  EXPECT_GT(metrics.GetCounter("read.vector.batches")->value(), 0u);
  EXPECT_GT(metrics.GetCounter("read.vector.avoided_round_trips")->value(), 0u);
  EXPECT_GT(metrics.GetCounter("plan.wavefronts")->value(), 0u);
  // Wavefronts that found everything cached issue no batch.
  EXPECT_LE(metrics.GetCounter("plan.batches")->value(),
            metrics.GetCounter("plan.wavefronts")->value());
  // The session's vectored-fetch stats mirror the target's batch count.
  EXPECT_EQ(debugger->session().cache_stats().vector_batches,
            metrics.GetCounter("read.vector.batches")->value());
}

// The plan must make cold extraction dramatically cheaper: one batch per
// wavefront instead of one round trip per pointer.
TEST_F(PlanTest, ColdExtractionCheaperWithPlans) {
  const vision::FigureDef* figure = vision::FindFigure("fig3_6");
  ASSERT_NE(figure, nullptr);

  auto classic_debugger = MakeDebugger();
  Interpreter classic(classic_debugger.get());
  ASSERT_TRUE(classic.RunProgram(figure->viewcl).ok());
  uint64_t classic_ns = classic_debugger->target().clock().nanos();

  auto planned_debugger = MakeDebugger();
  Interpreter planned(planned_debugger.get(), PlanLimits());
  ASSERT_TRUE(planned.RunProgram(figure->viewcl).ok());
  uint64_t planned_ns = planned_debugger->target().clock().nanos();

  EXPECT_LT(planned_ns * 3, classic_ns)
      << "plan-assisted cold extraction must be at least 3x cheaper "
      << "(classic " << classic_ns << " ns, planned " << planned_ns << " ns)";
}

// Plan caching: repeated Run() reuses the compiled plan; a Load() (program
// redefinition) invalidates it and the next Run() recompiles.
TEST_F(PlanTest, PlanCacheInvalidatesOnRedefinition) {
  auto debugger = MakeDebugger();
  debugger->target().ResetStats();
  vl::MetricsRegistry& metrics = vl::MetricsRegistry::Instance();

  Interpreter interp(debugger.get(), PlanLimits());
  const vision::FigureDef* figure = vision::FindFigure("fig3_4");
  ASSERT_NE(figure, nullptr);
  ASSERT_TRUE(interp.Load(figure->viewcl).ok());
  ASSERT_TRUE(interp.Run().ok());
  EXPECT_EQ(metrics.GetCounter("plan.compiles")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("plan.cache_hits")->value(), 0u);
  ASSERT_NE(interp.plan(), nullptr);
  EXPECT_EQ(interp.plan()->executions(), 1u);

  ASSERT_TRUE(interp.Run().ok());
  EXPECT_EQ(metrics.GetCounter("plan.compiles")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("plan.cache_hits")->value(), 1u);

  // Redefining (any new chunk) bumps the program version: recompile.
  ASSERT_TRUE(interp.Load(figure->viewcl).ok());
  ASSERT_TRUE(interp.Run().ok());
  EXPECT_EQ(metrics.GetCounter("plan.compiles")->value(), 2u);
  EXPECT_EQ(metrics.GetCounter("plan.cache_hits")->value(), 1u);
}

// The gate: a refused program is pinned to the classic path — no plan is
// compiled or executed, but the program still loads and runs.
TEST_F(PlanTest, GatedProgramFallsBackToInterpreter) {
  auto debugger = MakeDebugger();
  debugger->target().ResetStats();
  vl::MetricsRegistry& metrics = vl::MetricsRegistry::Instance();

  Interpreter interp(debugger.get(), PlanLimits());
  interp.SetPlanGate([](const Program&, std::string_view) { return false; });
  const vision::FigureDef* figure = vision::FindFigure("fig3_4");
  ASSERT_NE(figure, nullptr);
  auto graph = interp.RunProgram(figure->viewcl);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(interp.plan(), nullptr);
  EXPECT_EQ(metrics.GetCounter("plan.compiles")->value(), 0u);
  EXPECT_EQ(metrics.GetCounter("plan.executions")->value(), 0u);
  // The JSON shape reports the block so `vctrl plan` can say why.
  EXPECT_TRUE(interp.PlanToJson()["blocked"].AsBool());
}

// Plans also require a block cache: with caching disabled, prefetch would
// double-charge, so the executor must not run.
TEST_F(PlanTest, NoPlanWithoutBlockCache) {
  auto debugger = std::make_unique<dbg::KernelDebugger>(
      kernel_.get(), dbg::LatencyModel::GdbQemu(), dbg::CacheConfig::Disabled());
  vision::RegisterFigureSymbols(debugger.get(), workload_.get());
  debugger->target().ResetStats();
  vl::MetricsRegistry& metrics = vl::MetricsRegistry::Instance();

  Interpreter interp(debugger.get(), PlanLimits());
  const vision::FigureDef* figure = vision::FindFigure("fig3_4");
  ASSERT_NE(figure, nullptr);
  ASSERT_TRUE(interp.RunProgram(figure->viewcl).ok());
  EXPECT_EQ(metrics.GetCounter("plan.executions")->value(), 0u);
}

// Parallel wavefront decode: forcing the parallel threshold to 1 must engage
// worker threads without changing the rendered output. (This test also backs
// the tsan-serve preset's Plan filter.)
TEST_F(PlanTest, ParallelDecodeMatchesSerial) {
  const vision::FigureDef* figure = vision::FindFigure("fig3_6");
  ASSERT_NE(figure, nullptr);

  InterpLimits parallel = PlanLimits();
  parallel.plan_parallel_min = 1;
  parallel.plan_workers = 4;

  std::string classic = Render(figure->viewcl, InterpLimits{});
  auto debugger = MakeDebugger();
  debugger->target().ResetStats();
  Interpreter interp(debugger.get(), parallel);
  auto graph = interp.RunProgram(figure->viewcl);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(classic, vision::AsciiRenderer().Render(**graph));
  EXPECT_GT(interp.plan()->last_stats().parallel_wavefronts, 0u);
}

// ResetStats satellite: both new counter families zero on a target reset.
TEST_F(PlanTest, ResetStatsClearsPlanAndVectorCounters) {
  auto debugger = MakeDebugger();
  Interpreter interp(debugger.get(), PlanLimits());
  const vision::FigureDef* figure = vision::FindFigure("fig3_6");
  ASSERT_NE(figure, nullptr);
  ASSERT_TRUE(interp.RunProgram(figure->viewcl).ok());

  vl::MetricsRegistry& metrics = vl::MetricsRegistry::Instance();
  ASSERT_GT(metrics.GetCounter("plan.executions")->value(), 0u);
  ASSERT_GT(metrics.GetCounter("read.vector.batches")->value(), 0u);

  debugger->target().ResetStats();
  EXPECT_EQ(metrics.GetCounter("plan.executions")->value(), 0u);
  EXPECT_EQ(metrics.GetCounter("plan.wavefronts")->value(), 0u);
  EXPECT_EQ(metrics.GetCounter("read.vector.batches")->value(), 0u);
  EXPECT_EQ(metrics.GetCounter("read.vector.spans")->value(), 0u);
  EXPECT_EQ(metrics.GetCounter("read.vector.avoided_round_trips")->value(), 0u);
}

// The plan DAG dump carries the compiled shape: per-box items with resolved
// adapters, and the last execution's stats.
TEST_F(PlanTest, PlanDumpExposesCompiledShape) {
  auto debugger = MakeDebugger();
  Interpreter interp(debugger.get(), PlanLimits());
  const vision::FigureDef* figure = vision::FindFigure("fig3_4");
  ASSERT_NE(figure, nullptr);
  ASSERT_TRUE(interp.RunProgram(figure->viewcl).ok());

  vl::Json dump = interp.PlanToJson();
  ASSERT_FALSE(dump.is_null());
  EXPECT_GT(dump["boxes"].size(), 0u);
  EXPECT_GT(dump["last_exec"]["wavefronts"].AsInt(), 0);
  EXPECT_GT(interp.plan()->box_count(), 0u);
}

// Direct Target::ReadVector contract: one batch charges base latency once
// plus per-byte for the successful spans; failed spans are tolerated.
TEST_F(PlanTest, ReadVectorChargesOneBatch) {
  auto debugger = MakeDebugger();
  debugger->target().ResetStats();
  dbg::Target& target = debugger->target();

  dbg::Value task_sym;
  ASSERT_TRUE(debugger->symbols().FindGlobal("target_task", &task_sym));
  uint64_t task = task_sym.addr();
  uint8_t a[64], b[64], c[16];
  std::vector<dbg::ReadSpan> spans = {
      {task, sizeof(a), a},
      {task + 128, sizeof(b), b},
      {~uint64_t{0} - 8, sizeof(c), c},  // unreadable: must not fail the batch
  };
  size_t ok = target.ReadVector(spans);
  EXPECT_EQ(ok, 2u);
  EXPECT_TRUE(spans[0].ok);
  EXPECT_TRUE(spans[1].ok);
  EXPECT_FALSE(spans[2].ok);
  EXPECT_EQ(target.reads(), 1u);
  EXPECT_EQ(target.bytes_read(), sizeof(a) + sizeof(b));
  const dbg::LatencyModel& model = target.model();
  EXPECT_EQ(target.clock().nanos(),
            model.per_access_ns + model.per_byte_ns * (sizeof(a) + sizeof(b)));
}

// The serving surfaces: `vctrl plan <pane>` dumps the compiled plan behind a
// pane (every served shard engine compiles plans), `vctrl stats` grows a
// plan: section, the merged stats JSON carries the counter family, and
// `vctrl export prom` publishes the vl_plan_* gauges.
TEST_F(PlanTest, ShellExposesPlanSurfaces) {
  vserve::Server server;
  ASSERT_TRUE(server.BootShard("k0", dbg::LatencyModel::GdbQemu()).ok());
  server.ResetStats();
  auto client = server.Connect();
  ASSERT_TRUE(client.ok());
  vserve::DebuggerShell shell((*client).session());

  const vision::FigureDef* figure = vision::FindFigure("fig3_6");
  ASSERT_NE(figure, nullptr);
  std::string plotted =
      shell.Execute(std::string("vplot 1 ") + figure->viewcl);
  ASSERT_NE(plotted.find("pane 1"), std::string::npos) << plotted;

  std::string summary = shell.Execute("vctrl plan 1");
  EXPECT_NE(summary.find("wavefront(s)"), std::string::npos) << summary;
  std::string dump = shell.Execute("vctrl plan 1 json");
  EXPECT_NE(dump.find("\"boxes\""), std::string::npos) << dump;

  std::string stats = shell.Execute("vctrl stats");
  EXPECT_NE(stats.find("plan:"), std::string::npos) << stats;
  std::string stats_json = shell.Execute("vctrl stats json");
  EXPECT_NE(stats_json.find("\"avoided_round_trips\""), std::string::npos)
      << stats_json;

  std::string prom = shell.Execute("vctrl export prom");
  EXPECT_NE(prom.find("vl_plan_fleet_compiles"), std::string::npos);
  EXPECT_NE(prom.find("vl_plan_fleet_batched_reads"), std::string::npos);

  // Server::ResetStats clears the plan/vector families fleet-wide.
  server.ResetStats();
  vl::MetricsRegistry& metrics = vl::MetricsRegistry::Instance();
  EXPECT_EQ(metrics.GetCounter("plan.compiles")->value(), 0u);
  EXPECT_EQ(metrics.GetCounter("read.vector.batches")->value(), 0u);
}

}  // namespace
}  // namespace viewcl

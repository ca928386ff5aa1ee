// vserve serving-layer tests: SessionOptions validation, request dedup
// (one extraction serves every overlapping client), per-session view
// isolation, byte-identical renders vs single-session mode, admission
// control, shard routing, the async scheduler, and the Target stats
// snapshot race fixed alongside this layer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/dbg/kernel_introspect.h"
#include "src/serve/options.h"
#include "src/serve/server.h"
#include "src/serve/shell.h"
#include "src/support/metrics.h"
#include "src/support/str.h"
#include "src/viewcl/interp.h"
#include "src/vision/figures.h"
#include "src/vision/render.h"
#include "src/vkern/kernel.h"
#include "src/vkern/workload.h"
#include "tests/test_util.h"

namespace vserve {
namespace {

const char* Fig(const char* id) { return vision::FindFigure(id)->viewcl; }

// ---------------------------------------------------------------------------
// SessionOptions (the consolidated-config satellite)

TEST(SessionOptionsTest, DefaultsValidateClean) {
  SessionOptions options;
  vl::DiagnosticList diags = options.Validate();
  EXPECT_EQ(diags.errors(), 0);
  EXPECT_EQ(options.ValidationText(), "");
}

TEST(SessionOptionsTest, FailFastDiagnosticsCarryRuleIds) {
  SessionOptions options;
  options.capacity_blocks = 0;  // VS002
  EXPECT_GT(options.Validate().errors(), 0);
  EXPECT_NE(options.ValidationText().find("error[VS002]"), std::string::npos);

  options = SessionOptions{};
  options.max_queued = 0;  // VS004
  EXPECT_NE(options.ValidationText().find("VS004"), std::string::npos);

  options = SessionOptions{};
  options.shard = "bad shard";  // VS005
  EXPECT_NE(options.ValidationText().find("VS005"), std::string::npos);

  // Every error is reported, sorted by rule ID; Connect refuses the session.
  options.capacity_blocks = 0;
  options.max_queued = 0;
  EXPECT_EQ(options.Validate().errors(), 3);
  std::string text = options.ValidationText();
  EXPECT_LT(text.find("VS002"), text.find("VS004"));
  EXPECT_LT(text.find("VS004"), text.find("VS005"));
  Server server;
  ASSERT_TRUE(server.BootShard("k0").ok());
  auto refused = server.Connect(options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), vl::StatusCode::kInvalidArgument);
}

TEST(SessionOptionsTest, ShardRunsIncrementalCacheAtSessionCapacity) {
  vkern::Kernel kernel;
  dbg::KernelDebugger debugger(&kernel);  // a bare debugger: classic full flush
  ASSERT_FALSE(debugger.session().config() == dbg::CacheConfig::Incremental());
  Server server;
  ASSERT_TRUE(server.AddShard("k0", &debugger).ok());
  SessionOptions options;
  options.capacity_blocks = 64;
  auto client = server.Connect(options);
  ASSERT_TRUE(client.ok());

  // Connect put the shard on the one serving config, at the asked capacity.
  dbg::CacheConfig want = dbg::CacheConfig::Incremental();
  want.capacity_blocks = 64;
  EXPECT_TRUE(debugger.session().config() == want);
  EXPECT_TRUE(debugger.session().delta_enabled());
  // operator== compares every field.
  want.block_bytes = 512;
  EXPECT_FALSE(debugger.session().config() == want);
  EXPECT_TRUE(dbg::CacheConfig::Disabled() == dbg::CacheConfig::Disabled());
  EXPECT_FALSE(dbg::CacheConfig{} == dbg::CacheConfig::Incremental());
}

// ---------------------------------------------------------------------------
// Serving

class ServeTest : public ::testing::Test {
 protected:
  // One booted shard on the GDB/QEMU latency model so refreshes have a real
  // (virtual) cost to account.
  void Boot(Server& server, const std::string& name = "k0",
            dbg::LatencyModel model = dbg::LatencyModel::GdbQemu()) {
    ASSERT_TRUE(server.BootShard(name, model).ok());
  }
};

TEST_F(ServeTest, DedupServesSecondClientFromOneExtraction) {
  Server server;
  Boot(server);
  auto a = server.Connect();
  auto b = server.Connect();
  ASSERT_TRUE(a.ok() && b.ok());

  ASSERT_TRUE((*a)->Plot(1, Fig("fig3_4")).ok());
  ASSERT_TRUE((*b)->Plot(1, Fig("fig3_4")).ok());

  auto first = (*a)->Refresh(1);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->deduped);
  EXPECT_EQ((*a)->executed(), 1u);

  uint64_t charged_before = (*b)->charged_ns();
  auto second = (*b)->Refresh(1);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->deduped);
  EXPECT_EQ(second->refresh_ns, 0u);  // the duplicate is charged nothing
  EXPECT_EQ((*b)->charged_ns(), charged_before);
  EXPECT_EQ((*b)->deduped(), 1u);
  EXPECT_EQ((*b)->executed(), 0u);
  // ...and it is served real bytes, not just accounting.
  EXPECT_FALSE(second->render.empty());
  EXPECT_EQ(second->render, first->render);
  // Completion sequences are server-wide and monotonic.
  EXPECT_GT(second->sequence, first->sequence);
}

TEST_F(ServeTest, KernelMutationInvalidatesDedup) {
  Server server;
  Boot(server);
  auto a = server.Connect();
  auto b = server.Connect();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*a)->Plot(1, Fig("fig3_4")).ok());
  ASSERT_TRUE((*b)->Plot(1, Fig("fig3_4")).ok());
  ASSERT_TRUE((*a)->Refresh(1).ok());

  // Advance the kernel: the dedup key embeds the mutation generation, so the
  // stale cached result must not be served.
  server.shard_workload("k0")->Step();
  auto fresh = (*b)->Refresh(1);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->deduped);
  EXPECT_EQ((*b)->executed(), 1u);
}

TEST_F(ServeTest, PerSessionViewIsolation) {
  Server server;
  Boot(server);
  auto a = server.Connect();
  auto b = server.Connect();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*a)->Plot(1, Fig("fig3_4")).ok());
  ASSERT_TRUE((*b)->Plot(1, Fig("fig3_4")).ok());
  EXPECT_EQ((*a)->Render(1), (*b)->Render(1));

  // A ViewQL refinement in one session must not leak into the other, even
  // though both share the shard's block cache and engines.
  ASSERT_TRUE((*a)->Apply(1,
                          "a = SELECT task_struct FROM *\n"
                          "UPDATE a WITH collapsed: true")
                  .ok());
  EXPECT_NE((*a)->Render(1), (*b)->Render(1));

  // And the refinement changes A's dedup key, so A's next refresh is a real
  // extraction, not B's cached result.
  ASSERT_TRUE((*b)->Refresh(1).ok());
  auto refined = (*a)->Refresh(1);
  ASSERT_TRUE(refined.ok());
  EXPECT_FALSE(refined->deduped);
}

// The same deterministic kernel as BootShard's: the standard 60-step workload.
struct StandardKernel {
  StandardKernel() : workload(&kernel, Config()) { workload.Run(); }
  static vkern::WorkloadConfig Config() {
    vkern::WorkloadConfig config;
    config.steps = 60;
    return config;
  }

  vkern::Kernel kernel;
  vkern::Workload workload;
};

// Regression: a shell refresh must re-run the pane's program, not append a
// second `plot` section to it. After `vctrl refresh` the shell's view equals a
// served Refresh and a plain interpreter on an uncached debugger.
TEST_F(ServeTest, RendersByteIdenticalToSingleSessionMode) {
  // Serving path: a session on a booted shard.
  Server server;
  Boot(server, "k0", dbg::LatencyModel::Free());
  auto client = server.Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Plot(1, Fig("fig3_4")).ok());
  auto served = (*client)->Refresh(1);
  ASSERT_TRUE(served.ok());

  // Single-session mode: a shell over its own kernel. The reference debugger
  // is attached first, because attaching writes the kernel arena.
  StandardKernel local;
  dbg::KernelDebugger oracle(&local.kernel, dbg::LatencyModel::Free(),
                             dbg::CacheConfig::Disabled());
  vision::RegisterFigureSymbols(&oracle, &local.workload);
  dbg::KernelDebugger debugger(&local.kernel);
  vision::RegisterFigureSymbols(&debugger, &local.workload);
  vltest::ServedShell shell(&debugger);
  ASSERT_NE(shell.Execute(std::string("vplot 1 ") + Fig("fig3_4")).find("plotted"),
            std::string::npos);
  ASSERT_NE(shell.Execute("vctrl refresh 1").find("refreshed pane 1"), std::string::npos);
  std::string view = shell.Execute("vctrl view 1");

  // Reference: one plain interpreter run, no cache, no serving layer.
  viewcl::Interpreter interp(&oracle);
  auto graph = interp.RunProgram(Fig("fig3_4"));
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  std::string expected = vision::AsciiRenderer().Render(**graph);

  EXPECT_EQ(view, expected);
  EXPECT_EQ(served->render, expected);
  // Further refreshes keep the bytes: in the shell, and on the served session.
  ASSERT_NE(shell.Execute("vctrl refresh 1").find("refreshed pane 1"), std::string::npos);
  EXPECT_EQ(shell.Execute("vctrl view 1"), expected);
  auto again = (*client)->Refresh(1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->render, served->render);
}

TEST_F(ServeTest, AdmissionRejectsSessionOverBudget) {
  Server server;
  Boot(server);
  SessionOptions options;
  options.session_budget_ns = 1;
  auto client = server.Connect(options);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Plot(1, Fig("fig3_4")).ok());
  // Step the kernel so the first refresh re-reads dirty pages and is
  // guaranteed to charge > 0 virtual ns.
  server.shard_workload("k0")->Step();

  auto first = (*client)->Refresh(1);
  ASSERT_TRUE(first.ok());
  ASSERT_GT((*client)->charged_ns(), 0u);

  auto second = (*client)->Refresh(1);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), vl::StatusCode::kResourceExhausted);
  EXPECT_EQ((*client)->rejected(), 1u);
  // The rejection is recorded as a budget violation for vexplain.
  ASSERT_FALSE((*client)->budgets().violations().empty());
  const vl::BudgetViolation& violation = (*client)->budgets().violations().back();
  EXPECT_EQ(violation.key, vl::StrFormat("serve.session.%d", (*client)->id()));
  EXPECT_EQ(violation.budget_ns, 1u);
}

TEST_F(ServeTest, ShardRoutingNamedAndRoundRobin) {
  Server server;
  Boot(server, "k0", dbg::LatencyModel::Free());
  Boot(server, "k1", dbg::LatencyModel::Free());
  EXPECT_EQ(server.shard_count(), 2u);

  SessionOptions named;
  named.shard = "k1";
  auto pinned = server.Connect(named);
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ((*pinned)->shard_name(), "k1");

  SessionOptions missing;
  missing.shard = "nope";
  auto not_found = server.Connect(missing);
  ASSERT_FALSE(not_found.ok());
  EXPECT_EQ(not_found.status().code(), vl::StatusCode::kNotFound);

  // "" spreads sessions round-robin across the fleet.
  auto c1 = server.Connect();
  auto c2 = server.Connect();
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_NE((*c1)->shard_name(), (*c2)->shard_name());
  EXPECT_EQ(server.session_count(), 3u);
}

TEST_F(ServeTest, ConnectRefusesCacheConfigConflictWhileOccupied) {
  Server server;
  Boot(server, "k0", dbg::LatencyModel::Free());
  SessionOptions big;
  big.capacity_blocks = 8192;
  {
    auto first = server.Connect();  // adopts the default incremental config
    ASSERT_TRUE(first.ok());
    auto conflicting = server.Connect(big);
    ASSERT_FALSE(conflicting.ok());
    EXPECT_EQ(conflicting.status().code(), vl::StatusCode::kFailedPrecondition);
    // A matching config can still share the shard.
    auto matching = server.Connect();
    EXPECT_TRUE(matching.ok());
  }
  // Once the shard is empty again it adopts the newcomer's config.
  auto retry = server.Connect(big);
  EXPECT_TRUE(retry.ok());
}

TEST_F(ServeTest, SchedulerQueuesUnderPauseAndPreservesFifo) {
  Server server;  // inline mode: workers == 0
  Boot(server, "k0", dbg::LatencyModel::Free());
  SessionOptions options;
  options.max_queued = 2;
  auto client = server.Connect(options);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Plot(1, Fig("fig3_4")).ok());

  server.Pause();
  auto t1 = (*client)->SubmitRefresh(1);
  auto t2 = (*client)->SubmitRefresh(1);
  ASSERT_TRUE(t1.ok() && t2.ok());
  EXPECT_FALSE(t1->done());

  // Admission control on queue depth: the third submit is rejected.
  auto t3 = (*client)->SubmitRefresh(1);
  ASSERT_FALSE(t3.ok());
  EXPECT_EQ(t3.status().code(), vl::StatusCode::kResourceExhausted);
  EXPECT_EQ((*client)->rejected(), 1u);

  server.Resume();  // inline server: drains on this thread
  auto r1 = t1->Wait();
  auto r2 = t2->Wait();
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_LT(r1->sequence, r2->sequence);  // per-session FIFO preserved
  EXPECT_TRUE(r2->deduped);               // same figure, same epoch: coalesced
  server.Drain();
}

TEST_F(ServeTest, WorkerPoolServesConcurrentClients) {
  ServerConfig config;
  config.workers = 2;
  Server server(config);
  Boot(server, "k0", dbg::LatencyModel::Free());

  std::vector<vl::StatusOr<Client>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(server.Connect());
    ASSERT_TRUE(clients.back().ok());
    ASSERT_TRUE((*clients.back())->Plot(1, Fig("fig3_4")).ok());
  }
  std::vector<Ticket> tickets;
  for (auto& client : clients) {
    auto ticket = (*client)->SubmitRefresh(1);
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }
  server.Drain();
  std::string render;
  for (Ticket& ticket : tickets) {
    auto result = ticket.Wait();
    ASSERT_TRUE(result.ok());
    ASSERT_FALSE(result->render.empty());
    if (render.empty()) {
      render = result->render;
    }
    EXPECT_EQ(result->render, render);  // every client sees the same bytes
  }
  // The overlapping fleet coalesced: exactly one client paid for extraction.
  uint64_t executed = 0;
  for (auto& client : clients) {
    executed += (*client)->executed();
  }
  EXPECT_EQ(executed, 1u);
}

TEST_F(ServeTest, ShellIsOneSessionServer) {
  StandardKernel local;
  dbg::KernelDebugger debugger(&local.kernel);
  vision::RegisterFigureSymbols(&debugger, &local.workload);

  vltest::ServedShell shell(&debugger);
  EXPECT_EQ(shell.session().shard_name(), "local");
  EXPECT_EQ(shell.session().server()->session_count(), 1u);

  std::string out = shell.Execute(std::string("vplot 1 ") + Fig("fig3_4"));
  EXPECT_NE(out.find("plotted"), std::string::npos);
  out = shell.Execute("vctrl refresh 1");
  EXPECT_NE(out.find("refreshed pane 1"), std::string::npos);
  EXPECT_EQ(out.find("(deduped)"), std::string::npos);
  // Same figure, same epoch: the second refresh is served from the result
  // cache.
  EXPECT_NE(shell.Execute("vctrl refresh 1").find("(deduped)"), std::string::npos);
  // The merged stats report now carries the serve section.
  EXPECT_NE(shell.Execute("vctrl stats").find("serve: session"), std::string::npos);
  EXPECT_NE(shell.Execute("vctrl stats json").find("\"serve\""), std::string::npos);
}

TEST_F(ServeTest, ServerStatsExposeShardsAndSessions) {
  Server server;
  Boot(server, "k0", dbg::LatencyModel::Free());
  auto a = server.Connect();
  auto b = server.Connect();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*a)->Plot(1, Fig("fig3_4")).ok());
  ASSERT_TRUE((*b)->Plot(1, Fig("fig3_4")).ok());
  ASSERT_TRUE((*a)->Refresh(1).ok());
  ASSERT_TRUE((*b)->Refresh(1).ok());

  std::string stats = server.StatsToJson().Dump(2);
  EXPECT_NE(stats.find("\"shards\""), std::string::npos);
  EXPECT_NE(stats.find("\"k0\""), std::string::npos);
  EXPECT_NE(stats.find("\"dedup_hits\": 1"), std::string::npos);
  EXPECT_NE(stats.find("\"per_session\""), std::string::npos);

  vl::MetricsRegistry::Instance().Reset();
  server.PublishMetrics();
  std::string prom = vl::MetricsRegistry::Instance().ToPrometheus();
  EXPECT_NE(prom.find("serve_sessions"), std::string::npos);
  EXPECT_NE(prom.find("serve_shard_k0_dedup_hits"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The Target::ResetStats race fix

TEST(TargetStatsRaceTest, ResetRacesWithSnapshotReaders) {
  vkern::Kernel kernel;
  vkern::WorkloadConfig config;
  config.steps = 30;
  vkern::Workload workload(&kernel, config);
  workload.Run();
  dbg::KernelDebugger debugger(&kernel, dbg::LatencyModel::GdbQemu());
  dbg::Target& target = debugger.target();

  // One thread generating charges, one hammering ResetStats, two taking the
  // snapshot accessors. Pre-fix, per_model_stats()/dirty_stats() returned
  // references into state ResetStats concurrently cleared; the snapshots are
  // now taken by value under the stats lock. TSan (the build-tsan preset) is
  // the real assertion here; the invariants below catch torn reads anywhere.
  std::atomic<bool> stop{false};
  std::thread charger([&] {
    uint8_t buffer[64];
    uint64_t addr = reinterpret_cast<uint64_t>(kernel.procs().init_task());
    while (!stop.load(std::memory_order_relaxed)) {
      (void)debugger.session().ReadBytes(addr, buffer, sizeof(buffer));
    }
  });
  std::thread resetter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      target.ResetStats();
    }
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto per_model = target.per_model_stats();
      for (const auto& [name, stats] : per_model) {
        ASSERT_FALSE(name.empty());
        ASSERT_GE(stats.bytes, stats.reads);  // every read is >= 1 byte
      }
      auto dirty = target.dirty_stats();
      ASSERT_GE(dirty.pages_scanned, dirty.pages_dirty);
    }
  });
  std::thread json_reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_FALSE(target.StatsToJson().Dump(0).empty());
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true, std::memory_order_relaxed);
  charger.join();
  resetter.join();
  reader.join();
  json_reader.join();
}

}  // namespace
}  // namespace vserve

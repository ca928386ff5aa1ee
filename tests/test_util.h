// Shared test fixtures: a booted simulated kernel, optionally with the paper's
// standard workload already run over it, and a v-command shell served over a
// test's own debugger.

#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "src/dbg/kernel_introspect.h"
#include "src/serve/server.h"
#include "src/serve/shell.h"
#include "src/vkern/kernel.h"
#include "src/vkern/workload.h"

namespace vltest {

class KernelTest : public ::testing::Test {
 protected:
  void SetUp() override { kernel_ = std::make_unique<vkern::Kernel>(); }

  std::unique_ptr<vkern::Kernel> kernel_;
};

class WorkloadKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel_ = std::make_unique<vkern::Kernel>();
    vkern::WorkloadConfig config;
    config.steps = 60;
    workload_ = std::make_unique<vkern::Workload>(kernel_.get(), config);
    workload_->Run();
  }

  std::unique_ptr<vkern::Kernel> kernel_;
  std::unique_ptr<vkern::Workload> workload_;
};

namespace internal {

// The server half of ServedShell. A base class so it is built before, and
// torn down after, the shell that borrows its session.
struct ShellServer {
  explicit ShellServer(dbg::KernelDebugger* debugger) {
    EXPECT_TRUE(server.AddShard("local", debugger).ok());
    auto connected = server.Connect();
    EXPECT_TRUE(connected.ok()) << connected.status().ToString();
    client.emplace(std::move(connected).value());
  }

  vserve::Server server;
  std::optional<vserve::Client> client;  // destroyed before `server`
};

}  // namespace internal

// A DebuggerShell on a one-session inline server whose only shard ("local")
// is `debugger`. Connect puts the shard's block cache on the serving config
// (CacheConfig::Incremental()). A fresh ServedShell is a cold session: new
// shard engines (no memo) and an empty result cache.
class ServedShell : private internal::ShellServer, public vserve::DebuggerShell {
 public:
  explicit ServedShell(dbg::KernelDebugger* debugger)
      : internal::ShellServer(debugger), vserve::DebuggerShell(client.value().session()) {}
};

}  // namespace vltest

#endif  // TESTS_TEST_UTIL_H_

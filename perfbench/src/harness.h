// perfbench harness: clocks, sample statistics, benchmark-side spans, seeded
// fixtures, and the render normalization the correctness oracle compares on.
//
// Everything here sits outside the program: it only calls public APIs of the
// Visualinux libraries, so the benchmark measures the code a client runs.

#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/dbg/kernel_introspect.h"
#include "src/serve/server.h"
#include "src/vision/figures.h"
#include "src/vkern/kernel.h"
#include "src/vkern/workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start, Clock::time_point end = Clock::now()) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

// A growing list of measurements with the order statistics the report uses.
// Percentiles interpolate linearly between closest ranks.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  double Sum() const {
    double s = 0;
    for (double v : values_) {
      s += v;
    }
    return s;
  }
  double Mean() const { return values_.empty() ? 0.0 : Sum() / static_cast<double>(size()); }
  double Quantile(double q) const {
    if (values_.empty()) {
      return 0.0;
    }
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    double pos = q * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
  }
  const std::vector<double>& values() const { return values_; }
  double Max() const {
    return values_.empty() ? 0.0 : *std::max_element(values_.begin(), values_.end());
  }

 private:
  std::vector<double> values_;
};

// The two costs of every timed operation: host wall time and the virtual
// (modeled transport) time the target clock was charged. Latency is their sum.
struct OpCosts {
  Samples host_ms;
  Samples virt_ms;
  Samples latency_ms;
  void Add(double host, double virt) {
    host_ms.Add(host);
    virt_ms.Add(virt);
    latency_ms.Add(host + virt);
  }
};

// Benchmark-side spans: one record per public call the traced run makes.
// Spans stay in memory and are written out once, after the measured window.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int64_t parent = -1;  // index into spans(); -1 for a root
    uint64_t op = 0;      // operation id shared by the spans of one operation
    uint64_t virt_ns = 0; // virtual ns charged inside the span (0 if none)
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  // Opens a span; returns its index (or -1 when disabled or full).
  int64_t Open(const char* name, uint64_t op) {
    if (!enabled_) {
      return -1;
    }
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return -1;
    }
    Span s;
    s.name = name;
    s.start_us = NowUs();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op;
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int64_t>(spans_.size() - 1));
    return stack_.back();
  }
  void Close(int64_t index, uint64_t virt_ns) {
    if (index < 0) {
      return;
    }
    spans_[static_cast<size_t>(index)].end_us = NowUs();
    spans_[static_cast<size_t>(index)].virt_ns = virt_ns;
    if (!stack_.empty() && stack_.back() == index) {
      stack_.pop_back();
    }
  }

  // Writes {"spans": [...], "dropped": N} to `path`; false on I/O error.
  bool WriteJson(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"dropped\": %llu, \"spans\": [\n",
                 static_cast<unsigned long long>(dropped_));
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                   "\"parent\": %lld, \"op\": %llu, \"virt_ns\": %llu}%s\n",
                   i, s.name.c_str(), s.start_us, s.end_us, static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.op),
                   static_cast<unsigned long long>(s.virt_ns),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static constexpr size_t kMaxSpans = 400000;
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
  uint64_t dropped_ = 0;
};

// RAII span around one public call. `target` (may be null) supplies the
// virtual clock whose advance is recorded with the span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t op, const dbg::Target* target = nullptr)
      : log_(log), target_(target) {
    if (log_ != nullptr && log_->enabled()) {
      virt_before_ = target_ != nullptr ? target_->clock().nanos() : 0;
      index_ = log_->Open(name, op);
    }
  }
  ~ScopedSpan() {
    if (index_ >= 0) {
      log_->Close(index_, target_ != nullptr ? target_->clock().nanos() - virt_before_ : 0);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  const dbg::Target* target_;
  uint64_t virt_before_ = 0;
  int64_t index_ = -1;
};

// One seeded simulated kernel with its population workload and a debugger.
struct Fixture {
  std::unique_ptr<vkern::Kernel> kernel;
  std::unique_ptr<vkern::Workload> workload;
  std::unique_ptr<dbg::KernelDebugger> debugger;
};

struct Population {
  int processes = 5;  // the paper's 5 processes x 2 threads
  int threads = 2;
  int steps = 60;     // Server::BootShard's population depth
  size_t arena_bytes = vkern::KernelConfig{}.arena_bytes;
};

inline Fixture BootFixture(uint64_t seed, const Population& pop, const dbg::LatencyModel& model,
                           const dbg::CacheConfig& cache) {
  Fixture f;
  vkern::KernelConfig kernel_config;
  kernel_config.seed = seed;
  kernel_config.arena_bytes = pop.arena_bytes;
  f.kernel = std::make_unique<vkern::Kernel>(kernel_config);
  vkern::WorkloadConfig workload_config;
  workload_config.seed = seed;
  workload_config.nr_processes = pop.processes;
  workload_config.threads_per_process = pop.threads;
  workload_config.steps = pop.steps;
  f.workload = std::make_unique<vkern::Workload>(f.kernel.get(), workload_config);
  f.workload->Run();
  f.debugger = std::make_unique<dbg::KernelDebugger>(f.kernel.get(), model, cache);
  vision::RegisterFigureSymbols(f.debugger.get(), f.workload.get());
  return f;
}

// A fresh debugger over an existing fixture's kernel (a new attachment: cold
// block cache, no engines).
inline std::unique_ptr<dbg::KernelDebugger> Attach(Fixture* f, const dbg::LatencyModel& model,
                                                   const dbg::CacheConfig& cache) {
  auto debugger = std::make_unique<dbg::KernelDebugger>(f->kernel.get(), model, cache);
  vision::RegisterFigureSymbols(debugger.get(), f->workload.get());
  return debugger;
}

// Peak resident set of this process, in MiB.
inline double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Derives the i-th fixture seed of a run from the workload seed.
inline uint64_t FixtureSeed(uint64_t run_seed, uint64_t i) {
  uint64_t x = run_seed * 0x9E3779B97F4A7C15ull + (i + 1) * 0xBF58476D1CE4E5B9ull;
  x ^= x >> 31;
  return (x % 1000000007ull) + 1;
}

// The per-layer table: name -> value, in insertion order of first Set.
class LayerTable {
 public:
  void Set(const std::string& name, double value) {
    if (values_.find(name) == values_.end()) {
      order_.push_back(name);
    }
    values_[name] = value;
  }
  double Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  const std::vector<std::string>& order() const { return order_; }

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> order_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_

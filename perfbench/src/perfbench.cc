// perfbench: the repository benchmark. Runs one workload for a fixed host
// time, checks every served output against an independent reference, and
// prints one JSON line with the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run).
//
//   perfbench --workload atlas_cold|dashboard_steady|fleet_open|triage_sweep
//             --seed N --seconds S --trace 0|1 [--out DIR]
//   perfbench --order-check 1 --seed N --seconds S
//
// Every timed operation has two costs: host wall time of the call and the
// virtual ns its target clock was charged. Latency is their sum: what a
// developer waits for on that transport. perfbench/design.json records why
// each workload exists, which layers it stresses and bypasses, and which
// end-to-end metric each per-layer metric should move.

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <random>
#include <set>
#include <tuple>
#include <thread>

#include "perfbench/src/harness.h"
#include "src/analysis/check.h"
#include "src/analysis/lint.h"
#include "src/viewcl/interp.h"
#include "src/viewcl/parser.h"
#include "src/viewcl/plan.h"
#include "src/viewql/query.h"
#include "src/vision/render.h"
#include "src/vkern/faults.h"
#include "src/vkern/page_journal.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

// ---------------------------------------------------------------------------
// Served-path counters (public stats getters, read as deltas)

struct DbgTotals {
  uint64_t reads = 0;
  uint64_t bytes = 0;
  uint64_t vector_batches = 0;
  uint64_t vector_blocks = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t miss_bytes = 0;
  uint64_t fetched_bytes = 0;
  uint64_t evictions = 0;
  uint64_t full_flushes = 0;
  uint64_t delta_invalidated_bytes = 0;
  uint64_t dirty_queries = 0;
  uint64_t dirty_charged_ns = 0;

  static DbgTotals Of(dbg::KernelDebugger* d) {
    DbgTotals t;
    t.reads = d->target().reads();
    t.bytes = d->target().bytes_read();
    const dbg::CacheStats& c = d->session().cache_stats();
    t.vector_batches = c.vector_batches;
    t.vector_blocks = c.vector_blocks;
    t.hits = c.hits;
    t.misses = c.misses;
    t.miss_bytes = c.miss_bytes;
    t.fetched_bytes = c.fetched_bytes;
    t.evictions = c.evictions;
    t.full_flushes = c.invalidations;
    t.delta_invalidated_bytes = c.invalidated_bytes_delta;
    dbg::Target::DirtyStats ds = d->target().dirty_stats();
    t.dirty_queries = ds.queries;
    t.dirty_charged_ns = ds.charged_ns;
    return t;
  }
  // this += (after - before)
  void AddDelta(const DbgTotals& after, const DbgTotals& before) {
    reads += after.reads - before.reads;
    bytes += after.bytes - before.bytes;
    vector_batches += after.vector_batches - before.vector_batches;
    vector_blocks += after.vector_blocks - before.vector_blocks;
    hits += after.hits - before.hits;
    misses += after.misses - before.misses;
    miss_bytes += after.miss_bytes - before.miss_bytes;
    fetched_bytes += after.fetched_bytes - before.fetched_bytes;
    evictions += after.evictions - before.evictions;
    full_flushes += after.full_flushes - before.full_flushes;
    delta_invalidated_bytes += after.delta_invalidated_bytes - before.delta_invalidated_bytes;
    dirty_queries += after.dirty_queries - before.dirty_queries;
    dirty_charged_ns += after.dirty_charged_ns - before.dirty_charged_ns;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// The result of one workload pass

struct RunResult {
  OpCosts ops;
  Samples setup_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;    // op errors, rejections and oracle mismatches
  uint64_t checked = 0;   // outputs compared against the reference
  std::vector<std::string> problems;  // first failures and setup problems
  double ops_per_s = -1;  // when >= 0, overrides ops / host seconds spent in ops
  uint64_t steps = 0;     // kernel steps taken inside the window
  DbgTotals dbg;
  LayerTable layers;
  std::vector<std::pair<std::string, std::string>> info;  // printed as-is

  void Fail(const std::string& what) {
    ++failed;
    if (problems.size() < 20) {
      problems.push_back(what);
    }
  }
  void Info(const std::string& key, const std::string& value) { info.emplace_back(key, value); }
};

// Sums of the per-layer work the traced run records.
struct LayerSamples {
  Samples journal_scan_ms;
  Samples dirty_pages;
  Samples step_ms;
  Samples parse_us, lint_us, compile_us;
  Samples plan_exec_host_us, plan_exec_virt_ms;
  uint64_t plan_wavefronts = 0, plan_batches = 0, plan_spans = 0, plan_steered = 0,
           plan_soft_errors = 0, plan_execs = 0;
  Samples run_host_us, run_virt_ms, boxes;
  Samples viewql_us;
  Samples digest_us, render_us, render_bytes;
  Samples refresh_host_us, self_host_us;
  Samples reconcile_delta_ns;
};

// ---------------------------------------------------------------------------
// Pane specifications (Table 2 figures, optionally with their Table 3 ViewQL)

struct PaneSpec {
  const char* figure;
  bool refined;
};

std::string ViewQlFor(const std::string& figure) {
  for (const vision::ObjectiveDef& objective : vision::AllObjectives()) {
    if (figure == objective.figure_id) {
      return objective.viewql;
    }
  }
  return "";
}

const char* ViewClFor(const std::string& figure) {
  const vision::FigureDef* def = vision::FindFigure(figure);
  return def != nullptr ? def->viewcl : "";
}

// A booted kernel served by its own single-shard server, with one session.
struct Shard {
  Fixture fixture;
  std::unique_ptr<vserve::Server> server;
  std::unique_ptr<vserve::Client> client;
};

// Boot + attach one shard: kernel, population workload, debugger, a server
// registration and the first Connect (which reconfigures the shard cache and
// primes the dirty log). The elapsed host time is one setup_s sample.
// Attaching a debugger writes the kernel arena (its in-arena state strings),
// so `before_connect` attaches any extra debugger before the first Connect
// baselines the shard's dirty log; that time is not part of setup_s.
vl::StatusOr<Shard> BootShard(uint64_t seed, const Population& pop,
                              const dbg::LatencyModel& model, RunResult* result,
                              const std::function<void(Fixture*)>& before_connect = nullptr) {
  Clock::time_point start = Clock::now();
  Shard shard;
  shard.fixture = BootFixture(seed, pop, model, dbg::CacheConfig{});
  double boot_ms = MsSince(start);
  if (before_connect != nullptr) {
    before_connect(&shard.fixture);
  }
  start = Clock::now();
  shard.server = std::make_unique<vserve::Server>();
  VL_RETURN_IF_ERROR(shard.server->AddShard("s0", shard.fixture.debugger.get()));
  vserve::SessionOptions options;
  options.shard = "s0";
  VL_ASSIGN_OR_RETURN(vserve::Client client, shard.server->Connect(options));
  shard.client = std::make_unique<vserve::Client>(std::move(client));
  result->setup_s.Add((boot_ms + MsSince(start)) / 1000.0);
  return shard;
}

// Describes where two renders first differ (for the problem report).
std::string FirstDifference(const std::string& served, const std::string& want) {
  size_t i = 0;
  while (i < served.size() && i < want.size() && served[i] == want[i]) {
    ++i;
  }
  size_t from = i > 30 ? i - 30 : 0;
  return "render differs from the reference at byte " + std::to_string(i) + ": served '" +
         served.substr(from, 60) + "' vs reference '" + want.substr(from, 60) + "'";
}

// ---------------------------------------------------------------------------
// Correctness oracle: a second, uncached debugger attached to the served
// kernel when it boots, a default Interpreter (no plans), QueryEngine and
// AsciiRenderer. It shares no cache, dirty log, engine, memo or result cache
// with the served path. (A twin kernel booted with the same seed is not a
// usable reference: the buddy allocator seeds its free lists from the host
// address of the arena, so two kernels with one seed differ in layout.)

class Reference {
 public:
  explicit Reference(Fixture* served)
      : debugger_(Attach(served, dbg::LatencyModel::Free(), dbg::CacheConfig::Disabled())) {}

  // Reference render of `spec` on the kernel's current state.
  std::string Render(const PaneSpec& spec) {
    viewcl::Interpreter interp(debugger_.get());
    auto graph = interp.RunProgram(ViewClFor(spec.figure));
    if (!graph.ok()) {
      return "<reference failed: " + graph.status().ToString() + ">";
    }
    if (spec.refined) {
      viewql::QueryEngine engine(graph->get(), debugger_.get());
      vl::Status st = engine.Execute(ViewQlFor(spec.figure));
      if (!st.ok()) {
        return "<reference viewql failed: " + st.ToString() + ">";
      }
    }
    return vision::AsciiRenderer().Render(**graph);
  }

 private:
  std::unique_ptr<dbg::KernelDebugger> debugger_;
};

// ---------------------------------------------------------------------------
// The twin stack of the traced run: the stages of one refresh, run through
// their public entry points by a second debugger (incremental block cache,
// the served transport) attached to the served kernel when it boots. It only
// reads, so the served path keeps its own caches and clock.

// CompilePlan needs every box declaration, inline boxes included; these walk
// the parsed program the way the Interpreter's own (private) collection does.
void CollectBoxDecls(const viewcl::BoxDecl* decl, std::vector<const viewcl::BoxDecl*>* out);

void CollectInlineBoxes(const viewcl::Expr* e, std::vector<const viewcl::BoxDecl*>* out) {
  if (e == nullptr) {
    return;
  }
  if (e->kind == viewcl::Expr::Kind::kInlineBox && e->inline_box != nullptr) {
    CollectBoxDecls(e->inline_box.get(), out);
    return;
  }
  for (const viewcl::ExprPtr& kid : e->kids) {
    CollectInlineBoxes(kid.get(), out);
  }
  for (const viewcl::SwitchCase& sc : e->cases) {
    for (const viewcl::ExprPtr& label : sc.labels) {
      CollectInlineBoxes(label.get(), out);
    }
    CollectInlineBoxes(sc.body.get(), out);
  }
  CollectInlineBoxes(e->otherwise.get(), out);
  if (e->for_each != nullptr) {
    for (const viewcl::Binding& binding : e->for_each->bindings) {
      CollectInlineBoxes(binding.value.get(), out);
    }
    CollectInlineBoxes(e->for_each->yield.get(), out);
  }
}

void CollectBoxDecls(const viewcl::BoxDecl* decl, std::vector<const viewcl::BoxDecl*>* out) {
  out->push_back(decl);
  for (const viewcl::ViewDecl& view : decl->views) {
    for (const viewcl::ItemDecl& item : view.items) {
      CollectInlineBoxes(item.value.get(), out);
    }
    for (const viewcl::Binding& binding : view.where) {
      CollectInlineBoxes(binding.value.get(), out);
    }
  }
  for (const viewcl::Binding& binding : decl->where) {
    CollectInlineBoxes(binding.value.get(), out);
  }
}

class TwinStack {
 public:
  // `debugger` must use CacheConfig::Incremental() and the served transport.
  TwinStack(dbg::KernelDebugger* debugger, LayerSamples* layers, SpanLog* spans)
      : debugger_(debugger), layers_(layers), spans_(spans) {}

  // Parse, lint and plan-compile one pane (what Plot does before its first
  // extraction). Returns the pane index.
  size_t Prepare(const PaneSpec& spec, uint64_t op) {
    Pane pane;
    pane.source = ViewClFor(spec.figure);
    pane.viewql = spec.refined ? ViewQlFor(spec.figure) : "";
    pane.interp = std::make_unique<viewcl::Interpreter>(debugger_);
    {
      ScopedSpan span(spans_, "viewcl.ParseViewCl", op);
      Clock::time_point t0 = Clock::now();
      auto parsed = viewcl::ParseViewCl(pane.source);
      layers_->parse_us.Add(MsSince(t0) * 1000.0);
      if (parsed.ok()) {
        pane.program = std::make_unique<viewcl::Program>(std::move(parsed).value());
      }
    }
    bool lint_clean = false;
    {
      ScopedSpan span(spans_, "analysis.Linter::LintViewCl", op);
      analysis::Linter linter(&debugger_->types(), &debugger_->symbols(), &debugger_->helpers(),
                              &pane.interp->emoji());
      Clock::time_point t0 = Clock::now();
      analysis::LintResult lint = linter.LintViewCl(pane.source);
      layers_->lint_us.Add(MsSince(t0) * 1000.0);
      lint_clean = lint.parse_ok && lint.diagnostics.errors() == 0;
    }
    if (pane.program != nullptr && lint_clean) {
      // The plan gate of the served engine: lint-clean programs get a plan.
      std::vector<const viewcl::BoxDecl*> decls;
      for (const auto& decl : pane.program->defines) {
        CollectBoxDecls(decl.get(), &decls);
      }
      for (const viewcl::Binding& binding : pane.program->bindings) {
        CollectInlineBoxes(binding.value.get(), &decls);
      }
      for (const viewcl::ExprPtr& plot : pane.program->plots) {
        CollectInlineBoxes(plot.get(), &decls);
      }
      std::map<std::string, const viewcl::BoxDecl*> defines;
      for (const viewcl::BoxDecl* decl : decls) {
        defines[decl->name] = decl;
      }
      ScopedSpan span(spans_, "viewcl.CompilePlan", op);
      Clock::time_point t0 = Clock::now();
      pane.plan = viewcl::CompilePlan(defines, pane.program->bindings, pane.program->plots,
                                      debugger_);
      layers_->compile_us.Add(MsSince(t0) * 1000.0);
    }
    (void)pane.interp->Load(pane.source);
    panes_.push_back(std::move(pane));
    return panes_.size() - 1;
  }

  struct StageTotals {
    double host_ms = 0;
    uint64_t virt_ns = 0;
    bool ok = true;
  };

  // One refresh: plan execution (the served engine's prefetch pass), the
  // interpreter, the ViewQL history, the digest, and a render when the
  // digest moved.
  StageTotals Refresh(size_t index, uint64_t op) {
    Pane& pane = panes_[index];
    StageTotals totals;
    const dbg::Target* target = &debugger_->target();
    if (pane.plan != nullptr) {
      ScopedSpan span(spans_, "viewcl.ExecutePlan", op, target);
      uint64_t v0 = target->clock().nanos();
      Clock::time_point t0 = Clock::now();
      viewcl::PlanStats stats =
          viewcl::ExecutePlan(pane.plan.get(), debugger_, viewcl::PlanExecOptions{});
      double host = MsSince(t0);
      uint64_t virt = target->clock().nanos() - v0;
      layers_->plan_exec_host_us.Add(host * 1000.0);
      layers_->plan_exec_virt_ms.Add(static_cast<double>(virt) / 1e6);
      layers_->plan_wavefronts += stats.wavefronts;
      layers_->plan_batches += stats.batches;
      layers_->plan_spans += stats.spans;
      layers_->plan_steered += stats.steered_skips;
      layers_->plan_soft_errors += stats.soft_errors;
      layers_->plan_execs += 1;
      totals.host_ms += host;
      totals.virt_ns += virt;
    }
    std::unique_ptr<viewcl::ViewGraph> graph;
    {
      ScopedSpan span(spans_, "viewcl.Interpreter::Run", op, target);
      uint64_t v0 = target->clock().nanos();
      Clock::time_point t0 = Clock::now();
      auto run = pane.interp->Run();
      double host = MsSince(t0);
      uint64_t virt = target->clock().nanos() - v0;
      layers_->run_host_us.Add(host * 1000.0);
      layers_->run_virt_ms.Add(static_cast<double>(virt) / 1e6);
      totals.host_ms += host;
      totals.virt_ns += virt;
      if (!run.ok()) {
        totals.ok = false;
        return totals;
      }
      graph = std::move(run).value();
      layers_->boxes.Add(static_cast<double>(graph->size()));
    }
    if (!pane.viewql.empty()) {
      ScopedSpan span(spans_, "viewql.QueryEngine::Execute", op, target);
      uint64_t v0 = target->clock().nanos();
      Clock::time_point t0 = Clock::now();
      viewql::QueryEngine engine(graph.get(), debugger_);
      totals.ok = engine.Execute(pane.viewql).ok() && totals.ok;
      double host = MsSince(t0);
      layers_->viewql_us.Add(host * 1000.0);
      totals.host_ms += host;
      totals.virt_ns += target->clock().nanos() - v0;
    }
    uint64_t digest = 0;
    {
      ScopedSpan span(spans_, "vision.ViewGraph::Digest", op);
      Clock::time_point t0 = Clock::now();
      digest = graph->Digest();
      double host = MsSince(t0);
      layers_->digest_us.Add(host * 1000.0);
      totals.host_ms += host;
    }
    if (!pane.has_digest || digest != pane.digest) {
      ScopedSpan span(spans_, "vision.Renderer::Render", op);
      Clock::time_point t0 = Clock::now();
      std::string out = renderer_->Render(*graph);
      double host = MsSince(t0);
      layers_->render_us.Add(host * 1000.0);
      layers_->render_bytes.Add(static_cast<double>(out.size()));
      totals.host_ms += host;
      pane.digest = digest;
      pane.has_digest = true;
    }
    return totals;
  }

  size_t pane_count() const { return panes_.size(); }
  uint64_t memo_replays() const {
    uint64_t n = 0;
    for (const Pane& p : panes_) {
      n += p.interp->memo_replays();
    }
    return n;
  }
  uint64_t memo_misses() const {
    uint64_t n = 0;
    for (const Pane& p : panes_) {
      n += p.interp->memo_misses();
    }
    return n;
  }

 private:
  struct Pane {
    std::string source;
    std::string viewql;
    std::unique_ptr<viewcl::Program> program;  // owns the declarations the plan points at
    std::unique_ptr<viewcl::ExtractionPlan> plan;
    std::unique_ptr<viewcl::Interpreter> interp;
    uint64_t digest = 0;
    bool has_digest = false;
  };

  dbg::KernelDebugger* debugger_;
  LayerSamples* layers_;
  SpanLog* spans_;
  std::unique_ptr<vision::Renderer> renderer_ = vision::MakeRenderer("ascii");
  std::vector<Pane> panes_;
};

// A benchmark-owned page journal over a served kernel's arena: the cost of
// the dirty-page scan the debugger pays after every kernel write.
class JournalProbe {
 public:
  explicit JournalProbe(vkern::Kernel* kernel)
      : kernel_(kernel), journal_(&kernel->arena(), kernel->generation()),
        since_(kernel->generation()) {}

  // Rescans at `generation` (forcing a full scan even with no writes when it
  // differs from the last scanned generation).
  void Scan(uint64_t generation, LayerSamples* layers) {
    Clock::time_point t0 = Clock::now();
    std::vector<uint32_t> dirty = journal_.DirtyPagesSince(since_, generation);
    layers->journal_scan_ms.Add(MsSince(t0));
    layers->dirty_pages.Add(static_cast<double>(dirty.size()));
    since_ = generation;
  }
  void AfterStep(LayerSamples* layers) { Scan(kernel_->generation(), layers); }

 private:
  vkern::Kernel* kernel_;
  vkern::PageJournal journal_;
  uint64_t since_;
};

// Steps a kernel's workload once, timing the step.
void StepKernel(Fixture* f, LayerSamples* layers, SpanLog* spans, uint64_t op) {
  ScopedSpan span(spans, "vkern.Workload::Step", op);
  Clock::time_point t0 = Clock::now();
  f->workload->Step();
  layers->step_ms.Add(MsSince(t0));
}

// ---------------------------------------------------------------------------
// atlas_cold: every Table 2 figure plotted and refreshed once on a freshly
// attached GDB (QEMU) shard; nothing writes to the kernel.

constexpr int kAtlasKernels = 4;

void RunAtlasCold(const Options& opt, SpanLog* spans, LayerSamples* layers, RunResult* result) {
  const Population pop;
  const dbg::LatencyModel model = dbg::LatencyModel::GdbQemu();
  const std::vector<vision::FigureDef>& figures = vision::AllFigures();
  const double segment_s = opt.seconds / kAtlasKernels;
  uint64_t op = 0;
  for (int k = 0; k < kAtlasKernels; ++k) {
    uint64_t seed = FixtureSeed(opt.seed, static_cast<uint64_t>(k));
    auto booted = BootShard(seed, pop, model, result);
    if (!booted.ok()) {
      result->problems.push_back("boot failed: " + booted.status().ToString());
      return;
    }
    Shard& shard = *booted;
    Fixture& fixture = shard.fixture;
    Reference ref(&fixture);
    // Reference renders of the kernel's current state. Attaching a debugger
    // writes its state strings into the arena, which now and then shows in a
    // figure (a new slab or buddy page), so a served render that differs from
    // its cached reference is checked again against a fresh one.
    std::vector<std::string> reference;
    for (const vision::FigureDef& fig : figures) {
      reference.push_back(ref.Render(PaneSpec{fig.id, false}));
    }
    if (opt.trace) {
      // Nothing writes here; one forced rescan still prices the journal.
      JournalProbe probe(fixture.kernel.get());
      probe.Scan(fixture.kernel->generation() + 1, layers);
    }
    Clock::time_point seg_start = Clock::now();
    while (MsSince(seg_start) / 1000.0 < segment_s) {
      // A fresh attachment per round: cold block cache, no engines, no memo.
      std::unique_ptr<dbg::KernelDebugger> debugger =
          Attach(&fixture, model, dbg::CacheConfig{});
      std::unique_ptr<dbg::KernelDebugger> twin_debugger;
      if (opt.trace) {
        twin_debugger = Attach(&fixture, model, dbg::CacheConfig::Incremental());
      }
      vserve::Server server;
      if (!server.AddShard("atlas", debugger.get()).ok()) {
        result->problems.push_back("AddShard failed");
        return;
      }
      vserve::SessionOptions options;
      options.shard = "atlas";
      auto client = server.Connect(options);
      if (!client.ok()) {
        result->problems.push_back("Connect failed: " + client.status().ToString());
        return;
      }
      std::unique_ptr<TwinStack> stack;
      if (twin_debugger != nullptr) {
        stack = std::make_unique<TwinStack>(twin_debugger.get(), layers, spans);
      }
      DbgTotals before = DbgTotals::Of(debugger.get());
      vserve::Session* session = client->session();
      for (size_t i = 0; i < figures.size(); ++i) {
        ++op;
        ++result->attempted;
        const dbg::Target& target = debugger->target();
        uint64_t v0 = target.clock().nanos();
        Clock::time_point t0 = Clock::now();
        vl::StatusOr<vserve::ServeResult> served = vl::InternalError("not run");
        {
          ScopedSpan op_span(spans, "op.atlas_cold", op, &target);
          vl::StatusOr<vserve::Session::PlotResult> plotted = vl::InternalError("not run");
          {
            ScopedSpan span(spans, "serve.Session::Plot", op, &target);
            plotted = session->Plot(1, figures[i].viewcl);
          }
          if (plotted.ok()) {
            ScopedSpan span(spans, "serve.Session::Refresh", op, &target);
            served = session->Refresh(1);
          } else {
            served = plotted.status();
          }
        }
        double host = MsSince(t0);
        uint64_t virt = target.clock().nanos() - v0;
        result->ops.Add(host, static_cast<double>(virt) / 1e6);
        if (!served.ok()) {
          result->Fail(std::string(figures[i].id) + ": " + served.status().ToString());
          continue;
        }
        ++result->checked;
        if (served->render != reference[i]) {
          reference[i] = ref.Render(PaneSpec{figures[i].id, false});
          if (served->render != reference[i]) {
            result->Fail(std::string(figures[i].id) + ": " +
                         FirstDifference(served->render, reference[i]));
            continue;
          }
        }
        if (stack != nullptr) {
          size_t pane = stack->Prepare(PaneSpec{figures[i].id, false}, op);
          TwinStack::StageTotals twin_costs = stack->Refresh(pane, op);
          layers->refresh_host_us.Add(host * 1000.0);
          layers->self_host_us.Add((host - twin_costs.host_ms) * 1000.0);
          layers->reconcile_delta_ns.Add(static_cast<double>(twin_costs.virt_ns) -
                                         static_cast<double>(virt));
        }
      }
      result->dbg.AddDelta(DbgTotals::Of(debugger.get()), before);
      if (stack != nullptr) {
        result->layers.Set("viewcl.memo_replay_ratio",
                           Ratio(static_cast<double>(stack->memo_replays()),
                                 static_cast<double>(stack->memo_replays() +
                                                     stack->memo_misses())));
      }
      result->layers.Set("vision.digest_hit_rate",
                         Ratio(static_cast<double>(session->panes().render_digest_hits()),
                               static_cast<double>(session->panes().render_digest_hits() +
                                                   session->panes().render_digest_misses())));
    }
  }
}

// ---------------------------------------------------------------------------
// dashboard_steady: one KGDB session with six panes; each round steps the
// kernel once and refreshes every pane.

constexpr int kDashboardKernels = 6;

const std::vector<PaneSpec>& DashboardPanes() {
  static const std::vector<PaneSpec> panes = {
      {"fig3_4", true},     {"fig7_1", true}, {"fig9_2", true},
      {"socketconn", true}, {"fig8_4", false}, {"fig12_3", false},
  };
  return panes;
}

// Splits the root pane into `specs.size()` panes and plots/refines each.
vl::StatusOr<std::vector<int>> LayOutPanes(vserve::Session* session,
                                           const std::vector<PaneSpec>& specs) {
  std::vector<int> ids = {session->panes().root_pane()};
  while (ids.size() < specs.size()) {
    VL_ASSIGN_OR_RETURN(int id, session->Split(ids.back(), ids.size() % 2 ? 'h' : 'v'));
    ids.push_back(id);
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    VL_ASSIGN_OR_RETURN(auto plotted, session->Plot(ids[i], ViewClFor(specs[i].figure)));
    (void)plotted;
    if (specs[i].refined) {
      VL_RETURN_IF_ERROR(session->Apply(ids[i], ViewQlFor(specs[i].figure)));
    }
  }
  return ids;
}

void RunDashboardSteady(const Options& opt, SpanLog* spans, LayerSamples* layers,
                        RunResult* result) {
  const Population pop;
  const dbg::LatencyModel model = dbg::LatencyModel::KgdbRpi400();
  const std::vector<PaneSpec>& specs = DashboardPanes();
  const double segment_s = opt.seconds / kDashboardKernels;
  uint64_t op = 0;
  uint64_t digest_hits = 0, digest_total = 0;
  for (int k = 0; k < kDashboardKernels; ++k) {
    uint64_t seed = FixtureSeed(opt.seed, static_cast<uint64_t>(100 + k));
    std::unique_ptr<Reference> ref;
    std::unique_ptr<dbg::KernelDebugger> twin_debugger;
    auto booted = BootShard(seed, pop, model, result, [&](Fixture* f) {
      ref = std::make_unique<Reference>(f);
      if (opt.trace) {
        twin_debugger = Attach(f, model, dbg::CacheConfig::Incremental());
      }
    });
    if (!booted.ok()) {
      result->problems.push_back("boot failed: " + booted.status().ToString());
      return;
    }
    Shard& shard = *booted;
    vserve::Session* session = shard.client->session();
    auto ids = LayOutPanes(session, specs);
    if (!ids.ok()) {
      result->problems.push_back("pane setup failed: " + ids.status().ToString());
      return;
    }
    std::unique_ptr<TwinStack> stack;
    std::unique_ptr<JournalProbe> probe;
    if (opt.trace) {
      stack = std::make_unique<TwinStack>(twin_debugger.get(), layers, spans);
      for (const PaneSpec& spec : specs) {
        stack->Prepare(spec, 0);
        stack->Refresh(stack->pane_count() - 1, 0);  // the served Plot's first extraction
      }
      probe = std::make_unique<JournalProbe>(shard.fixture.kernel.get());
    }
    dbg::KernelDebugger* debugger = shard.fixture.debugger.get();
    const dbg::Target& target = debugger->target();
    DbgTotals before = DbgTotals::Of(debugger);
    uint64_t hits0 = session->panes().render_digest_hits();
    uint64_t miss0 = session->panes().render_digest_misses();
    Clock::time_point seg_start = Clock::now();
    while (MsSince(seg_start) / 1000.0 < segment_s) {
      StepKernel(&shard.fixture, layers, spans, op + 1);
      ++result->steps;
      if (probe != nullptr) {
        probe->AfterStep(layers);
      }
      for (size_t i = 0; i < specs.size(); ++i) {
        ++op;
        ++result->attempted;
        uint64_t v0 = target.clock().nanos();
        Clock::time_point t0 = Clock::now();
        vl::StatusOr<vserve::ServeResult> served = vl::InternalError("not run");
        {
          ScopedSpan span(spans, "serve.Session::Refresh", op, &target);
          served = session->Refresh((*ids)[i]);
        }
        double host = MsSince(t0);
        uint64_t virt = target.clock().nanos() - v0;
        result->ops.Add(host, static_cast<double>(virt) / 1e6);
        if (!served.ok()) {
          result->Fail(std::string(specs[i].figure) + ": " + served.status().ToString());
          continue;
        }
        ++result->checked;
        std::string want = ref->Render(specs[i]);
        if (served->render != want) {
          result->Fail(std::string(specs[i].figure) + ": " +
                       FirstDifference(served->render, want));
          continue;
        }
        if (stack != nullptr) {
          TwinStack::StageTotals twin_costs = stack->Refresh(i, op);
          layers->refresh_host_us.Add(host * 1000.0);
          layers->self_host_us.Add((host - twin_costs.host_ms) * 1000.0);
          layers->reconcile_delta_ns.Add(static_cast<double>(twin_costs.virt_ns) -
                                         static_cast<double>(virt));
        }
      }
    }
    result->dbg.AddDelta(DbgTotals::Of(debugger), before);
    digest_hits += session->panes().render_digest_hits() - hits0;
    digest_total += session->panes().render_digest_hits() - hits0 +
                    session->panes().render_digest_misses() - miss0;
    if (stack != nullptr) {
      result->layers.Set("viewcl.memo_replay_ratio",
                         Ratio(static_cast<double>(stack->memo_replays()),
                               static_cast<double>(stack->memo_replays() +
                                                   stack->memo_misses())));
    }
    result->layers.Set("serve.dedup_ratio",
                       Ratio(static_cast<double>(session->deduped()),
                             static_cast<double>(session->requests())));
    result->layers.Set("serve.rejected", static_cast<double>(session->rejected()));
  }
  result->layers.Set("vision.digest_hit_rate",
                     Ratio(static_cast<double>(digest_hits), static_cast<double>(digest_total)));
}

// ---------------------------------------------------------------------------
// triage_sweep: vcheck sweeps through Server::Sweep on seeded GDB shards,
// clean and with the paper's two CVEs injected.

constexpr int kTriageKernels = 9;
// A third of the default arena: the dirty-log scan after each step hashes the
// whole arena, and a smaller one lets a run hold enough sweeps for its p99
// while the sweep after a step stays the median operation. dashboard_steady
// and fleet_open price the scan of the default 96 MiB arena.
constexpr size_t kTriageArenaBytes = 32ull << 20;

struct SweepCosts {
  Samples host_ms_full, host_ms_incr, virt_ms_full, virt_ms_incr;
  uint64_t rules_run_incr = 0, rules_skipped_incr = 0;
};

// True when some violation of `rule` names `addr`.
bool NamesViolation(const analysis::CheckReport& report, const char* rule, uint64_t addr) {
  for (const analysis::CheckRuleReport& r : report.rules) {
    if (r.id != rule) {
      continue;
    }
    for (const analysis::CheckViolation& v : r.violations) {
      if (v.addr == addr) {
        return true;
      }
    }
  }
  return false;
}

// One timed Server::Sweep on a single-shard server. `expect_rule` empty means
// the kernel is clean and the verdict must hold zero violations.
void TimedSweep(vserve::Server* server, dbg::KernelDebugger* debugger, bool incremental,
                const char* expect_rule, uint64_t expect_addr, SweepCosts* costs, SpanLog* spans,
                uint64_t op, RunResult* result) {
  ++result->attempted;
  const dbg::Target& target = debugger->target();
  uint64_t v0 = target.clock().nanos();
  Clock::time_point t0 = Clock::now();
  vl::StatusOr<vserve::Server::SweepResult> sweep = vl::InternalError("not run");
  {
    ScopedSpan span(spans, incremental ? "analysis.Server::Sweep.incremental"
                                       : "analysis.Server::Sweep.full",
                    op, &target);
    sweep = server->Sweep("", incremental);
  }
  double host = MsSince(t0);
  double virt = static_cast<double>(target.clock().nanos() - v0) / 1e6;
  result->ops.Add(host, virt);
  (incremental ? costs->host_ms_incr : costs->host_ms_full).Add(host);
  (incremental ? costs->virt_ms_incr : costs->virt_ms_full).Add(virt);
  if (!sweep.ok()) {
    result->Fail("sweep failed: " + sweep.status().ToString());
    return;
  }
  if (incremental) {
    costs->rules_run_incr += sweep->rules_run();
    costs->rules_skipped_incr += sweep->rules_skipped();
  }
  ++result->checked;
  if (!sweep->reconciled()) {
    result->Fail("sweep charge does not reconcile with Target::clock()");
    return;
  }
  if (expect_rule == nullptr) {
    if (sweep->violations() != 0) {
      result->Fail("clean kernel reported " + std::to_string(sweep->violations()) +
                   " violation(s)");
    }
  } else if (sweep->shards.empty() ||
             !NamesViolation(sweep->shards[0].report, expect_rule, expect_addr)) {
    result->Fail(std::string("injected fault not named by ") + expect_rule);
  }
}

void RunTriageSweep(const Options& opt, SpanLog* spans, LayerSamples* layers,
                    RunResult* result) {
  Population pop;
  pop.arena_bytes = kTriageArenaBytes;
  const dbg::LatencyModel model = dbg::LatencyModel::GdbQemu();
  SweepCosts costs;
  uint64_t op = 0;

  // Injected kernels first: DirtyPipe through the fleet sweep; StackRot
  // through a CheckEngine holding the crashed reader's stale pointer as a
  // suspect (Server::Sweep has no suspect input, and the freed node is only
  // nameable from that pointer).
  {
    uint64_t seed = FixtureSeed(opt.seed, 200);
    auto booted = BootShard(seed, pop, model, result);
    if (!booted.ok()) {
      result->problems.push_back("boot failed: " + booted.status().ToString());
      return;
    }
    vkern::DirtyPipeReport report = vkern::RunDirtyPipeScenario(
        booted->fixture.kernel.get(), booted->fixture.workload->process(0), true);
    uint64_t addr = report.pipe != nullptr
                        ? reinterpret_cast<uint64_t>(&report.pipe->bufs[report.buggy_buf_index])
                        : 0;
    TimedSweep(booted->server.get(), booted->fixture.debugger.get(), false, "VC009", addr, &costs,
               spans, ++op, result);
    TimedSweep(booted->server.get(), booted->fixture.debugger.get(), true, "VC009", addr, &costs,
               spans, ++op, result);
  }
  {
    uint64_t seed = FixtureSeed(opt.seed, 201);
    auto booted = BootShard(seed, pop, model, result);
    if (!booted.ok()) {
      result->problems.push_back("boot failed: " + booted.status().ToString());
      return;
    }
    dbg::KernelDebugger* debugger = booted->fixture.debugger.get();
    vkern::StackRotReport report = vkern::RunStackRotScenario(
        booted->fixture.kernel.get(), booted->fixture.workload->process(0));
    analysis::CheckEngine engine(&debugger->types(), &debugger->symbols(), &debugger->session());
    engine.AddSuspect(report.fetched_addr);
    for (bool incremental : {false, true}) {
      ++op;
      ++result->attempted;
      uint64_t v0 = debugger->target().clock().nanos();
      Clock::time_point t0 = Clock::now();
      analysis::CheckReport check;
      {
        ScopedSpan span(spans, incremental ? "analysis.CheckEngine::RunIncremental"
                                           : "analysis.CheckEngine::RunAll",
                        op, &debugger->target());
        check = incremental ? engine.RunIncremental() : engine.RunAll();
      }
      double host = MsSince(t0);
      double virt = static_cast<double>(debugger->target().clock().nanos() - v0) / 1e6;
      result->ops.Add(host, virt);
      (incremental ? costs.host_ms_incr : costs.host_ms_full).Add(host);
      (incremental ? costs.virt_ms_incr : costs.virt_ms_full).Add(virt);
      ++result->checked;
      if (!check.reconciled || !NamesViolation(check, "VC006", report.fetched_addr)) {
        result->Fail("StackRot node not named by VC006");
      }
    }
  }

  const double segment_s = opt.seconds / kTriageKernels;
  for (int k = 0; k < kTriageKernels; ++k) {
    uint64_t seed = FixtureSeed(opt.seed, static_cast<uint64_t>(300 + k));
    auto booted = BootShard(seed, pop, model, result);
    if (!booted.ok()) {
      result->problems.push_back("boot failed: " + booted.status().ToString());
      return;
    }
    vserve::Server* server = booted->server.get();
    dbg::KernelDebugger* debugger = booted->fixture.debugger.get();
    std::unique_ptr<JournalProbe> probe;
    if (opt.trace) {
      probe = std::make_unique<JournalProbe>(booted->fixture.kernel.get());
    }
    DbgTotals before = DbgTotals::Of(debugger);
    Clock::time_point seg_start = Clock::now();
    // A full sweep at attach, then cycles of three (step, incremental sweep)
    // pairs — the dirty-log scan plus every rule whose footprint moved —
    // followed by a quiescent incremental sweep (nothing moved) and a full
    // sweep. Three in five sweeps follow a step, so the median lands inside
    // that kind of sweep rather than between kinds.
    TimedSweep(server, debugger, false, nullptr, 0, &costs, spans, ++op, result);
    while (MsSince(seg_start) / 1000.0 < segment_s) {
      for (int i = 0; i < 3; ++i) {
        StepKernel(&booted->fixture, layers, spans, op + 1);
        ++result->steps;
        if (probe != nullptr) {
          probe->AfterStep(layers);
        }
        TimedSweep(server, debugger, true, nullptr, 0, &costs, spans, ++op, result);
      }
      TimedSweep(server, debugger, true, nullptr, 0, &costs, spans, ++op, result);
      TimedSweep(server, debugger, false, nullptr, 0, &costs, spans, ++op, result);
    }
    result->dbg.AddDelta(DbgTotals::Of(debugger), before);
  }
  result->layers.Set("analysis.sweep_host_ms.full", costs.host_ms_full.Quantile(0.5));
  result->layers.Set("analysis.sweep_host_ms.incremental", costs.host_ms_incr.Quantile(0.5));
  result->layers.Set("analysis.sweep_virt_ms.full", costs.virt_ms_full.Mean());
  result->layers.Set("analysis.sweep_virt_ms.incremental", costs.virt_ms_incr.Mean());
  result->layers.Set("analysis.rules_skipped_ratio",
                     Ratio(static_cast<double>(costs.rules_skipped_incr),
                           static_cast<double>(costs.rules_run_incr + costs.rules_skipped_incr)));
}

// ---------------------------------------------------------------------------
// fleet_open: seeded open-loop refresh arrivals at fixed offered rates against
// two GDB shards (paper-sized and oversized), two sessions of three panes
// each per shard.

// Rate phases: offered refreshes per second and their share of the window.
// The first phase is the reference rate the latency metrics are taken at.
struct RatePhase {
  double rate;
  double share;
};
constexpr double kFleetReferenceRate = 300;
constexpr double kFleetHostP99LimitMs = 250;
const RatePhase kFleetPhases[] = {
    {kFleetReferenceRate, 0.76}, {1500, 0.08}, {3000, 0.08}, {6000, 0.08}};
constexpr double kFleetStepPeriodS = 0.35;
constexpr size_t kFleetLargeCacheBlocks = 512;
const Population kFleetLargePopulation{40, 2, 60};

struct FleetTarget {
  size_t shard;    // 0 = paper-sized, 1 = oversized
  size_t session;  // index into sessions
  int pane;
  size_t spec;     // index into the shard's spec list
};

void RunFleetOpen(const Options& opt, SpanLog* spans, LayerSamples* layers, RunResult* result) {
  const dbg::LatencyModel model = dbg::LatencyModel::GdbQemu();
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  const Population pops[2] = {Population{}, kFleetLargePopulation};
  const uint64_t seeds[2] = {FixtureSeed(opt.seed, 400), FixtureSeed(opt.seed, 401)};
  const char* names[2] = {"paper", "large"};
  // Session panes: the first two of each session are plotted by the other
  // session on the shard too (one identically, one with a different ViewQL
  // history), the third is private.
  const std::vector<PaneSpec> specs[2] = {
      {{"fig3_4", true}, {"fig7_1", true}, {"fig11_1", true}, {"fig7_1", false},
       {"fig14_3", true}},
      {{"fig8_4", false}, {"fig3_4", true}, {"fig9_2", true}, {"fig3_4", false},
       {"fig12_3", false}},
  };
  const std::vector<size_t> session_specs[2] = {{0, 1, 2}, {0, 3, 4}};

  // Declared before the server, which holds their debuggers, and the
  // clients, which hold sessions of the server.
  std::vector<Fixture> fixtures;
  std::vector<std::unique_ptr<Reference>> refs;
  // One worker per shard plus this generator thread, within nproc threads;
  // the spare core keeps other load on a shared host off the latency tail.
  vserve::ServerConfig server_config;
  server_config.workers = std::min<size_t>(2, hw - 1);
  vserve::Server server(server_config);
  std::vector<vserve::Client> clients;
  std::vector<FleetTarget> targets;
  for (size_t s = 0; s < 2; ++s) {
    Clock::time_point start = Clock::now();
    fixtures.push_back(BootFixture(seeds[s], pops[s], model, dbg::CacheConfig{}));
    Clock::duration boot = Clock::now() - start;
    refs.push_back(std::make_unique<Reference>(&fixtures.back()));
    start = Clock::now() - boot;
    if (!server.AddShard(names[s], fixtures.back().debugger.get()).ok()) {
      result->problems.push_back("AddShard failed");
      return;
    }
    for (size_t c = 0; c < 2; ++c) {
      vserve::SessionOptions options;
      options.shard = names[s];
      options.max_queued = 1 << 20;  // backlog is measured, never refused
      if (s == 1) {
        options.capacity_blocks = kFleetLargeCacheBlocks;
      }
      auto client = server.Connect(options);
      if (!client.ok()) {
        result->problems.push_back("Connect failed: " + client.status().ToString());
        return;
      }
      if (c == 0) {
        result->setup_s.Add(MsSince(start) / 1000.0);
      }
      std::vector<PaneSpec> mine;
      for (size_t idx : session_specs[c]) {
        mine.push_back(specs[s][idx]);
      }
      auto ids = LayOutPanes(client->session(), mine);
      if (!ids.ok()) {
        result->problems.push_back("pane setup failed: " + ids.status().ToString());
        return;
      }
      for (size_t p = 0; p < mine.size(); ++p) {
        targets.push_back(FleetTarget{s, clients.size(), (*ids)[p], session_specs[c][p]});
      }
      clients.push_back(std::move(*client));
    }
  }
  std::vector<std::unique_ptr<JournalProbe>> probes;
  if (opt.trace) {
    for (Fixture& f : fixtures) {
      probes.push_back(std::make_unique<JournalProbe>(f.kernel.get()));
    }
  }

  // Renders served since the last check, by (shard, spec): distinct outputs
  // and how many operations returned each.
  std::map<std::pair<size_t, size_t>, std::map<std::string, uint64_t>> served_renders;
  struct Outstanding {
    Clock::time_point due;
    vserve::Ticket ticket;
    size_t target;
    size_t phase;
  };
  std::vector<Outstanding> outstanding;
  std::mt19937_64 rng(seeds[0] ^ 0x5EEDull);
  std::uniform_int_distribution<size_t> pick(0, targets.size() - 1);
  Samples lag_ms;
  uint64_t backlog_max = 0;
  std::vector<DbgTotals> before;
  for (Fixture& f : fixtures) {
    before.push_back(DbgTotals::Of(f.debugger.get()));
  }

  struct PhaseStats {
    OpCosts ops;
    uint64_t sent = 0, succeeded = 0, failed = 0;
    Samples backlog;  // outstanding requests, sampled at each arrival
    double elapsed_s = 0;  // phase start to last completion, pauses excluded
    Clock::duration paused{};
    Clock::time_point last_completion;
  };
  std::vector<PhaseStats> phases(std::size(kFleetPhases));
  uint64_t op = 0;

  auto complete = [&](Outstanding& o, Clock::time_point now) {
    vl::StatusOr<vserve::ServeResult> r = o.ticket.Wait();
    PhaseStats& ph = phases[o.phase];
    double host = MsSince(o.due, now);
    if (!r.ok()) {
      ++ph.failed;
      result->Fail("refresh failed: " + r.status().ToString());
      return;
    }
    ++ph.succeeded;
    ph.last_completion = now;
    ph.ops.Add(host, static_cast<double>(r->refresh_ns) / 1e6);
    const FleetTarget& t = targets[o.target];
    served_renders[{t.shard, t.spec}][r->render]++;
  };
  auto poll = [&](Clock::time_point now) {
    size_t keep = 0;
    for (size_t i = 0; i < outstanding.size(); ++i) {
      if (outstanding[i].ticket.done()) {
        complete(outstanding[i], now);
      } else {
        outstanding[keep++] = std::move(outstanding[i]);
      }
    }
    outstanding.resize(keep);
  };
  auto drain_all = [&]() {
    while (!outstanding.empty()) {
      poll(Clock::now());
      if (!outstanding.empty()) {
        std::this_thread::yield();
      }
    }
    server.Drain();
  };
  // Checks every render served since the last check against references taken
  // on the kernels' current state. Called drained, before the kernels step.
  auto verify = [&]() {
    for (const auto& [key, renders] : served_renders) {
      const PaneSpec& spec = specs[key.first][key.second];
      std::string want = refs[key.first]->Render(spec);
      for (const auto& [render, count] : renders) {
        result->checked += count;
        if (render != want) {
          for (uint64_t i = 0; i < count; ++i) {
            result->Fail(std::string(names[key.first]) + "/" + spec.figure + ": " +
                         FirstDifference(render, want));
          }
        }
      }
    }
    served_renders.clear();
  };

  std::exponential_distribution<double> gap_unit(1.0);
  for (size_t p = 0; p < phases.size(); ++p) {
    const double rate = kFleetPhases[p].rate;
    const double duration_s = opt.seconds * kFleetPhases[p].share;
    Clock::time_point start = Clock::now();
    Clock::time_point end = start + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(duration_s));
    auto gap = [&]() {
      return std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap_unit(rng) / rate));
    };
    Clock::time_point next_due = start + gap();
    Clock::time_point next_step = start + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(kFleetStepPeriodS));
    PhaseStats& ph = phases[p];
    while (next_due < end) {
      Clock::time_point now = Clock::now();
      if (now >= next_step) {
        // Control plane: kernels step only with no refresh in flight. The
        // arrival schedule pauses while the oracle checks and the kernels step.
        drain_all();
        Clock::time_point paused = Clock::now();
        verify();
        for (size_t s = 0; s < fixtures.size(); ++s) {
          StepKernel(&fixtures[s], layers, spans, op + 1);
          if (!probes.empty()) {
            probes[s]->AfterStep(layers);
          }
        }
        ++result->steps;
        Clock::duration pause = Clock::now() - paused;
        ph.paused += pause;
        next_due += pause;
        end += pause;
        next_step += pause + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(kFleetStepPeriodS));
        continue;
      }
      if (now >= next_due) {
        size_t t = pick(rng);
        ++op;
        ++ph.sent;
        ++result->attempted;
        lag_ms.Add(MsSince(next_due, now));
        const FleetTarget& target = targets[t];
        vl::StatusOr<vserve::Ticket> ticket = vl::InternalError("not run");
        {
          ScopedSpan span(spans, "serve.Session::SubmitRefresh", op);
          ticket = clients[target.session].session()->SubmitRefresh(target.pane);
        }
        if (!ticket.ok()) {
          ++ph.failed;
          result->Fail("submit rejected: " + ticket.status().ToString());
        } else {
          outstanding.push_back(Outstanding{next_due, std::move(*ticket), t, p});
        }
        ph.backlog.Add(static_cast<double>(outstanding.size()));
        backlog_max = std::max<uint64_t>(backlog_max, outstanding.size());
        next_due += gap();
        continue;
      }
      // Busy-poll so completions are stamped within microseconds and this
      // core never idles (waking an idle virtual CPU can take milliseconds).
      poll(now);
      std::this_thread::yield();
    }
    drain_all();
    ph.elapsed_s =
        std::chrono::duration<double>(ph.last_completion - start - ph.paused).count();
    verify();
  }

  // Phase report, max sustainable rate, and the reference-rate latencies.
  double max_rate = 0;
  bool still_ok = true;
  for (size_t p = 0; p < phases.size(); ++p) {
    PhaseStats& ph = phases[p];
    double p99 = ph.ops.host_ms.Quantile(0.99);
    // The backlog grows when the second half of the phase holds clearly more
    // outstanding requests than the first.
    const std::vector<double>& backlog = ph.backlog.values();
    double first = 0, second = 0;
    for (size_t i = 0; i < backlog.size(); ++i) {
      (i < backlog.size() / 2 ? first : second) += backlog[i];
    }
    first /= static_cast<double>(std::max<size_t>(1, backlog.size() / 2));
    second /= static_cast<double>(std::max<size_t>(1, backlog.size() - backlog.size() / 2));
    bool growing = second > 2.0 * first + 4.0;
    bool ok = ph.failed == 0 && p99 <= kFleetHostP99LimitMs && !growing;
    if (ok && still_ok) {
      max_rate = kFleetPhases[p].rate;
    } else {
      still_ok = false;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "rate %.0f/s: sent %llu succeeded %llu failed %llu, host p99 %.2f ms, "
                  "backlog max %.0f, %s",
                  kFleetPhases[p].rate, static_cast<unsigned long long>(ph.sent),
                  static_cast<unsigned long long>(ph.succeeded),
                  static_cast<unsigned long long>(ph.failed), p99, ph.backlog.Max(),
                  ok ? "meets the limit" : "misses the limit");
    result->Info("fleet.phase" + std::to_string(p), buf);
  }
  result->ops = phases[0].ops;
  result->ops_per_s = Ratio(static_cast<double>(phases[0].succeeded), phases[0].elapsed_s);
  result->layers.Set("serve.max_rate_rps", max_rate);
  result->layers.Set("bench.lag_ms_p99", lag_ms.Quantile(0.99));
  result->layers.Set("serve.backlog_max", static_cast<double>(backlog_max));

  uint64_t requests = 0, deduped = 0, rejected = 0;
  for (vserve::Client& c : clients) {
    requests += c.session()->requests();
    deduped += c.session()->deduped();
    rejected += c.session()->rejected();
  }
  result->layers.Set("serve.dedup_ratio",
                     Ratio(static_cast<double>(deduped), static_cast<double>(requests)));
  result->layers.Set("serve.rejected", static_cast<double>(rejected));
  vl::Json stats = server.StatsToJson();
  double rc_hits = 0, rc_misses = 0;
  if (const vl::Json* shards = stats.Find("shards")) {
    for (const auto& [name, shard] : shards->entries()) {
      if (const vl::Json* rc = shard.Find("result_cache")) {
        rc_hits += rc->Find("hits") != nullptr ? rc->Find("hits")->AsNumber() : 0;
        rc_misses += rc->Find("misses") != nullptr ? rc->Find("misses")->AsNumber() : 0;
      }
    }
  }
  result->layers.Set("serve.result_cache_hit_rate", Ratio(rc_hits, rc_hits + rc_misses));
  double queue_p99 = 0, service_p99 = 0;
  for (const char* name : names) {
    vserve::FlightStats fs = server.flights().ShardStats(name);
    queue_p99 = std::max(queue_p99, fs.queue_ns.ApproxQuantile(0.99) / 1e6);
    service_p99 = std::max(service_p99, fs.service_ns.ApproxQuantile(0.99) / 1e6);
  }
  result->layers.Set("serve.flight.queue_virt_ms_p99", queue_p99);
  result->layers.Set("serve.flight.service_virt_ms_p99", service_p99);
  for (size_t s = 0; s < fixtures.size(); ++s) {
    result->dbg.AddDelta(DbgTotals::Of(fixtures[s].debugger.get()), before[s]);
  }
  uint64_t large_evictions = fixtures[1].debugger->session().cache_stats().evictions;
  if (large_evictions == 0) {
    result->problems.push_back("the oversized shard's working set fit its block cache "
                               "(dbg.cache.evictions == 0)");
  }
  clients.clear();
}

// ---------------------------------------------------------------------------
// Reporting

void FillLayerTable(const RunResult& r, const LayerSamples& l, double trace_overhead,
                    LayerTable* t) {
  double ops = static_cast<double>(std::max<uint64_t>(1, r.attempted));
  double steps = static_cast<double>(r.steps);
  t->Set("vkern.journal_scan_ms", l.journal_scan_ms.Quantile(0.5));
  t->Set("vkern.dirty_pages_per_step", steps > 0 ? l.dirty_pages.Mean() : 0.0);
  t->Set("vkern.step_ms", l.step_ms.Quantile(0.5));
  t->Set("dbg.round_trips_per_op", static_cast<double>(r.dbg.reads) / ops);
  t->Set("dbg.bytes_per_op", static_cast<double>(r.dbg.bytes) / ops);
  t->Set("dbg.vector_batches_per_op", static_cast<double>(r.dbg.vector_batches) / ops);
  t->Set("dbg.vector_blocks_per_op", static_cast<double>(r.dbg.vector_blocks) / ops);
  t->Set("dbg.cache.hit_rate", Ratio(static_cast<double>(r.dbg.hits),
                                     static_cast<double>(r.dbg.hits + r.dbg.misses)));
  t->Set("dbg.cache.useful_fetch_ratio", Ratio(static_cast<double>(r.dbg.miss_bytes),
                                               static_cast<double>(r.dbg.fetched_bytes)));
  t->Set("dbg.cache.evictions", static_cast<double>(r.dbg.evictions));
  t->Set("dbg.cache.full_flushes", static_cast<double>(r.dbg.full_flushes));
  t->Set("dbg.cache.delta_invalidated_bytes", static_cast<double>(r.dbg.delta_invalidated_bytes));
  t->Set("dbg.dirty_queries_per_step",
         steps > 0 ? static_cast<double>(r.dbg.dirty_queries) / steps : 0.0);
  t->Set("dbg.dirty_charged_ms_per_step",
         steps > 0 ? static_cast<double>(r.dbg.dirty_charged_ns) / 1e6 / steps : 0.0);
  t->Set("viewcl.parse_us", l.parse_us.Quantile(0.5));
  t->Set("analysis.lint_us", l.lint_us.Quantile(0.5));
  t->Set("viewcl.plan_compile_us", l.compile_us.Quantile(0.5));
  t->Set("viewcl.plan_exec_host_us", l.plan_exec_host_us.Quantile(0.5));
  t->Set("viewcl.plan_exec_virt_ms", l.plan_exec_virt_ms.Mean());
  double execs = static_cast<double>(std::max<uint64_t>(1, l.plan_execs));
  t->Set("viewcl.plan.wavefronts", static_cast<double>(l.plan_wavefronts) / execs);
  t->Set("viewcl.plan.batches", static_cast<double>(l.plan_batches) / execs);
  t->Set("viewcl.plan.spans", static_cast<double>(l.plan_spans) / execs);
  t->Set("viewcl.plan.steered_skips", static_cast<double>(l.plan_steered) / execs);
  t->Set("viewcl.plan.soft_errors", static_cast<double>(l.plan_soft_errors) / execs);
  t->Set("viewcl.run_host_us", l.run_host_us.Quantile(0.5));
  t->Set("viewcl.run_virt_ms", l.run_virt_ms.Mean());
  t->Set("viewcl.boxes_per_op", l.boxes.Mean());
  t->Set("viewcl.memo_replay_ratio", r.layers.Get("viewcl.memo_replay_ratio"));
  t->Set("viewql.exec_us", l.viewql_us.Quantile(0.5));
  t->Set("vision.digest_us", l.digest_us.Quantile(0.5));
  t->Set("vision.render_us", l.render_us.Quantile(0.5));
  t->Set("vision.render_bytes", l.render_bytes.Mean());
  t->Set("vision.digest_hit_rate", r.layers.Get("vision.digest_hit_rate"));
  t->Set("serve.refresh_host_us", l.refresh_host_us.Quantile(0.5));
  t->Set("serve.self_host_us", l.self_host_us.Quantile(0.5));
  for (const char* name :
       {"serve.dedup_ratio", "serve.result_cache_hit_rate", "serve.rejected",
        "serve.backlog_max", "serve.flight.queue_virt_ms_p99",
        "serve.flight.service_virt_ms_p99", "serve.max_rate_rps",
        "analysis.sweep_host_ms.full", "analysis.sweep_host_ms.incremental",
        "analysis.sweep_virt_ms.full", "analysis.sweep_virt_ms.incremental",
        "analysis.rules_skipped_ratio", "bench.lag_ms_p99"}) {
    t->Set(name, r.layers.Get(name));
  }
  t->Set("bench.trace_overhead", trace_overhead);
  t->Set("bench.virt_reconcile_delta_ns", l.reconcile_delta_ns.Mean());
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintHuman(const std::string& workload, const RunResult& r, const std::vector<Metric>& e2e) {
  std::printf("workload %s: %zu ops timed, %llu attempted, %llu failed, %llu outputs checked\n",
              workload.c_str(), r.ops.host_ms.size(),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.checked));
  for (const Metric& m : e2e) {
    std::printf("  %-16s %14.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  for (const auto& [key, value] : r.info) {
    std::printf("  %s: %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& p : r.problems) {
    std::printf("  problem: %s\n", p.c_str());
  }
}

using WorkloadFn = void (*)(const Options&, SpanLog*, LayerSamples*, RunResult*);

WorkloadFn FindWorkload(const std::string& name) {
  if (name == "atlas_cold") return RunAtlasCold;
  if (name == "dashboard_steady") return RunDashboardSteady;
  if (name == "fleet_open") return RunFleetOpen;
  if (name == "triage_sweep") return RunTriageSweep;
  return nullptr;
}

// Runs the closed-loop workloads in one process, forwards and then in reverse,
// and compares the virtual costs of each workload's first operations across
// the two passes: they match only if no workload leaks state into the next.
// (fleet_open is left out: its virtual charges depend on arrival timing.)
int OrderCheck(const Options& base) {
  const std::vector<std::string> order = {"atlas_cold", "dashboard_steady", "triage_sweep"};
  constexpr size_t kFirstOps = 20;
  std::map<std::string, std::vector<std::vector<double>>> seen;
  for (bool reverse : {false, true}) {
    std::vector<std::string> pass = order;
    if (reverse) {
      std::reverse(pass.begin(), pass.end());
    }
    for (const std::string& name : pass) {
      Options opt = base;
      opt.workload = name;
      opt.trace = false;
      RunResult result;
      LayerSamples layers;
      SpanLog spans(false);
      FindWorkload(name)(opt, &spans, &layers, &result);
      const std::vector<double>& virt = result.ops.virt_ms.values();
      seen[name].emplace_back(virt.begin(), virt.begin() + std::min(kFirstOps, virt.size()));
    }
  }
  int mismatches = 0;
  for (const auto& [name, runs] : seen) {
    bool same = runs[0].size() == kFirstOps && runs[0] == runs[1];
    std::printf("order check %-16s first %zu ops' virt %s\n", name.c_str(), kFirstOps,
                same ? "identical in both orders" : "DIFFERS between orders");
    mismatches += same ? 0 : 1;
  }
  return mismatches == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  Options opt;
  bool order_check = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--out") {
      opt.out_dir = value;
    } else if (key == "--order-check") {
      order_check = value == "1";
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  WorkloadFn run = FindWorkload(opt.workload);
  if ((run == nullptr && !order_check) || !(opt.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload atlas_cold|dashboard_steady|fleet_open|"
                 "triage_sweep --seed N --seconds S --trace 0|1 [--out DIR]\n"
                 "       perfbench --order-check 1 --seed N --seconds S\n");
    return 2;
  }
  if (order_check) {
    return OrderCheck(opt);
  }

  RunResult result;
  LayerSamples layers;
  SpanLog spans(opt.trace);
  double trace_overhead = 0;
  if (opt.trace) {
    // The traced run repeats the workload with the same seed: a third of the
    // time untraced, the rest traced; their host medians give the overhead.
    Options untraced_opt = opt;
    untraced_opt.trace = false;
    untraced_opt.seconds = opt.seconds / 3;
    RunResult untraced;
    LayerSamples unused;
    SpanLog off(false);
    run(untraced_opt, &off, &unused, &untraced);
    Options traced_opt = opt;
    traced_opt.seconds = opt.seconds - untraced_opt.seconds;
    run(traced_opt, &spans, &layers, &result);
    trace_overhead = Ratio(result.ops.host_ms.Quantile(0.5), untraced.ops.host_ms.Quantile(0.5));
    result.attempted += untraced.attempted;
    result.failed += untraced.failed;
    result.checked += untraced.checked;
    for (const std::string& p : untraced.problems) {
      result.problems.push_back(p);
    }
  } else {
    run(opt, &spans, &layers, &result);
  }

  // The end-to-end metrics; those after `gated` are printed but not in the
  // JSON line (perfbench/design.json says why).
  std::vector<Metric> e2e = {
      {"setup_s", result.setup_s.Quantile(0.5), "s"},
      {"latency_ms_p50", result.ops.latency_ms.Quantile(0.5), "ms"},
      {"latency_ms_p99", result.ops.latency_ms.Quantile(0.99), "ms"},
      {"host_ms_p50", result.ops.host_ms.Quantile(0.5), "ms"},
      {"host_ms_p99", result.ops.host_ms.Quantile(0.99), "ms"},
      {"virt_ms_mean", result.ops.virt_ms.Mean(), "ms"},
      {"ops_per_s",
       result.ops_per_s >= 0 ? result.ops_per_s
                             : Ratio(static_cast<double>(result.ops.host_ms.size()),
                                     result.ops.host_ms.Sum() / 1000.0),
       "1/s"},
  };
  const size_t gated = e2e.size();
  e2e.push_back({"virt_ms_p50", result.ops.virt_ms.Quantile(0.5), "ms"});
  e2e.push_back({"virt_ms_p99", result.ops.virt_ms.Quantile(0.99), "ms"});
  e2e.push_back({"error_rate",
                 Ratio(static_cast<double>(result.failed), static_cast<double>(result.attempted)),
                 "fraction"});
  e2e.push_back({"peak_rss_mb", PeakRssMb(), "MiB"});
  if (opt.workload == "fleet_open") {
    e2e.push_back({"max_rate_rps", result.layers.Get("serve.max_rate_rps"), "1/s"});
  }
  size_t beyond_p99 = result.ops.host_ms.size() / 100;
  result.Info("samples", std::to_string(result.ops.host_ms.size()) + " timed ops, " +
                             std::to_string(beyond_p99) + " beyond p99");
  PrintHuman(opt.workload, result, e2e);

  LayerTable table;
  if (opt.trace) {
    FillLayerTable(result, layers, trace_overhead, &table);
    std::string path = opt.out_dir + "/spans-" + opt.workload + "-" + std::to_string(opt.seed) +
                       ".json";
    if (spans.WriteJson(path)) {
      std::printf("  spans: %zu written to %s\n", spans.spans().size(), path.c_str());
    } else {
      std::printf("  spans: could not write %s\n", path.c_str());
    }
  }

  bool correct = result.problems.empty() && result.failed == 0 && result.checked > 0;
  std::string line = "{\"workload\": \"" + opt.workload + "\", \"correct\": " +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"checked\": " + std::to_string(result.checked) + ", \"e2e\": {";
  for (size_t i = 0; i < gated; ++i) {
    line += (i ? ", \"" : "\"") + e2e[i].name + "\": " + Num(e2e[i].value);
  }
  line += "}, \"layers\": {";
  for (size_t i = 0; i < table.order().size(); ++i) {
    const std::string& name = table.order()[i];
    line += (i ? ", \"" : "\"") + name + "\": " + Num(table.Get(name));
  }
  line += "}, \"problems\": [";
  for (size_t i = 0; i < result.problems.size(); ++i) {
    line += (i ? ", \"" : "\"") + JsonEscape(result.problems[i]) + "\"";
  }
  line += "]}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

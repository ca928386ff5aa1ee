// The ViewCL interpreter: evaluates programs against a debugger-attached
// kernel, producing a ViewGraph (paper §2.2, §4.1).
//
// Evaluation walks the live object graph purely through Target memory reads
// (never host pointers), so the latency model sees exactly the traffic a GDB
// front-end would generate. Boxes are interned by (declaration, address) so
// cyclic kernel structures terminate; container adapters implement the
// *distill* operation and anchored constructors implement container_of.

#ifndef SRC_VIEWCL_INTERP_H_
#define SRC_VIEWCL_INTERP_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/dbg/kernel_introspect.h"
#include "src/support/json.h"
#include "src/viewcl/ast.h"
#include "src/viewcl/decorate.h"
#include "src/viewcl/graph.h"

namespace viewcl {

struct InterpLimits {
  size_t max_boxes = 50000;
  size_t max_container_elems = 4096;
  int max_depth = 128;
  // Interning deduplicates (declaration, address) pairs; disabling it (the
  // bench_ablation experiment) makes shared/cyclic structures blow up until
  // the depth/box limits bite. With interning on, per-box extraction is
  // memoized across Run() calls whenever the debugger's ReadSession runs
  // dirty-log delta invalidation (its page epochs prove a memo still valid),
  // replaying structurally unchanged subtrees without re-walking them.
  bool intern_boxes = true;
  // Compiles the loaded program into an extraction plan and executes it as a
  // batched prefetch pass before each interpretation (docs/caching.md
  // #extraction-plans). Off by default at this layer so embedders with exact
  // read-count expectations opt in; every vserve shard engine turns it on.
  // Only engages when the session's block cache is enabled — without a cache
  // the prefetch would double-charge.
  bool compile_plans = false;
  // Wavefront decode parallelism for the plan executor (see PlanExecOptions).
  int plan_workers = 4;
  size_t plan_parallel_min = 64;
};

class ExtractionPlan;

class Interpreter {
 public:
  explicit Interpreter(dbg::KernelDebugger* debugger, InterpLimits limits = InterpLimits{});
  ~Interpreter();  // out of line: ExtractionPlan is forward-declared

  // Parses and accumulates a program chunk (definitions are remembered across
  // Load calls, so a prelude can be loaded before a figure program).
  // Duplicate definitions *within* one chunk and unknown decorator heads are
  // structured parse errors; redefining a box from an earlier chunk stays
  // legal so panes can replay programs through a shared interpreter.
  vl::Status Load(std::string_view source);

  // Optional fail-fast hook: when set, Load() runs the validator over each
  // successfully parsed chunk and refuses the chunk if it returns an error.
  // The static analyzer plugs in here (`vlint`'s fail-fast lint mode).
  using LoadValidator = std::function<vl::Status(const Program& program,
                                                 std::string_view source)>;
  void SetLoadValidator(LoadValidator validator) { load_validator_ = std::move(validator); }

  // Plan gate: consulted per Load chunk when compile_plans is on. Returning
  // false marks the program plan-blocked — every subsequent Run() skips plan
  // execution and uses pure interpretation. The serving layer installs a
  // linter-backed gate here so statically diagnosed programs never reach the
  // speculative executor (they fall back to the classic path instead).
  using PlanGate = std::function<bool(const Program& program, std::string_view source)>;
  void SetPlanGate(PlanGate gate) { plan_gate_ = std::move(gate); }

  // Evaluates all pending top-level bindings and plot statements against the
  // current kernel state, producing a fresh graph. Can be called repeatedly;
  // each call re-runs the accumulated program on the *current* state.
  vl::StatusOr<std::unique_ptr<ViewGraph>> Run();

  // One-shot convenience.
  vl::StatusOr<std::unique_ptr<ViewGraph>> RunProgram(std::string_view source) {
    VL_RETURN_IF_ERROR(Load(source));
    return Run();
  }

  const std::vector<std::string>& warnings() const { return warnings_; }
  EmojiRegistry& emoji() { return emoji_; }
  dbg::KernelDebugger* debugger() { return debugger_; }

  // Memoization counters (how many boxes were replayed vs re-extracted
  // across this interpreter's lifetime; see docs/caching.md#incremental).
  uint64_t memo_replays() const { return memo_replays_; }
  uint64_t memo_misses() const { return memo_misses_; }

  // The compiled extraction plan for the current program, or null when plans
  // are disabled/blocked or no Run() has happened since the last Load.
  const ExtractionPlan* plan() const { return plan_.get(); }
  // Plan DAG + last batch stats as JSON (`vctrl plan`). Null JSON when no
  // plan is live; includes a "blocked" marker when the gate refused one.
  vl::Json PlanToJson() const;

 private:
  struct VclValue;
  class Scope;
  class RunState;

  // Memoized extraction of one box subtree: a structural snapshot of the
  // boxes created while instantiating a (declaration, address) pair, plus
  // the pages its reads touched. Replayable while every touched page is
  // clean per the session's dirty log (ReadSession::RangeCleanSince).
  struct BoxMemo {
    struct BoxSnap {
      std::string decl_name;
      std::string kernel_type;
      uint64_t addr = 0;
      size_t object_size = 0;
      // Link targets / container members still carry capture-run box ids;
      // the replay remaps window-local ids by offset and external ids
      // through `externals`.
      std::vector<ViewInstance> views;
      std::map<std::string, MemberValue> members;
    };
    using InternKey = std::pair<const BoxDecl*, uint64_t>;

    uint64_t epoch = 0;  // extraction epoch (session epoch at capture)
    uint64_t base = 0;   // capture-run id of the subtree root
    std::vector<BoxSnap> boxes;  // window [base, base + boxes.size())
    // Capture-run id -> intern key of a referenced box outside the window
    // (shared structure instantiated earlier in the run).
    std::map<uint64_t, InternKey> externals;
    // Window-local id -> intern key to re-register on replay.
    std::vector<std::pair<uint64_t, InternKey>> interns;
    // Page bases (ReadSession granules) the subtree's reads touched.
    std::vector<uint64_t> pages;
  };

  dbg::KernelDebugger* debugger_;
  InterpLimits limits_;
  EmojiRegistry emoji_;

  LoadValidator load_validator_;
  std::map<std::string, const BoxDecl*> defines_;
  std::vector<std::unique_ptr<BoxDecl>> owned_decls_;
  std::vector<Binding> bindings_;
  std::vector<ExprPtr> plots_;
  std::vector<std::string> warnings_;

  // Memo store, persisted across Run() calls (cleared on Load: a new chunk
  // can redefine declarations out from under the snapshots).
  std::map<BoxMemo::InternKey, BoxMemo> memo_;
  uint64_t memo_replays_ = 0;
  uint64_t memo_misses_ = 0;

  // Extraction-plan state. The program version bumps on every Load; Run()
  // recompiles the plan lazily when the versions diverge (plan.compiles vs
  // plan.cache_hits counters).
  void MaybeRunPlan();
  PlanGate plan_gate_;
  bool plan_blocked_ = false;
  uint64_t program_version_ = 0;
  uint64_t plan_version_ = 0;
  std::unique_ptr<ExtractionPlan> plan_;
};

}  // namespace viewcl

#endif  // SRC_VIEWCL_INTERP_H_

// vserve session configuration.
//
// A served session has one behaviour: shared per-shard engines, request
// coalescing, extraction plans, the render-digest cache and dirty-log
// incremental invalidation over the shard's block cache. SessionOptions
// carries only what a client may choose on top of that: the cache capacity,
// placement and admission control. Validation is vlint-style fail-fast: every
// invalid value gets a stable rule ID (VS002...) and a one-line diagnostic,
// and Connect refuses the session instead of silently "fixing" the options.

#ifndef SRC_SERVE_OPTIONS_H_
#define SRC_SERVE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/support/diag.h"

namespace vserve {

struct SessionOptions {
  // LRU capacity of the shard's block cache, in blocks. The shard runs
  // dbg::CacheConfig::Incremental() at this capacity; sessions sharing a
  // shard must agree on it.
  size_t capacity_blocks = 4096;

  // --- placement & admission control ---
  // Shard to attach to; "" picks one round-robin across the server's shards.
  std::string shard;
  // Latency budget for the whole session on the virtual clock; once the
  // session's charged nanoseconds reach it, further refreshes are rejected
  // with RESOURCE_EXHAUSTED (and a budget violation is recorded). 0 means
  // unlimited.
  uint64_t session_budget_ns = 0;
  // Async refresh requests a session may have queued before SubmitRefresh
  // rejects with RESOURCE_EXHAUSTED.
  size_t max_queued = 16;

  // Fail-fast diagnostics, stable rule IDs (VS001, VS003 and VS006 are
  // retired with the options they checked; the IDs are not reused):
  //   VS002 error   the block cache needs capacity_blocks > 0
  //   VS004 error   max_queued must be >= 1
  //   VS005 error   shard names may not contain '|' or whitespace
  vl::DiagnosticList Validate() const;
  // "" when there are no errors; else one rendered diagnostic per line
  // ("error[VS002]: ...").
  std::string ValidationText() const;
};

}  // namespace vserve

#endif  // SRC_SERVE_OPTIONS_H_

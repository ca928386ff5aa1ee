#include "src/dbg/read_session.h"

#include <algorithm>
#include <cstring>

#include "src/support/metrics.h"
#include "src/support/str.h"
#include "src/support/trace.h"

namespace dbg {

namespace {

// Above this fraction of dirty pages, a block-wise refresh re-fetches most of
// the cache; one flush is cheaper and just as correct.
constexpr double kMaxDirtyRatio = 0.5;

// Smallest power of two >= n (n > 0), capped to keep shifts sane.
size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n && p < (size_t{1} << 30)) {
    p <<= 1;
  }
  return p;
}

size_t Log2(size_t pow2) {
  size_t shift = 0;
  while ((size_t{1} << shift) < pow2) {
    ++shift;
  }
  return shift;
}

}  // namespace

vl::Json CacheStats::ToJson() const {
  vl::Json j = vl::Json::Object();
  j["hits"] = vl::Json::Int(static_cast<int64_t>(hits));
  j["misses"] = vl::Json::Int(static_cast<int64_t>(misses));
  j["hit_bytes"] = vl::Json::Int(static_cast<int64_t>(hit_bytes));
  j["miss_bytes"] = vl::Json::Int(static_cast<int64_t>(miss_bytes));
  j["block_fetches"] = vl::Json::Int(static_cast<int64_t>(block_fetches));
  j["fetched_bytes"] = vl::Json::Int(static_cast<int64_t>(fetched_bytes));
  j["evictions"] = vl::Json::Int(static_cast<int64_t>(evictions));
  j["invalidations"] = vl::Json::Int(static_cast<int64_t>(invalidations));
  j["uncached_reads"] = vl::Json::Int(static_cast<int64_t>(uncached_reads));
  j["prefetches"] = vl::Json::Int(static_cast<int64_t>(prefetches));
  j["delta_invalidations"] = vl::Json::Int(static_cast<int64_t>(delta_invalidations));
  j["invalidated_bytes_full"] = vl::Json::Int(static_cast<int64_t>(invalidated_bytes_full));
  j["invalidated_bytes_delta"] = vl::Json::Int(static_cast<int64_t>(invalidated_bytes_delta));
  j["refill_batches"] = vl::Json::Int(static_cast<int64_t>(refill_batches));
  j["refill_blocks"] = vl::Json::Int(static_cast<int64_t>(refill_blocks));
  j["refill_used_blocks"] = vl::Json::Int(static_cast<int64_t>(refill_used_blocks));
  j["vector_batches"] = vl::Json::Int(static_cast<int64_t>(vector_batches));
  j["vector_blocks"] = vl::Json::Int(static_cast<int64_t>(vector_blocks));
  return j;
}

ReadSession::ReadSession(Target* target, CacheConfig config)
    : target_(target), trace_flag_(vl::Tracer::Instance().enabled_flag()) {
  epoch_ = target_->memory_generation();
  Reconfigure(config);
}

void ReadSession::Reconfigure(CacheConfig config) {
  if (config.block_bytes != 0) {
    config.block_bytes = RoundUpPow2(config.block_bytes);
    if (config.capacity_blocks == 0) {
      config.capacity_blocks = 1;
    }
  }
  config_ = config;
  block_shift_ = config_.block_bytes != 0 ? Log2(config_.block_bytes) : 0;
  blocks_.clear();
  lru_.clear();
  page_last_dirty_.clear();
  dirty_floor_ = epoch_;
  if (delta_enabled()) {
    // Prime the domain's dirty log (QEMU: enabling dirty logging at attach).
    // This baselines page tracking at the current epoch, so the first epoch
    // change reports only genuinely-dirtied pages instead of "history
    // unknown, everything dirty" — which would force a full flush.
    (void)target_->DirtyPagesSince(epoch_);
  }
}

void ReadSession::InvalidateAll() {
  blocks_.clear();
  lru_.clear();
}

void ReadSession::FullInvalidate() {
  if (blocks_.empty()) {
    return;
  }
  stats_.invalidations++;
  uint64_t bytes = static_cast<uint64_t>(blocks_.size()) * config_.block_bytes;
  stats_.invalidated_bytes_full += bytes;
  if (trace_flag_->load(std::memory_order_relaxed)) {
    vl::MetricsRegistry::Instance().GetCounter("cache.invalidate.full")->Add(bytes);
  }
  InvalidateAll();
}

void ReadSession::CheckEpoch() {
  uint64_t now = target_->memory_generation();
  if (now == epoch_) {
    return;
  }
  uint64_t since = epoch_;
  epoch_ = now;
  if (config_.delta_invalidation) {
    DirtyPageInfo info = target_->DirtyPagesSince(since);
    if (info.supported) {
      ApplyDirtyInfo(info, now);
      return;
    }
  }
  // Classic contract: no dirty log, so the whole cache is presumed stale and
  // this transition leaves no per-page history behind.
  dirty_floor_ = now;
  FullInvalidate();
}

void ReadSession::ApplyDirtyInfo(const DirtyPageInfo& info, uint64_t now) {
  // Page history first: memoization validity survives even a ratio fallback
  // below, because we know exactly which pages moved.
  uint64_t page_size = info.page_size != 0 ? info.page_size : kPageGranule;
  for (uint64_t page : info.dirty_pages) {
    uint64_t first = page & ~(kPageGranule - 1);
    for (uint64_t granule = first; granule < page + page_size; granule += kPageGranule) {
      uint64_t& last = page_last_dirty_[granule];
      if (last < now) {
        last = now;
      }
    }
  }
  double ratio = info.pages_total != 0
                     ? static_cast<double>(info.dirty_pages.size()) /
                           static_cast<double>(info.pages_total)
                     : 1.0;
  if (ratio > kMaxDirtyRatio) {
    // Too much moved: a block-wise refresh would re-fetch most of the
    // cache. One flush is cheaper and just as correct.
    FullInvalidate();
    return;
  }
  stats_.delta_invalidations++;
  // Refresh, don't evict: drop the cached blocks on dirty pages, then
  // re-fetch exactly those in one vectored batch, so consumers find them warm
  // instead of faulting each back in its own round trip. Blocks that were not
  // cached stay uncached.
  std::vector<uint64_t> stale;
  for (uint64_t page : info.dirty_pages) {
    uint64_t first_block = (page >> block_shift_) << block_shift_;
    for (uint64_t base = first_block; base < page + page_size; base += config_.block_bytes) {
      auto it = blocks_.find(base);
      if (it == blocks_.end()) {
        continue;
      }
      lru_.erase(it->second.lru_it);
      blocks_.erase(it);
      stale.push_back(base);
    }
  }
  if (stale.empty()) {
    return;
  }
  uint64_t bytes = static_cast<uint64_t>(stale.size()) * config_.block_bytes;
  stats_.invalidated_bytes_delta += bytes;
  if (trace_flag_->load(std::memory_order_relaxed)) {
    vl::MetricsRegistry::Instance().GetCounter("cache.invalidate.delta")->Add(bytes);
  }
  size_t refilled = FillBlocks(stale, nullptr, /*refill=*/true);
  stats_.refill_batches++;
  stats_.refill_blocks += refilled;
  // Once per stop, so unconditional like the read.vector.* family.
  vl::MetricsRegistry& metrics = vl::MetricsRegistry::Instance();
  metrics.GetCounter("cache.refill.batches")->Add();
  metrics.GetCounter("cache.refill.blocks")->Add(refilled);
}

uint64_t ReadSession::SyncEpoch() {
  if (cache_enabled()) {
    CheckEpoch();
  } else {
    epoch_ = target_->memory_generation();
  }
  return epoch_;
}

bool ReadSession::RangeCleanSince(uint64_t addr, size_t len, uint64_t epoch) const {
  if (epoch == epoch_) {
    return true;  // nothing has moved since
  }
  if (epoch < dirty_floor_) {
    return false;  // history not observed — presume dirty
  }
  uint64_t first = addr & ~(kPageGranule - 1);
  for (uint64_t granule = first; granule < addr + len; granule += kPageGranule) {
    auto it = page_last_dirty_.find(granule);
    if (it != page_last_dirty_.end() && it->second > epoch) {
      return false;
    }
  }
  return true;
}

void ReadSession::PushPageScope() { page_scopes_.emplace_back(); }

std::vector<uint64_t> ReadSession::PopPageScope() {
  std::unordered_set<uint64_t> top = std::move(page_scopes_.back());
  page_scopes_.pop_back();
  if (!page_scopes_.empty()) {
    page_scopes_.back().insert(top.begin(), top.end());
  }
  return std::vector<uint64_t>(top.begin(), top.end());
}

void ReadSession::NotePages(const std::vector<uint64_t>& pages) {
  if (page_scopes_.empty()) {
    return;
  }
  page_scopes_.back().insert(pages.begin(), pages.end());
}

void ReadSession::RecordPages(uint64_t addr, size_t len) {
  if (len == 0) {
    return;
  }
  std::unordered_set<uint64_t>& top = page_scopes_.back();
  uint64_t first = addr & ~(kPageGranule - 1);
  for (uint64_t granule = first; granule < addr + len; granule += kPageGranule) {
    top.insert(granule);
  }
}

const ReadSession::Block* ReadSession::LookupOrFetch(uint64_t base, bool* hit) {
  auto it = blocks_.find(base);
  if (it != blocks_.end()) {
    *hit = true;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // move to front
    NoteUse(&it->second);
    return &it->second;
  }
  *hit = false;
  // One transport round trip for the whole aligned block. If the block runs
  // off the edge of readable memory the caller falls back to a direct read.
  std::vector<uint8_t> bytes(config_.block_bytes);
  if (!target_->ReadBytes(base, bytes.data(), bytes.size()).ok()) {
    return nullptr;
  }
  stats_.block_fetches++;
  stats_.fetched_bytes += bytes.size();
  while (blocks_.size() >= config_.capacity_blocks && !lru_.empty()) {
    blocks_.erase(lru_.back());
    lru_.pop_back();
    stats_.evictions++;
  }
  lru_.push_front(base);
  Block& block = blocks_[base];
  block.bytes = std::move(bytes);
  block.lru_it = lru_.begin();
  return &block;
}

vl::Status ReadSession::ReadBytes(uint64_t addr, void* out, size_t len) {
  if (!page_scopes_.empty()) {
    RecordPages(addr, len);
  }
  if (!cache_enabled() || len == 0) {
    return target_->ReadBytes(addr, out, len);
  }
  CheckEpoch();
  uint8_t* dst = static_cast<uint8_t*>(out);
  uint64_t pos = addr;
  size_t remaining = len;
  while (remaining > 0) {
    uint64_t base = (pos >> block_shift_) << block_shift_;
    size_t offset = static_cast<size_t>(pos - base);
    size_t take = std::min(remaining, config_.block_bytes - offset);
    bool hit = false;
    const Block* block = LookupOrFetch(base, &hit);
    if (block == nullptr) {
      // The aligned block straddles unreadable memory (e.g. the arena edge);
      // fall through to an exact-range read, charged like a raw Target read.
      stats_.uncached_reads++;
      VL_RETURN_IF_ERROR(target_->ReadBytes(pos, dst, take));
      if (trace_flag_->load(std::memory_order_relaxed)) {
        vl::Tracer::Instance().Annotate("cache.miss_bytes",
                                        static_cast<int64_t>(take));
      }
    } else {
      std::memcpy(dst, block->bytes.data() + offset, take);
      if (hit) {
        stats_.hits++;
        stats_.hit_bytes += take;
      } else {
        stats_.misses++;
        stats_.miss_bytes += take;
      }
      if (trace_flag_->load(std::memory_order_relaxed)) {
        vl::Tracer::Instance().Annotate(hit ? "cache.hit_bytes" : "cache.miss_bytes",
                                        static_cast<int64_t>(take));
      }
    }
    dst += take;
    pos += take;
    remaining -= take;
  }
  return vl::Status::Ok();
}

vl::StatusOr<uint64_t> ReadSession::ReadUnsigned(uint64_t addr, size_t size) {
  if (size == 0 || size > 8) {
    return vl::InvalidArgumentError(vl::StrFormat("bad scalar width %zu", size));
  }
  uint64_t value = 0;
  VL_RETURN_IF_ERROR(ReadBytes(addr, &value, size));  // little-endian host
  return value;
}

vl::StatusOr<int64_t> ReadSession::ReadSigned(uint64_t addr, size_t size) {
  VL_ASSIGN_OR_RETURN(uint64_t raw, ReadUnsigned(addr, size));
  if (size < 8) {
    uint64_t sign_bit = 1ull << (size * 8 - 1);
    if ((raw & sign_bit) != 0) {
      raw |= ~((sign_bit << 1) - 1);
    }
  }
  return static_cast<int64_t>(raw);
}

vl::StatusOr<std::string> ReadSession::ReadCString(uint64_t addr, size_t max_len) {
  if (!cache_enabled()) {
    return target_->ReadCString(addr, max_len);
  }
  // Same chunked contract as Target::ReadCString (64-byte chunks, byte-wise
  // retry at unreadable boundaries), but each chunk flows through the block
  // cache so repeated name fetches are free.
  std::string out;
  char chunk[64];
  while (out.size() < max_len) {
    size_t want = std::min(sizeof(chunk), max_len - out.size());
    if (!ReadBytes(addr + out.size(), chunk, want).ok()) {
      size_t ok = 0;
      while (ok < want && ReadBytes(addr + out.size() + ok, chunk + ok, 1).ok()) {
        ++ok;
      }
      if (ok == 0) {
        return vl::MemoryFaultError(vl::StrFormat(
            "cannot read string at 0x%llx", static_cast<unsigned long long>(addr)));
      }
      want = ok;
    }
    for (size_t i = 0; i < want; ++i) {
      if (chunk[i] == '\0') {
        return out;
      }
      out.push_back(chunk[i]);
    }
  }
  return out;
}

void ReadSession::PrefetchObject(uint64_t addr, const Type* type) {
  if (type == nullptr || type->size == 0) {
    return;
  }
  stats_.prefetches++;
  (void)FetchSpans({Span{addr, type->size}}, nullptr);  // best effort
}

ReadSession::SpanFetch ReadSession::FetchSpans(
    const std::vector<Span>& spans,
    std::unordered_map<uint64_t, std::vector<uint8_t>>* snapshot) {
  SpanFetch out;
  if (!cache_enabled()) {
    return out;
  }
  CheckEpoch();
  // Gather the aligned blocks the spans cover; cached blocks are touched
  // (LRU) and copied into the snapshot, missing blocks queue for the batch.
  std::vector<uint64_t> missing;
  std::unordered_set<uint64_t> seen;
  for (const Span& span : spans) {
    if (span.len == 0) {
      continue;
    }
    uint64_t base = (span.addr >> block_shift_) << block_shift_;
    uint64_t end = span.addr + span.len;
    for (uint64_t b = base; b < end; b += config_.block_bytes) {
      if (!seen.insert(b).second) {
        continue;
      }
      auto it = blocks_.find(b);
      if (it != blocks_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        if (snapshot != nullptr) {
          NoteUse(&it->second);
          (*snapshot)[b] = it->second.bytes;
        }
        continue;
      }
      missing.push_back(b);
    }
  }
  if (!missing.empty()) {
    out.batches = 1;
    out.fetched_blocks = FillBlocks(missing, snapshot, /*refill=*/false);
  }
  return out;
}

size_t ReadSession::FillBlocks(const std::vector<uint64_t>& bases,
                               std::unordered_map<uint64_t, std::vector<uint8_t>>* snapshot,
                               bool refill) {
  // One vectored transport request for every block.
  std::vector<std::vector<uint8_t>> buffers(bases.size());
  std::vector<ReadSpan> batch(bases.size());
  for (size_t i = 0; i < bases.size(); ++i) {
    buffers[i].resize(config_.block_bytes);
    batch[i] = ReadSpan{bases[i], config_.block_bytes, buffers[i].data(), false};
  }
  (void)target_->ReadVector(batch);
  stats_.vector_batches++;
  size_t filled = 0;
  for (size_t i = 0; i < bases.size(); ++i) {
    if (!batch[i].ok) {
      continue;  // unreadable block: reads of it fall back to exact ranges
    }
    ++filled;
    stats_.vector_blocks++;
    stats_.fetched_bytes += config_.block_bytes;
    while (blocks_.size() >= config_.capacity_blocks && !lru_.empty()) {
      blocks_.erase(lru_.back());
      lru_.pop_back();
      stats_.evictions++;
    }
    lru_.push_front(bases[i]);
    Block& block = blocks_[bases[i]];
    if (snapshot != nullptr) {
      (*snapshot)[bases[i]] = buffers[i];
    }
    block.bytes = std::move(buffers[i]);
    block.lru_it = lru_.begin();
    block.refilled = refill;
  }
  return filled;
}

void ReadSession::NoteUse(Block* block) {
  if (block->refilled) {
    block->refilled = false;
    stats_.refill_used_blocks++;
  }
}

void ReadSession::ResetCacheStats() {
  stats_ = CacheStats{};
  // A block refilled before the reset must not count as a use after it.
  for (auto& [base, block] : blocks_) {
    block.refilled = false;
  }
}

vl::Json ReadSession::StatsToJson() const {
  vl::Json j = stats_.ToJson();
  j["enabled"] = vl::Json::Bool(cache_enabled());
  j["block_bytes"] = vl::Json::Int(static_cast<int64_t>(config_.block_bytes));
  j["capacity_blocks"] = vl::Json::Int(static_cast<int64_t>(config_.capacity_blocks));
  j["cached_blocks"] = vl::Json::Int(static_cast<int64_t>(blocks_.size()));
  j["hit_rate"] = vl::Json::Number(stats_.HitRate());
  j["delta_enabled"] = vl::Json::Bool(delta_enabled());
  return j;
}

}  // namespace dbg

// Incremental refresh correctness: the write-protect dirty-page journal over
// the arena, Target's charged dirty-log queries, ReadSession delta
// refresh (with the all-dirty fallback and refill accounting), prefetch, viewcl
// memo replay, the pane render-digest cache — and the end-to-end contract
// that incremental refreshes render byte-identically to cold-cache
// extractions for every figure, across epoch skew.

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/dbg/kernel_introspect.h"
#include "src/dbg/read_session.h"
#include "src/dbg/target.h"
#include "src/support/metrics.h"
#include "src/viewcl/interp.h"
#include "src/vision/figures.h"
#include "src/vision/panes.h"
#include "src/vision/render.h"
#include "src/vkern/kernel.h"
#include "src/vkern/page_journal.h"
#include "src/vkern/workload.h"
#include "tests/test_util.h"

namespace dbg {
namespace {

constexpr uint64_t kPage = 4096;

// --- the write-protect journal over the kernel arena ------------------------

TEST(PageJournalTest, CleanAtAttachDirtyAfterMutation) {
  vkern::Kernel kernel;
  vkern::PageJournal journal(&kernel.arena(), kernel.generation());
  EXPECT_GT(journal.page_count(), 0u);

  // Attaching baselines every page at the attach generation: nothing is
  // dirty relative to it.
  EXPECT_TRUE(journal.DirtyPagesSince(kernel.generation(), kernel.generation()).empty());

  uint64_t attach_gen = kernel.generation();
  for (int cpu = 0; cpu < vkern::kNrCpus; ++cpu) {
    kernel.TickCpu(cpu);
  }
  std::vector<uint32_t> dirty = journal.DirtyPagesSince(attach_gen, kernel.generation());
  EXPECT_GT(dirty.size(), 0u) << "a tick mutates scheduler/timer pages";
  EXPECT_LT(dirty.size(), journal.page_count()) << "a tick must not touch everything";
}

TEST(PageJournalTest, RescansLazilyOncePerGeneration) {
  vkern::Kernel kernel;
  vkern::PageJournal journal(&kernel.arena(), kernel.generation());
  uint64_t scans_after_attach = journal.scans();

  // Same generation: answers come from the last sync, no resync.
  (void)journal.DirtyPagesSince(0, kernel.generation());
  (void)journal.DirtyPagesSince(0, kernel.generation());
  EXPECT_EQ(journal.scans(), scans_after_attach);

  uint64_t attach_gen = kernel.generation();
  kernel.TickCpu(0);
  (void)journal.DirtyPagesSince(attach_gen, kernel.generation());
  EXPECT_EQ(journal.scans(), scans_after_attach + 1);
  (void)journal.DirtyPagesSince(attach_gen, kernel.generation());
  EXPECT_EQ(journal.scans(), scans_after_attach + 1);
}

TEST(PageJournalTest, TwoJournalsOnOneArenaBothSeeAWrite) {
  vkern::Arena arena(16 * kPage);
  vkern::PageJournal first(&arena, 1);
  vkern::PageJournal second(&arena, 1);
  arena.base()[5 * kPage + 7] = 1;
  // The first sync re-protects the page; the second journal still sees it.
  EXPECT_EQ(first.DirtyPagesSince(1, 2), std::vector<uint32_t>{5});
  EXPECT_EQ(second.DirtyPagesSince(1, 2), std::vector<uint32_t>{5});
  arena.base()[9 * kPage] = 1;
  EXPECT_EQ(second.DirtyPagesSince(2, 3), std::vector<uint32_t>{9});
  EXPECT_EQ(first.DirtyPagesSince(2, 3), std::vector<uint32_t>{9});
}

TEST(PageJournalTest, WriteAfterSyncIsReportedAtNextGeneration) {
  vkern::Arena arena(16 * kPage);
  vkern::PageJournal journal(&arena, 1);
  EXPECT_TRUE(journal.DirtyPagesSince(1, 2).empty());
  arena.base()[3 * kPage] = 1;  // same generation, after its sync
  EXPECT_TRUE(journal.DirtyPagesSince(1, 2).empty()) << "no resync within a generation";
  EXPECT_EQ(journal.DirtyPagesSince(2, 3), std::vector<uint32_t>{3});
  EXPECT_EQ(journal.last_changed(3), 3u);
}

TEST(PageJournalTest, QuietGenerationReprotectsNothing) {
  vkern::Arena arena(16 * kPage);
  vkern::PageJournal journal(&arena, 1);
  arena.base()[0] = 1;
  ASSERT_EQ(journal.DirtyPagesSince(1, 2), std::vector<uint32_t>{0});
  uint64_t reprotected = arena.pages_reprotected();
  EXPECT_EQ(reprotected, 1u);
  EXPECT_TRUE(journal.DirtyPagesSince(2, 3).empty());
  EXPECT_EQ(arena.pages_reprotected(), reprotected);
  EXPECT_EQ(journal.scans(), 3u);
  EXPECT_EQ(journal.pages_scanned(), 3 * journal.page_count());
}

TEST(PageJournalTest, MemcpySpanningTwoPagesDirtiesBoth) {
  vkern::Arena arena(16 * kPage);
  vkern::PageJournal journal(&arena, 1);
  std::vector<uint8_t> bytes(64, 0xAB);
  std::memcpy(arena.base() + 6 * kPage - 32, bytes.data(), bytes.size());
  EXPECT_EQ(journal.DirtyPagesSince(1, 2), (std::vector<uint32_t>{5, 6}));
}

TEST(PageJournalTest, EveryOtherPageOfAFullSizeArenaIsReportedExactly) {
  constexpr size_t kBytes = 96ull << 20;
  vkern::Arena arena(kBytes);
  vkern::PageJournal journal(&arena, 1);
  std::vector<uint32_t> written;
  for (uint32_t p = 0; p < kBytes / kPage; p += 2) {
    arena.base()[p * kPage + 100] = 1;
    written.push_back(p);
  }
  EXPECT_EQ(journal.DirtyPagesSince(1, 2), written);
  EXPECT_EQ(arena.pages_reprotected(), written.size());
  // Every page is protected again: the next write is caught.
  arena.base()[2 * kPage] = 2;
  EXPECT_EQ(journal.DirtyPagesSince(2, 3), std::vector<uint32_t>{2});
}

TEST(PageJournalTest, LastJournalDisarmsTheArena) {
  vkern::Arena arena(16 * kPage);
  EXPECT_FALSE(arena.write_tracking_armed());
  {
    vkern::PageJournal first(&arena, 1);
    { vkern::PageJournal second(&arena, 1); }
    EXPECT_TRUE(arena.write_tracking_armed()) << "one journal still tracks";
    arena.base()[kPage] = 1;
    EXPECT_EQ(first.DirtyPagesSince(1, 2), std::vector<uint32_t>{1});
  }
  EXPECT_FALSE(arena.write_tracking_armed());
  arena.base()[2 * kPage] = 1;  // writable without tracking

  // Re-arming starts a clean log: earlier writes are not reported.
  vkern::PageJournal again(&arena, 5);
  arena.base()[3 * kPage] = 1;
  EXPECT_EQ(again.DirtyPagesSince(5, 6), std::vector<uint32_t>{3});
}

// Debuggers (and their journals) may be torn down after the kernel.
TEST(PageJournalTest, JournalMayOutliveItsArena) {
  auto arena = std::make_unique<vkern::Arena>(16 * kPage);
  auto journal = std::make_unique<vkern::PageJournal>(arena.get(), 1);
  arena->base()[0] = 1;
  arena.reset();
  journal.reset();
  vkern::Arena next(16 * kPage);  // the registry slot is free again
  vkern::PageJournal tracker(&next, 1);
  next.base()[kPage] = 1;
  EXPECT_EQ(tracker.DirtyPagesSince(1, 2), std::vector<uint32_t>{1});
}

TEST(PageJournalDeathTest, WildWriteOutsideTheArenaStillCrashes) {
  vkern::Arena arena(16 * kPage);
  vkern::PageJournal journal(&arena, 1);  // installs the fault handler
  void* page = mmap(nullptr, kPage, PROT_READ, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(page, MAP_FAILED);
  EXPECT_DEATH(*static_cast<volatile uint8_t*>(page) = 1, "");
  munmap(page, kPage);
}

TEST(PageJournalTest, BuddyPoolPageIsOneJournalPage) {
  vkern::Kernel kernel;
  const vkern::Arena& arena = kernel.arena();
  EXPECT_EQ(arena.base_addr() % kPage, 0u);
  vkern::page* pg = kernel.buddy().AllocPages(0);
  ASSERT_NE(pg, nullptr);
  auto* mem = static_cast<uint8_t*>(kernel.buddy().PageAddress(pg));

  vkern::PageJournal journal(&arena, kernel.generation());
  std::memset(mem, 0x5A, kPage);
  std::vector<uint32_t> dirty =
      journal.DirtyPagesSince(kernel.generation(), kernel.generation() + 1);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(arena.base_addr() + dirty[0] * kPage, reinterpret_cast<uint64_t>(mem));
}

// Soundness against a shadow copy: every page whose bytes changed across a
// workload step is reported. (Pages rewritten with identical bytes may be
// reported too; that is conservative.)
class PageJournalKernelTest : public vltest::WorkloadKernelTest {};

TEST_F(PageJournalKernelTest, ReportsEveryChangedPageAcrossWorkloadSteps) {
  const vkern::Arena& arena = kernel_->arena();
  vkern::PageJournal journal(&arena, kernel_->generation());
  std::vector<uint8_t> shadow(arena.base(), arena.base() + arena.size());
  for (int step = 0; step < 3; ++step) {
    uint64_t since = kernel_->generation();
    workload_->Step();
    std::vector<uint32_t> dirty = journal.DirtyPagesSince(since, kernel_->generation());
    std::set<uint32_t> reported(dirty.begin(), dirty.end());
    size_t changed = 0;
    for (uint32_t p = 0; p < journal.page_count(); ++p) {
      const uint8_t* now = arena.base() + p * kPage;
      if (std::memcmp(now, shadow.data() + p * kPage, kPage) != 0) {
        ++changed;
        EXPECT_EQ(reported.count(p), 1u) << "page " << p << " changed unreported, step " << step;
        std::memcpy(shadow.data() + p * kPage, now, kPage);
      }
    }
    EXPECT_GT(changed, 0u) << "step " << step;
    EXPECT_LT(dirty.size(), journal.page_count() / 10) << "step " << step;
  }
}

// --- a flat memory domain with an exact dirty log ---------------------------

// FlatMemory plus a precise per-page dirty log, so delta invalidation can be
// unit-tested without a kernel: Mutate() is one epoch + one dirtied page.
class FlatDirtyMemory : public MemoryDomain {
 public:
  explicit FlatDirtyMemory(size_t size) : bytes_(size) {
    for (size_t i = 0; i < size; ++i) {
      bytes_[i] = static_cast<uint8_t>(i * 31 + 7);
    }
  }
  bool ReadBytes(uint64_t addr, void* out, size_t len) const override {
    if (addr + len > bytes_.size()) {
      return false;
    }
    std::memcpy(out, bytes_.data() + addr, len);
    return true;
  }
  uint64_t generation() const override { return generation_; }
  DirtyPageInfo DirtyPagesSince(uint64_t since_generation) const override {
    DirtyPageInfo info;
    info.supported = true;
    info.page_size = kPage;
    info.pages_total = bytes_.size() / kPage;
    info.pages_scanned = info.pages_total;
    for (const auto& [page, gen] : dirty_) {
      if (gen > since_generation) {
        info.dirty_pages.push_back(page * kPage);
      }
    }
    return info;
  }

  void Mutate(uint64_t addr, uint8_t value) {
    ++generation_;
    bytes_[addr] = value;
    dirty_[addr / kPage] = generation_;
  }
  void MutateAllPages() {
    ++generation_;
    for (uint64_t page = 0; page < bytes_.size() / kPage; ++page) {
      bytes_[page * kPage] ^= 0xFF;
      dirty_[page] = generation_;
    }
  }

 private:
  std::vector<uint8_t> bytes_;
  uint64_t generation_ = 0;
  std::map<uint64_t, uint64_t> dirty_;  // page index -> last dirty generation
};

TEST(DeltaInvalidationTest, RefreshesOnlyBlocksOnDirtyPages) {
  FlatDirtyMemory memory(16 * kPage);
  Target target(&memory, LatencyModel::Free());
  ReadSession session(&target, CacheConfig::Incremental());
  ASSERT_TRUE(session.delta_enabled());
  const size_t block = session.config().block_bytes;

  ASSERT_TRUE(session.ReadUnsigned(0, 8).ok());          // page 0
  ASSERT_TRUE(session.ReadUnsigned(2 * kPage, 8).ok());  // page 2
  EXPECT_EQ(target.reads(), 2u);
  EXPECT_EQ(target.bytes_read(), 2 * block);

  memory.Mutate(0, 0xEE);

  // The epoch sync re-fetches the formerly cached page-0 block, and only it,
  // in one vectored batch; the clean page-2 block is not fetched.
  session.SyncEpoch();
  EXPECT_EQ(target.reads(), 3u);
  EXPECT_EQ(target.bytes_read(), 3 * block);
  EXPECT_EQ(session.cache_stats().vector_batches, 1u);
  EXPECT_EQ(session.cache_stats().refill_batches, 1u);
  EXPECT_EQ(session.cache_stats().refill_blocks, 1u);
  EXPECT_EQ(session.cache_stats().delta_invalidations, 1u);
  EXPECT_EQ(session.cache_stats().invalidations, 0u);
  EXPECT_EQ(session.cache_stats().invalidated_bytes_delta, block);
  EXPECT_EQ(session.cache_stats().invalidated_bytes_full, 0u);

  // Both pages now read from cache, and page 0 has the new byte.
  ASSERT_TRUE(session.ReadUnsigned(2 * kPage, 8).ok());
  auto fresh = session.ReadUnsigned(0, 1);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, 0xEEu);
  EXPECT_EQ(target.reads(), 3u);
  EXPECT_EQ(session.cache_stats().refill_used_blocks, 1u);
}

TEST(DeltaInvalidationTest, AllPagesDirtyFallsBackToFullFlush) {
  FlatDirtyMemory memory(16 * kPage);
  Target target(&memory, LatencyModel::Free());
  ReadSession session(&target, CacheConfig::Incremental());

  for (uint64_t page = 0; page < 16; ++page) {
    ASSERT_TRUE(session.ReadUnsigned(page * kPage, 8).ok());
  }
  uint64_t reads = target.reads();
  memory.MutateAllPages();

  // Dirty ratio 1.0 > 0.5: one flush, not 16 pages of block
  // refresh — and the legacy `invalidations` counter keeps its meaning.
  session.SyncEpoch();
  EXPECT_EQ(session.cache_stats().invalidations, 1u);
  EXPECT_EQ(session.cache_stats().delta_invalidations, 0u);
  EXPECT_GT(session.cache_stats().invalidated_bytes_full, 0u);
  EXPECT_EQ(session.cached_blocks(), 0u);
  EXPECT_EQ(session.cache_stats().refill_batches, 0u);
  EXPECT_EQ(session.cache_stats().vector_batches, 0u);
  EXPECT_EQ(target.reads(), reads);

  // Every page refetches fresh bytes.
  auto v = session.ReadUnsigned(5 * kPage, 1);
  ASSERT_TRUE(v.ok());
  uint64_t direct = 0;
  ASSERT_TRUE(target.ReadBytes(5 * kPage, &direct, 1).ok());
  EXPECT_EQ(*v, direct);
}

TEST(DeltaInvalidationTest, DomainWithoutDirtyLogFallsBackToFullFlush) {
  // FlatDirtyMemory minus the override: DirtyPagesSince is unsupported.
  class PlainMemory : public MemoryDomain {
   public:
    bool ReadBytes(uint64_t addr, void* out, size_t len) const override {
      std::memset(out, static_cast<int>(addr & 0xFF), len);
      return true;
    }
    uint64_t generation() const override { return generation_; }
    void Bump() { ++generation_; }

   private:
    uint64_t generation_ = 0;
  };

  PlainMemory memory;
  Target target(&memory, LatencyModel::Free());
  ReadSession session(&target, CacheConfig::Incremental());
  ASSERT_TRUE(session.ReadUnsigned(0, 8).ok());
  memory.Bump();
  ASSERT_TRUE(session.ReadUnsigned(0, 8).ok());
  EXPECT_EQ(session.cache_stats().invalidations, 1u);
  EXPECT_EQ(session.cache_stats().delta_invalidations, 0u);
}

TEST(DeltaInvalidationTest, RangeCleanSinceTracksDirtyHistory) {
  FlatDirtyMemory memory(16 * kPage);
  Target target(&memory, LatencyModel::Free());
  ReadSession session(&target, CacheConfig::Incremental());
  uint64_t attach_epoch = session.epoch();

  memory.Mutate(3 * kPage + 100, 0xAB);
  EXPECT_EQ(session.SyncEpoch(), memory.generation());

  EXPECT_FALSE(session.RangeCleanSince(3 * kPage, 8, attach_epoch));
  EXPECT_TRUE(session.RangeCleanSince(5 * kPage, 8, attach_epoch));
  // A range straddling into the dirty page is dirty.
  EXPECT_FALSE(session.RangeCleanSince(3 * kPage - 4, 8, attach_epoch));
  // Relative to the current epoch everything is clean again.
  EXPECT_TRUE(session.RangeCleanSince(3 * kPage, 8, session.epoch()));
}

TEST(DeltaInvalidationTest, DirtyAwarePrefetchWarmsOnlyDirtyPages) {
  FlatDirtyMemory memory(16 * kPage);
  Target target(&memory, LatencyModel::Free());
  ReadSession session(&target, CacheConfig::Incremental());

  // A fake 2-page object type.
  Type object;
  object.name = "two_pages";
  object.size = 2 * kPage;

  session.PrefetchObject(0, &object);
  EXPECT_EQ(target.reads(), 1u);
  EXPECT_EQ(target.bytes_read(), 2 * kPage);

  // Dirty only the second page, then re-prefetch: one batch of exactly that
  // page's bytes (the epoch sync's refill), and the prefetch finds the rest
  // cached.
  memory.Mutate(kPage + 8, 0x55);
  session.PrefetchObject(0, &object);
  EXPECT_EQ(target.reads(), 2u);
  EXPECT_EQ(target.bytes_read(), 3 * kPage);

  // Clean re-prefetch: free.
  session.PrefetchObject(0, &object);
  EXPECT_EQ(target.reads(), 2u);
  EXPECT_EQ(target.bytes_read(), 3 * kPage);
}

TEST(DeltaInvalidationTest, DirtyPageWithoutCachedBlocksIssuesNoBatch) {
  FlatDirtyMemory memory(16 * kPage);
  Target target(&memory, LatencyModel{"test", 1000, 10, 50'000});
  ReadSession session(&target, CacheConfig::Incremental());
  ASSERT_TRUE(session.ReadUnsigned(0, 8).ok());  // only page 0 is cached
  uint64_t reads = target.reads();
  uint64_t clock = target.clock().nanos();
  uint64_t dirty_ns = target.dirty_stats().charged_ns;

  memory.Mutate(5 * kPage, 0x11);
  session.SyncEpoch();
  EXPECT_EQ(session.cache_stats().delta_invalidations, 1u);
  EXPECT_EQ(session.cache_stats().refill_batches, 0u);
  EXPECT_EQ(session.cache_stats().vector_batches, 0u);
  EXPECT_EQ(target.reads(), reads);
  // Nothing beyond the dirty-log query itself is charged.
  EXPECT_EQ(target.clock().nanos() - clock, target.dirty_stats().charged_ns - dirty_ns);
}

TEST(DeltaInvalidationTest, RefillInsideOpenPageScopeRecordsNoPages) {
  FlatDirtyMemory memory(16 * kPage);
  Target target(&memory, LatencyModel::Free());
  ReadSession session(&target, CacheConfig::Incremental());
  ASSERT_TRUE(session.ReadUnsigned(5 * kPage, 8).ok());
  memory.Mutate(5 * kPage, 0x22);

  // The read syncs the epoch and so pays page 5's refill inside the scope;
  // only the page the consumer read lands in it.
  session.PushPageScope();
  ASSERT_TRUE(session.ReadUnsigned(0, 8).ok());
  std::vector<uint64_t> pages = session.PopPageScope();
  EXPECT_EQ(session.cache_stats().refill_blocks, 1u);
  EXPECT_EQ(pages, std::vector<uint64_t>{0});
}

TEST(DeltaInvalidationTest, RefillUseCountsFirstReadAndResets) {
  FlatDirtyMemory memory(16 * kPage);
  Target target(&memory, LatencyModel::Free());
  ReadSession session(&target, CacheConfig::Incremental());
  const size_t block = session.config().block_bytes;
  ASSERT_TRUE(session.ReadUnsigned(0, 8).ok());
  ASSERT_TRUE(session.ReadUnsigned(block, 8).ok());  // second block of page 0

  memory.Mutate(0, 0x33);
  session.SyncEpoch();
  EXPECT_EQ(session.cache_stats().refill_blocks, 2u);
  EXPECT_EQ(session.cache_stats().refill_used_blocks, 0u);

  // Only the first read of a refilled block counts.
  ASSERT_TRUE(session.ReadUnsigned(0, 8).ok());
  ASSERT_TRUE(session.ReadUnsigned(0, 8).ok());
  EXPECT_EQ(session.cache_stats().refill_used_blocks, 1u);

  // A second stop refills both again; the unread one was wasted twice.
  memory.Mutate(0, 0x44);
  session.SyncEpoch();
  EXPECT_EQ(session.cache_stats().refill_batches, 2u);
  EXPECT_EQ(session.cache_stats().refill_blocks, 4u);
  EXPECT_LE(session.cache_stats().refill_used_blocks, session.cache_stats().refill_blocks);

  // A reset zeroes both, and a block refilled before it is no use after it.
  session.ResetCacheStats();
  EXPECT_EQ(session.cache_stats().refill_blocks, 0u);
  EXPECT_EQ(session.cache_stats().refill_used_blocks, 0u);
  ASSERT_TRUE(session.ReadUnsigned(block, 8).ok());
  EXPECT_EQ(session.cache_stats().refill_used_blocks, 0u);
}

// --- charged dirty-log queries ----------------------------------------------

TEST(DirtyQueryTest, ChargesModelCostWithoutCountingReads) {
  FlatDirtyMemory memory(16 * kPage);
  LatencyModel model{"test", 1000, 10, 50'000};
  Target target(&memory, model);

  uint64_t before = target.clock().nanos();
  DirtyPageInfo info = target.DirtyPagesSince(0);
  ASSERT_TRUE(info.supported);
  EXPECT_EQ(info.pages_total, 16u);

  // One dirty-log round trip plus the bitmap payload (one bit per page).
  uint64_t bitmap_bytes = (info.pages_total + 7) / 8;
  EXPECT_EQ(target.clock().nanos() - before,
            model.dirty_query_ns + model.per_byte_ns * bitmap_bytes);
  EXPECT_EQ(target.reads(), 0u) << "dirty queries are not memory reads";
  EXPECT_EQ(target.dirty_stats().queries, 1u);
  EXPECT_EQ(target.dirty_stats().charged_ns,
            model.dirty_query_ns + model.per_byte_ns * bitmap_bytes);
}

TEST(DirtyQueryTest, UnsupportedDomainChargesNothing) {
  class PlainMemory : public MemoryDomain {
   public:
    bool ReadBytes(uint64_t, void* out, size_t len) const override {
      std::memset(out, 0, len);
      return true;
    }
    uint64_t generation() const override { return 0; }
  };
  PlainMemory memory;
  Target target(&memory, LatencyModel::GdbQemu());
  DirtyPageInfo info = target.DirtyPagesSince(0);
  EXPECT_FALSE(info.supported);
  EXPECT_EQ(target.clock().nanos(), 0u);
  EXPECT_EQ(target.dirty_stats().queries, 0u);
}

// --- workload epoch coalescing ----------------------------------------------

TEST(MutationBatchTest, OneWorkloadStepCostsOneEpoch) {
  vkern::Kernel kernel;
  vkern::WorkloadConfig config;
  config.steps = 1;
  vkern::Workload workload(&kernel, config);
  workload.Run();  // spawn + one step

  uint64_t before = kernel.generation();
  workload.Step();
  EXPECT_EQ(kernel.generation(), before + 1)
      << "a step's ops + per-CPU ticks must coalesce into one epoch";

  // Standalone TickCpu still bumps (the classic cache contract).
  before = kernel.generation();
  kernel.TickCpu(0);
  EXPECT_EQ(kernel.generation(), before + 1);
}

// --- end-to-end: incremental refresh vs cold cache --------------------------

class IncrementalKernelTest : public vltest::WorkloadKernelTest {};

// The headline contract: a long-lived incremental debugger (delta
// invalidation + memo replay), refreshed across workload steps, renders
// byte-identically to a cold-cache extraction — for every figure.
TEST_F(IncrementalKernelTest, IncrementalRendersMatchColdCacheForAllFigures) {
  KernelDebugger incremental(kernel_.get(), LatencyModel::Free(),
                             CacheConfig::Incremental());
  vision::RegisterFigureSymbols(&incremental, workload_.get());
  vision::AsciiRenderer renderer;

  // One persistent interpreter per figure, so memo snapshots carry across
  // refreshes exactly like a pane's shared interpreter does.
  std::map<std::string, std::unique_ptr<viewcl::Interpreter>> interps;
  for (const vision::FigureDef& figure : vision::AllFigures()) {
    auto interp = std::make_unique<viewcl::Interpreter>(&incremental);
    ASSERT_TRUE(interp->Load(figure.viewcl).ok()) << figure.id;
    interps[figure.id] = std::move(interp);
  }

  for (int round = 0; round < 2; ++round) {
    if (round > 0) {
      workload_->Step();
    }
    KernelDebugger cold(kernel_.get(), LatencyModel::Free(), CacheConfig::Disabled());
    vision::RegisterFigureSymbols(&cold, workload_.get());
    for (const vision::FigureDef& figure : vision::AllFigures()) {
      auto inc_graph = interps[figure.id]->Run();
      viewcl::Interpreter cold_interp(&cold);
      auto cold_graph = cold_interp.RunProgram(figure.viewcl);
      ASSERT_EQ(inc_graph.ok(), cold_graph.ok()) << figure.id << " round " << round;
      if (!inc_graph.ok()) {
        continue;
      }
      EXPECT_EQ(renderer.Render(**inc_graph), renderer.Render(**cold_graph))
          << figure.id << " round " << round;
    }
  }
  // The steady-state rounds must actually exercise the incremental paths.
  EXPECT_GT(incremental.session().cache_stats().delta_invalidations, 0u);
  EXPECT_EQ(incremental.session().cache_stats().invalidations, 0u)
      << "a workload step dirties a small fraction of the arena";
}

// Attaching a debugger writes its task-state strings into the arena; the
// attach bumps the generation, so a session already attached drops the
// blocks, memo and results covering them instead of serving stale bytes.
TEST_F(IncrementalKernelTest, AttachingAnotherDebuggerInvalidatesTheFirst) {
  KernelDebugger first(kernel_.get(), LatencyModel::Free(), CacheConfig::Incremental());
  vision::RegisterFigureSymbols(&first, workload_.get());
  const vision::FigureDef* figure = vision::FindFigure("fig3_4");
  ASSERT_NE(figure, nullptr);
  viewcl::Interpreter interp(&first);
  ASSERT_TRUE(interp.Load(figure->viewcl).ok());
  ASSERT_TRUE(interp.Run().ok());

  // Cache the bytes after `first`'s state strings, where the next
  // attachment's strings land.
  auto first_state = first.Eval("task_state(&init_task)");
  ASSERT_TRUE(first_state.ok());
  std::vector<uint8_t> bytes(256);
  ASSERT_TRUE(first.session().ReadBytes(first_state->bits(), bytes.data(), bytes.size()).ok());

  uint64_t generation = kernel_->generation();
  KernelDebugger second(kernel_.get(), LatencyModel::Free(), CacheConfig::Disabled());
  vision::RegisterFigureSymbols(&second, workload_.get());
  EXPECT_GT(kernel_->generation(), generation);

  auto second_state = second.Eval("task_state(&init_task)");
  ASSERT_TRUE(second_state.ok());
  auto seen_by_first = first.session().ReadCString(second_state->bits());
  auto seen_by_second = second.session().ReadCString(second_state->bits());
  ASSERT_TRUE(seen_by_first.ok());
  ASSERT_TRUE(seen_by_second.ok());
  EXPECT_EQ(*seen_by_first, *seen_by_second);
  EXPECT_FALSE(seen_by_second->empty());

  auto refreshed = interp.Run();
  ASSERT_TRUE(refreshed.ok());
  KernelDebugger reference(kernel_.get(), LatencyModel::Free(), CacheConfig::Disabled());
  vision::RegisterFigureSymbols(&reference, workload_.get());
  viewcl::Interpreter reference_interp(&reference);
  auto reference_graph = reference_interp.RunProgram(figure->viewcl);
  ASSERT_TRUE(reference_graph.ok());
  vision::AsciiRenderer renderer;
  EXPECT_EQ(renderer.Render(**refreshed), renderer.Render(**reference_graph));
}

// Across workload steps the dirty-log refresh refills blocks the next
// extraction reads, and never counts a use it did not refill.
TEST_F(IncrementalKernelTest, RefillUsedBlocksNeverExceedRefilled) {
  KernelDebugger debugger(kernel_.get(), LatencyModel::GdbQemu(), CacheConfig::Incremental());
  vision::RegisterFigureSymbols(&debugger, workload_.get());
  const vision::FigureDef* figure = vision::FindFigure("fig7_1");
  ASSERT_NE(figure, nullptr);
  debugger.target().ResetStats();
  vl::MetricsRegistry& metrics = vl::MetricsRegistry::Instance();
  for (int step = 0; step < 4; ++step) {
    viewcl::Interpreter interp(&debugger);
    ASSERT_TRUE(interp.RunProgram(figure->viewcl).ok());
    workload_->Step();
  }
  viewcl::Interpreter interp(&debugger);
  ASSERT_TRUE(interp.RunProgram(figure->viewcl).ok());

  const CacheStats& stats = debugger.session().cache_stats();
  EXPECT_GT(stats.refill_batches, 0u);
  EXPECT_GT(stats.refill_used_blocks, 0u);
  EXPECT_LE(stats.refill_used_blocks, stats.refill_blocks);
  EXPECT_EQ(metrics.GetCounter("cache.refill.batches")->value(), stats.refill_batches);
  EXPECT_EQ(metrics.GetCounter("cache.refill.blocks")->value(), stats.refill_blocks);

  debugger.session().ResetCacheStats();
  EXPECT_EQ(debugger.session().cache_stats().refill_blocks, 0u);
  EXPECT_EQ(debugger.session().cache_stats().refill_used_blocks, 0u);
  debugger.target().ResetStats();
  EXPECT_EQ(metrics.GetCounter("cache.refill.batches")->value(), 0u);
  EXPECT_EQ(metrics.GetCounter("cache.refill.blocks")->value(), 0u);
}

TEST_F(IncrementalKernelTest, MemoReplaysCleanSubtreesOnRefresh) {
  KernelDebugger debugger(kernel_.get(), LatencyModel::Free(),
                          CacheConfig::Incremental());
  vision::RegisterFigureSymbols(&debugger, workload_.get());
  const vision::FigureDef* figure = vision::FindFigure("fig3_4");
  ASSERT_NE(figure, nullptr);

  viewcl::Interpreter interp(&debugger);
  ASSERT_TRUE(interp.Load(figure->viewcl).ok());
  auto first = interp.Run();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(interp.memo_replays(), 0u);
  EXPECT_GT(interp.memo_misses(), 0u);

  // Nothing mutated: the whole graph replays from memo snapshots.
  auto second = interp.Run();
  ASSERT_TRUE(second.ok());
  EXPECT_GT(interp.memo_replays(), 0u);
  vision::AsciiRenderer renderer;
  EXPECT_EQ(renderer.Render(**first), renderer.Render(**second));
}

// Epoch skew: multiple mutation epochs between refreshes (a pane left unre-
// freshed while the kernel runs) must still converge to the cold render.
TEST_F(IncrementalKernelTest, RefreshAfterMultipleEpochBumpsMatchesCold) {
  KernelDebugger debugger(kernel_.get(), LatencyModel::Free(),
                          CacheConfig::Incremental());
  vision::RegisterFigureSymbols(&debugger, workload_.get());
  const vision::FigureDef* figure = vision::FindFigure("fig7_1");
  ASSERT_NE(figure, nullptr);

  viewcl::Interpreter interp(&debugger);
  ASSERT_TRUE(interp.Load(figure->viewcl).ok());
  ASSERT_TRUE(interp.Run().ok());

  uint64_t epoch_before = debugger.target().memory_generation();
  for (int i = 0; i < 3; ++i) {
    workload_->Step();
  }
  ASSERT_EQ(debugger.target().memory_generation(), epoch_before + 3);

  auto refreshed = interp.Run();
  ASSERT_TRUE(refreshed.ok());

  KernelDebugger cold(kernel_.get(), LatencyModel::Free(), CacheConfig::Disabled());
  vision::RegisterFigureSymbols(&cold, workload_.get());
  viewcl::Interpreter cold_interp(&cold);
  auto cold_graph = cold_interp.RunProgram(figure->viewcl);
  ASSERT_TRUE(cold_graph.ok());
  vision::AsciiRenderer renderer;
  EXPECT_EQ(renderer.Render(**refreshed), renderer.Render(**cold_graph));
}

// --- pane render-digest cache -----------------------------------------------

class RenderDigestTest : public vltest::WorkloadKernelTest {
 protected:
  void SetUp() override {
    vltest::WorkloadKernelTest::SetUp();
    debugger_ = std::make_unique<KernelDebugger>(kernel_.get());
    vision::RegisterFigureSymbols(debugger_.get(), workload_.get());
    interp_ = std::make_unique<viewcl::Interpreter>(debugger_.get());
  }

  std::unique_ptr<KernelDebugger> debugger_;
  std::unique_ptr<viewcl::Interpreter> interp_;
};

TEST_F(RenderDigestTest, UnchangedGraphSkipsReRender) {
  vision::PaneManager panes(debugger_.get());
  const vision::FigureDef* figure = vision::FindFigure("fig3_4");
  ASSERT_NE(figure, nullptr);
  ASSERT_TRUE(interp_->Load(figure->viewcl).ok());
  auto graph = interp_->Run();
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(panes.SetGraph(1, std::move(graph).value(), figure->viewcl).ok());

  auto replot = [this](const std::string& source)
      -> vl::StatusOr<std::unique_ptr<viewcl::ViewGraph>> {
    viewcl::Interpreter fresh(debugger_.get());
    return fresh.RunProgram(source);
  };

  // First refresh renders (empty cache); the second reproduces the same
  // graph, so its digest matches and the cached output is reused.
  auto r1 = panes.RefreshPane(1, replot);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1->render_reused);
  auto r2 = panes.RefreshPane(1, replot);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->render_reused);
  EXPECT_EQ(panes.render_digest_hits(), 1u);

  // Identical output either way.
  std::string direct = panes.RenderPane(1);
  EXPECT_TRUE(panes.render_digest_hits() >= 2u);
  EXPECT_NE(direct.find("pid ="), std::string::npos);
}

TEST_F(RenderDigestTest, ViewQlUpdateChangesDigestAndReRenders) {
  vision::PaneManager panes(debugger_.get());
  const vision::FigureDef* figure = vision::FindFigure("fig3_4");
  ASSERT_NE(figure, nullptr);
  ASSERT_TRUE(interp_->Load(figure->viewcl).ok());
  auto graph = interp_->Run();
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(panes.SetGraph(1, std::move(graph).value(), figure->viewcl).ok());

  (void)panes.RenderPane(1);
  uint64_t misses_before = panes.render_digest_misses();

  // Mutating display attributes through ViewQL changes the digest: the next
  // render must not serve the stale cached output.
  ASSERT_TRUE(panes
                  .ApplyViewQl(1,
                               "a = SELECT task_struct FROM * WHERE pid == 1\n"
                               "UPDATE a WITH collapsed: true")
                  .ok());
  (void)panes.RenderPane(1);
  EXPECT_EQ(panes.render_digest_misses(), misses_before + 1);

  // Unchanged again: cached.
  uint64_t hits_before = panes.render_digest_hits();
  (void)panes.RenderPane(1);
  EXPECT_EQ(panes.render_digest_hits(), hits_before + 1);
}

TEST_F(RenderDigestTest, DifferentBackendsAndOptionsCacheSeparately) {
  vision::PaneManager panes(debugger_.get());
  const vision::FigureDef* figure = vision::FindFigure("fig3_4");
  ASSERT_NE(figure, nullptr);
  ASSERT_TRUE(interp_->Load(figure->viewcl).ok());
  auto graph = interp_->Run();
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(panes.SetGraph(1, std::move(graph).value(), figure->viewcl).ok());

  std::string ascii = panes.RenderPane(1);
  std::string dot = panes.RenderPane(1, vision::RenderOptions{}, "dot");
  vision::RenderOptions with_addrs;
  with_addrs.show_addresses = true;
  std::string addrs = panes.RenderPane(1, with_addrs);
  EXPECT_EQ(panes.render_digest_misses(), 3u) << "three distinct cache keys";
  EXPECT_NE(ascii, dot);
  EXPECT_NE(ascii, addrs);

  // Each key replays from its own slot.
  EXPECT_EQ(panes.RenderPane(1), ascii);
  EXPECT_EQ(panes.RenderPane(1, vision::RenderOptions{}, "dot"), dot);
  EXPECT_EQ(panes.render_digest_hits(), 2u);
}

}  // namespace
}  // namespace dbg

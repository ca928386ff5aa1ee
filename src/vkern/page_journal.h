// Write-protect journal over an Arena: the dirty-page log primitive behind
// incremental refresh (docs/caching.md#incremental-invalidation).
//
// QEMU's live-migration dirty log (KVM_GET_DIRTY_LOG) flags guest pages
// written since the last sync by write-protecting them: the first write to a
// page traps, marks it and re-enables writes. A journal arms the same
// tracking on its arena (vkern::Arena's write-protect dirty log); on each
// generation change it syncs the arena, which write-protects only the pages
// written since the previous sync, and stamps those pages with the syncing
// generation. The cost of a sync therefore scales with the pages written,
// and each first write to a page pays one fault. Writes that landed between
// two syncs are attributed to the later sync's generation — conservative (a
// page is never reported clean while holding unseen writes), which is
// exactly what cache invalidation and memoization need. Several journals may
// track one arena; the last one destroyed disarms it.

#ifndef SRC_VKERN_PAGE_JOURNAL_H_
#define SRC_VKERN_PAGE_JOURNAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/vkern/arena.h"

namespace vkern {

class PageJournal {
 public:
  // Arms write tracking on `arena` at `generation`. Every page starts marked
  // "changed at `generation`", so a first query against an older epoch
  // degenerates to all-dirty (safe) rather than all-clean (wrong).
  PageJournal(const Arena* arena, uint64_t generation);

  PageJournal(const PageJournal&) = delete;
  PageJournal& operator=(const PageJournal&) = delete;

  // Indices of pages written after `since_generation` (page base = arena
  // base + index * kPageSize). Syncs the arena when `current_generation`
  // differs from the last synced generation, so repeated queries within one
  // generation are free.
  std::vector<uint32_t> DirtyPagesSince(uint64_t since_generation,
                                        uint64_t current_generation);

  size_t page_count() const { return last_changed_.size(); }
  // Generation of the last sync.
  uint64_t scanned_generation() const { return scanned_gen_; }
  // Generation at which `page` was last seen written (the baseline
  // generation if it never was under this journal).
  uint64_t last_changed(size_t page) const { return last_changed_[page]; }

  // Host-side work: syncs run (arming counts as one) and pages examined in
  // total (page_count() per sync).
  uint64_t scans() const { return scans_; }
  uint64_t pages_scanned() const { return pages_scanned_; }

 private:
  void Sync(uint64_t current_generation);

  Arena::WriteTracking tracking_;
  uint64_t scanned_gen_;
  std::vector<uint64_t> last_changed_;  // per-page last-changed generation
  uint64_t scans_ = 1;
  uint64_t pages_scanned_;
};

}  // namespace vkern

#endif  // SRC_VKERN_PAGE_JOURNAL_H_

#include "src/vkern/page_journal.h"

namespace vkern {

PageJournal::PageJournal(const Arena* arena, uint64_t generation)
    : tracking_(*arena),
      scanned_gen_(generation),
      last_changed_(arena->size() / kPageSize, generation),  // arena size is page-aligned
      pages_scanned_(last_changed_.size()) {}

void PageJournal::Sync(uint64_t current_generation) {
  for (uint32_t p : tracking_.SyncDirty()) {
    last_changed_[p] = current_generation;
  }
  scanned_gen_ = current_generation;
  scans_++;
  pages_scanned_ += last_changed_.size();
}

std::vector<uint32_t> PageJournal::DirtyPagesSince(uint64_t since_generation,
                                                   uint64_t current_generation) {
  if (current_generation != scanned_gen_) {
    Sync(current_generation);
  }
  std::vector<uint32_t> dirty;
  for (size_t p = 0; p < last_changed_.size(); ++p) {
    if (last_changed_[p] > since_generation) {
      dirty.push_back(static_cast<uint32_t>(p));
    }
  }
  return dirty;
}

}  // namespace vkern

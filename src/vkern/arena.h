// Simulated kernel physical memory.
//
// Every object in the simulated kernel lives inside one fixed, non-moving byte
// arena, so an object reference *is* a stable address that the debugger layer
// can read back as raw bytes — exactly how GDB sees a live kernel. The arena
// never reallocates.
//
// The arena is one page-aligned anonymous mapping, which lets it keep a
// write-protect dirty log, the mechanism behind KVM_GET_DIRTY_LOG: while
// armed, every arena page is read-only until its first write, which traps
// into a process-wide SIGSEGV handler that records the page as written and
// re-enables writes on it. SyncDirty() write-protects the written pages
// again, so its cost scales with the pages written, not with the arena.

#ifndef SRC_VKERN_ARENA_H_
#define SRC_VKERN_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace vkern {

class Arena {
 public:
  // Size must be a multiple of the page size (4 KiB).
  explicit Arena(size_t size_bytes);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  uint8_t* base() { return mem_; }
  const uint8_t* base() const { return mem_; }
  size_t size() const { return size_; }

  uint64_t base_addr() const { return reinterpret_cast<uint64_t>(mem_); }
  uint64_t end_addr() const { return base_addr() + size_; }

  // True if [addr, addr+len) lies wholly inside the arena.
  bool Contains(uint64_t addr, size_t len) const {
    return addr >= base_addr() && len <= size_ && addr - base_addr() <= size_ - len;
  }

  bool ContainsPtr(const void* ptr, size_t len = 1) const {
    return Contains(reinterpret_cast<uint64_t>(ptr), len);
  }

  void* AtAddr(uint64_t addr) { return mem_ + (addr - base_addr()); }
  const void* AtAddr(uint64_t addr) const { return mem_ + (addr - base_addr()); }

  // --- write tracking (the dirty log behind vkern::PageJournal) ---
  //
  // Tracking never changes the arena's contents, so it works on a const
  // arena. Arming, disarming and syncing are serialized by an internal
  // mutex; writes to the arena must not run concurrently with them (the
  // kernel is mutated only between debugger queries). If the host cannot
  // keep a page protected (mprotect ENOMEM, e.g. at vm.max_map_count), the
  // arena is unprotected as a whole and the next sync reports every page
  // written, which is conservative; that sync re-protects the arena in one
  // call.
  struct Tracker;  // arena.cc; reached from the fault handler

  // One observer of the arena's writes. The first live observer arms the
  // arena (write-protects all of it); the last one to go away disarms it.
  // An observer may outlive its arena: destroying it then does nothing.
  class WriteTracking {
   public:
    explicit WriteTracking(const Arena& arena);
    ~WriteTracking();

    WriteTracking(const WriteTracking&) = delete;
    WriteTracking& operator=(const WriteTracking&) = delete;

    // Write-protects every page written since the arena's previous sync
    // (by any observer) and returns the pages, as arena-relative indices in
    // ascending order, written since this observer's previous sync (or its
    // arming), so several observers each see every write.
    std::vector<uint32_t> SyncDirty();

   private:
    std::shared_ptr<Tracker> tracker_;
    uint64_t seq_;  // the arena sync sequence this observer has consumed
  };

  bool write_tracking_armed() const;
  // Pages write-protected again by syncs, in total.
  uint64_t pages_reprotected() const;

 private:
  size_t size_;
  uint8_t* mem_;
  std::shared_ptr<Tracker> tracker_;
};

inline constexpr size_t kPageSize = 4096;
inline constexpr size_t kPageShift = 12;

}  // namespace vkern

#endif  // SRC_VKERN_ARENA_H_

#include "src/vkern/arena.h"

#include <signal.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cerrno>
#include <mutex>
#include <new>

namespace vkern {

// Write-tracking state. The fault handler touches only `base`, `size`,
// `written` and `lost` (atomics and mprotect: async-signal-safe); everything
// else belongs to arming and syncing, under `mu`.
struct Arena::Tracker {
  Tracker(uint8_t* base_in, size_t size_in)
      : base(base_in), size(size_in), pages(size_in / kPageSize), words((pages + 63) / 64),
        written(new std::atomic<uint64_t>[words]()), synced_at(pages, 0) {}

  // Signal context. True when `addr` lies in this arena; the page is then
  // marked written and writable again.
  bool OnWriteFault(uintptr_t addr);
  // Write-protects the whole arena; on failure the arena stays writable and
  // tracking is lost until the next sync.
  void ProtectAll();
  // Makes the whole arena writable and marks tracking lost, so the next sync
  // reports every page. Widening protection merges the mapping's regions, so
  // this needs no new map entries even where per-page mprotect hit ENOMEM.
  bool Unprotect();
  // Write-protects pages [first, first + n) again after a sync.
  void Reprotect(size_t first, size_t n);
  void Disarm();

  uint8_t* const base;
  const size_t size;
  const size_t pages;
  const size_t words;
  std::unique_ptr<std::atomic<uint64_t>[]> written;  // one bit per page, set by faults
  std::atomic<bool> lost{false};  // protection lost: every page counts as written

  std::mutex mu;
  bool alive = true;                // false once the arena is unmapped
  int armed = 0;                    // live observers
  int slot = -1;                    // index in the armed registry, -1 if absent
  uint64_t seq = 0;                 // last sync sequence handed out
  std::vector<uint64_t> synced_at;  // per page: the last sync that found it written
  uint64_t reprotected = 0;
};

namespace {

// Lock-free registry of armed arenas, scanned by the fault handler. Slots
// are reused; `g_armed_end` only grows.
constexpr size_t kMaxArmed = 1024;
std::atomic<Arena::Tracker*> g_armed[kMaxArmed];
std::atomic<size_t> g_armed_end{0};
struct sigaction g_prev_segv;

void OnSegv(int sig, siginfo_t* info, void* ctx) {
  if (info->si_code == SEGV_ACCERR) {
    int saved_errno = errno;
    uintptr_t addr = reinterpret_cast<uintptr_t>(info->si_addr);
    size_t end = g_armed_end.load(std::memory_order_acquire);
    for (size_t i = 0; i < end; ++i) {
      Arena::Tracker* t = g_armed[i].load(std::memory_order_acquire);
      if (t != nullptr && t->OnWriteFault(addr)) {
        errno = saved_errno;
        return;
      }
    }
    errno = saved_errno;
  }
  // Not an armed arena page: hand the fault to the previous action.
  if ((g_prev_segv.sa_flags & SA_SIGINFO) != 0) {
    g_prev_segv.sa_sigaction(sig, info, ctx);
  } else if (g_prev_segv.sa_handler != SIG_DFL && g_prev_segv.sa_handler != SIG_IGN) {
    g_prev_segv.sa_handler(sig);
  } else {
    // Restore the default action; returning re-executes the faulting access,
    // which then terminates the process as if this handler never existed.
    struct sigaction dfl {};
    dfl.sa_handler = SIG_DFL;
    sigemptyset(&dfl.sa_mask);
    sigaction(sig, &dfl, nullptr);
  }
}

void InstallFaultHandler() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction sa {};
    sa.sa_sigaction = OnSegv;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
    sigaction(SIGSEGV, &sa, &g_prev_segv);
  });
}

int Register(Arena::Tracker* t) {
  for (size_t i = 0; i < kMaxArmed; ++i) {
    Arena::Tracker* empty = nullptr;
    if (g_armed[i].compare_exchange_strong(empty, t, std::memory_order_acq_rel)) {
      size_t end = g_armed_end.load(std::memory_order_relaxed);
      while (end <= i &&
             !g_armed_end.compare_exchange_weak(end, i + 1, std::memory_order_acq_rel)) {
      }
      return static_cast<int>(i);
    }
  }
  return -1;
}

// Page-granular protection needs host pages of exactly kPageSize.
bool HostPagesMatch() {
  static const bool match = sysconf(_SC_PAGESIZE) == static_cast<long>(kPageSize);
  return match;
}

}  // namespace

bool Arena::Tracker::OnWriteFault(uintptr_t addr) {
  uintptr_t first = reinterpret_cast<uintptr_t>(base);
  if (addr < first || addr - first >= size) {
    return false;
  }
  size_t page = (addr - first) >> kPageShift;
  written[page / 64].fetch_or(uint64_t{1} << (page % 64), std::memory_order_relaxed);
  if (mprotect(base + page * kPageSize, kPageSize, PROT_READ | PROT_WRITE) == 0) {
    return true;
  }
  return Unprotect();
}

bool Arena::Tracker::Unprotect() {
  lost.store(true, std::memory_order_relaxed);
  return mprotect(base, size, PROT_READ | PROT_WRITE) == 0;
}

void Arena::Tracker::ProtectAll() {
  if (slot < 0 && HostPagesMatch()) {
    slot = Register(this);
  }
  if (slot < 0 || mprotect(base, size, PROT_READ) != 0) {
    Unprotect();
  }
}

void Arena::Tracker::Reprotect(size_t first, size_t n) {
  if (n == 0 || lost.load(std::memory_order_relaxed)) {
    return;
  }
  if (mprotect(base + first * kPageSize, n * kPageSize, PROT_READ) != 0) {
    Unprotect();
    return;
  }
  reprotected += n;
}

void Arena::Tracker::Disarm() {
  // Writable before unregistering, so no write can fault unclaimed.
  mprotect(base, size, PROT_READ | PROT_WRITE);
  if (slot >= 0) {
    g_armed[slot].store(nullptr, std::memory_order_release);
    slot = -1;
  }
}

Arena::Arena(size_t size_bytes) : size_(size_bytes) {
  assert(size_bytes % kPageSize == 0 && "arena size must be page aligned");
  // Anonymous memory arrives zero-filled and page-aligned.
  void* mem = mmap(nullptr, size_bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                   -1, 0);
  if (mem == MAP_FAILED) {
    throw std::bad_alloc();
  }
  mem_ = static_cast<uint8_t*>(mem);
  tracker_ = std::make_shared<Tracker>(mem_, size_);
}

Arena::~Arena() {
  {
    std::lock_guard<std::mutex> lock(tracker_->mu);
    if (tracker_->armed > 0) {
      tracker_->Disarm();
    }
    tracker_->alive = false;
  }
  munmap(mem_, size_);
}

Arena::WriteTracking::WriteTracking(const Arena& arena) : tracker_(arena.tracker_) {
  Tracker& t = *tracker_;
  std::lock_guard<std::mutex> lock(t.mu);
  if (t.armed++ == 0) {
    InstallFaultHandler();
    for (size_t w = 0; w < t.words; ++w) {
      t.written[w].store(0, std::memory_order_relaxed);
    }
    t.lost.store(false, std::memory_order_relaxed);
    t.ProtectAll();
  }
  seq_ = t.seq;
}

Arena::WriteTracking::~WriteTracking() {
  Tracker& t = *tracker_;
  std::lock_guard<std::mutex> lock(t.mu);
  if (t.alive && --t.armed == 0) {
    t.Disarm();
  }
}

std::vector<uint32_t> Arena::WriteTracking::SyncDirty() {
  Tracker& t = *tracker_;
  std::lock_guard<std::mutex> lock(t.mu);
  if (!t.alive) {
    return {};
  }
  uint64_t seq = ++t.seq;
  if (t.lost.exchange(false, std::memory_order_relaxed)) {
    for (size_t w = 0; w < t.words; ++w) {
      t.written[w].store(0, std::memory_order_relaxed);
    }
    std::fill(t.synced_at.begin(), t.synced_at.end(), seq);
    t.ProtectAll();
    if (!t.lost.load(std::memory_order_relaxed)) {
      t.reprotected += t.pages;
    }
  } else {
    // Coalesce written pages into runs: one mprotect per run.
    size_t run = 0;
    size_t run_len = 0;
    for (size_t w = 0; w < t.words; ++w) {
      if (t.written[w].load(std::memory_order_relaxed) == 0) {
        continue;
      }
      uint64_t bits = t.written[w].exchange(0, std::memory_order_relaxed);
      while (bits != 0) {
        size_t page = w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        t.synced_at[page] = seq;
        if (run_len > 0 && run + run_len == page) {
          ++run_len;
        } else {
          t.Reprotect(run, run_len);
          run = page;
          run_len = 1;
        }
      }
    }
    t.Reprotect(run, run_len);
  }
  std::vector<uint32_t> pages;
  for (size_t p = 0; p < t.pages; ++p) {
    if (t.synced_at[p] > seq_) {
      pages.push_back(static_cast<uint32_t>(p));
    }
  }
  seq_ = seq;
  return pages;
}

bool Arena::write_tracking_armed() const {
  std::lock_guard<std::mutex> lock(tracker_->mu);
  return tracker_->armed > 0;
}

uint64_t Arena::pages_reprotected() const {
  std::lock_guard<std::mutex> lock(tracker_->mu);
  return tracker_->reprotected;
}

}  // namespace vkern

#include "src/vkern/slab.h"

#include <cassert>
#include <cstring>

namespace vkern {

namespace {

uint64_t AlignUp(uint64_t value, uint64_t align) { return (value + align - 1) & ~(align - 1); }

}  // namespace

SlabAllocator::SlabAllocator(BuddyAllocator* buddy)
    : buddy_(buddy), meta_cursor_(nullptr), meta_end_(nullptr) {
  cache_chain_ = static_cast<list_head*>(AllocMeta(sizeof(list_head), 8));
  INIT_LIST_HEAD(cache_chain_);
}

void* SlabAllocator::AllocMeta(size_t size, size_t align) {
  uint8_t* aligned = reinterpret_cast<uint8_t*>(
      AlignUp(reinterpret_cast<uint64_t>(meta_cursor_), align));
  if (meta_cursor_ == nullptr || aligned + size > meta_end_) {
    page* pg = buddy_->AllocPages(3);  // 32 KiB metadata chunk
    assert(pg != nullptr && "out of arena memory for metadata");
    meta_cursor_ = static_cast<uint8_t*>(buddy_->PageAddress(pg));
    meta_end_ = meta_cursor_ + (kPageSize << 3);
    aligned = meta_cursor_;
  }
  meta_cursor_ = aligned + size;
  std::memset(aligned, 0, size);
  return aligned;
}

kmem_cache* SlabAllocator::CreateCache(std::string_view name, uint32_t object_size,
                                       uint32_t align) {
  if (align == 0) {
    align = 8;
  }
  assert((align & (align - 1)) == 0 && "alignment must be a power of two");

  auto* cache = static_cast<kmem_cache*>(AllocMeta(sizeof(kmem_cache), alignof(kmem_cache)));
  size_t len = name.size() < sizeof(cache->name) - 1 ? name.size() : sizeof(cache->name) - 1;
  std::memcpy(cache->name, name.data(), len);
  cache->object_size = object_size;
  uint32_t stride = static_cast<uint32_t>(AlignUp(object_size < 8 ? 8 : object_size, align));
  cache->size = stride;
  cache->align = align;

  // Pick pages-per-slab so at least four objects fit (or one for big objects).
  uint32_t pages = 1;
  while (pages < 8) {
    uint64_t usable = pages * kPageSize - AlignUp(sizeof(slab), align);
    if (usable / stride >= 4 || (usable / stride >= 1 && stride > kPageSize)) {
      break;
    }
    pages <<= 1;
  }
  uint64_t usable = pages * kPageSize - AlignUp(sizeof(slab), align);
  cache->pages_per_slab = pages;
  cache->num = static_cast<uint32_t>(usable / stride);
  assert(cache->num >= 1);

  INIT_LIST_HEAD(&cache->slabs_partial);
  INIT_LIST_HEAD(&cache->slabs_full);
  INIT_LIST_HEAD(&cache->slabs_free);
  list_add_tail(&cache->cache_list, cache_chain_);
  return cache;
}

kmem_cache* SlabAllocator::FindCache(std::string_view name) const {
  for (list_head* p = cache_chain_->next; p != cache_chain_; p = p->next) {
    kmem_cache* cache = VKERN_CONTAINER_OF(p, kmem_cache, cache_list);
    if (name == cache->name) {
      return cache;
    }
  }
  return nullptr;
}

void* SlabAllocator::ObjectAt(kmem_cache* cache, slab* sl, uint32_t idx) {
  return static_cast<uint8_t*>(sl->s_mem) + static_cast<uint64_t>(idx) * cache->size;
}

uint32_t SlabAllocator::IndexOf(kmem_cache* cache, slab* sl, const void* obj) {
  uint64_t off = reinterpret_cast<uint64_t>(obj) - reinterpret_cast<uint64_t>(sl->s_mem);
  assert(off % cache->size == 0);
  return static_cast<uint32_t>(off / cache->size);
}

uint32_t* SlabAllocator::FreeIndexSlot(kmem_cache* cache, slab* sl, uint32_t idx) {
  return static_cast<uint32_t*>(ObjectAt(cache, sl, idx));
}

slab* SlabAllocator::GrowCache(kmem_cache* cache) {
  int order = 0;
  while ((1u << order) < cache->pages_per_slab) {
    ++order;
  }
  page* pg = buddy_->AllocPages(order);
  if (pg == nullptr) {
    return nullptr;
  }
  for (uint32_t i = 0; i < cache->pages_per_slab; ++i) {
    (pg + i)->flags |= PG_slab;
    (pg + i)->private_data = cache;  // page -> cache back-reference
  }
  auto* base = static_cast<uint8_t*>(buddy_->PageAddress(pg));
  auto* sl = reinterpret_cast<slab*>(base);
  std::memset(sl, 0, sizeof(slab));
  sl->cache = cache;
  sl->pg = pg;
  sl->s_mem = reinterpret_cast<void*>(
      AlignUp(reinterpret_cast<uint64_t>(base) + sizeof(slab), cache->align));
  sl->inuse = 0;
  // Build the embedded free-index chain and poison the objects.
  sl->free_idx = 0;
  for (uint32_t i = 0; i < cache->num; ++i) {
    void* obj = ObjectAt(cache, sl, i);
    std::memset(obj, kSlabPoison, cache->size);
    *static_cast<uint32_t*>(obj) = (i + 1 < cache->num) ? i + 1 : kSlabFreeEnd;
  }
  list_add_tail(&sl->list, &cache->slabs_free);
  cache->total_objects += cache->num;
  return sl;
}

void* SlabAllocator::Alloc(kmem_cache* cache) {
  slab* sl = nullptr;
  if (!list_empty(&cache->slabs_partial)) {
    sl = VKERN_CONTAINER_OF(cache->slabs_partial.next, slab, list);
  } else if (!list_empty(&cache->slabs_free)) {
    sl = VKERN_CONTAINER_OF(cache->slabs_free.next, slab, list);
  } else {
    sl = GrowCache(cache);
    if (sl == nullptr) {
      return nullptr;
    }
  }
  uint32_t idx = sl->free_idx;
  assert(idx != kSlabFreeEnd);
  void* obj = ObjectAt(cache, sl, idx);
  sl->free_idx = *static_cast<uint32_t*>(obj);
  sl->inuse++;
  cache->active_objects++;
  std::memset(obj, 0, cache->size);

  // Relink only when the slab changes lists (free -> partial, -> full): a
  // partial slab keeps serving from the list head until it fills, as in
  // Linux, instead of rotating on every allocation and rewriting its
  // neighbours' list links (and so dirtying their pages).
  if (sl->inuse == 1 || sl->inuse == cache->num) {
    list_del_init(&sl->list);
    list_add_tail(&sl->list, sl->inuse == cache->num ? &cache->slabs_full
                                                      : &cache->slabs_partial);
  }
  return obj;
}

void SlabAllocator::Free(kmem_cache* cache, void* obj) {
  // Slab blocks are buddy allocations aligned to their own size (buddy blocks
  // are naturally aligned in pfn space), so masking the object address down to
  // the block boundary yields the slab descriptor at the block head.
  uint64_t block_bytes = static_cast<uint64_t>(cache->pages_per_slab) * kPageSize;
  auto* sl = reinterpret_cast<slab*>(reinterpret_cast<uint64_t>(obj) & ~(block_bytes - 1));
  assert(sl->cache == cache && "object freed to the wrong cache");
  uint32_t idx = IndexOf(cache, sl, obj);

  std::memset(obj, kSlabPoison, cache->size);
  *FreeIndexSlot(cache, sl, idx) = sl->free_idx;
  sl->free_idx = idx;
  sl->inuse--;
  cache->active_objects--;

  // As in Alloc: relink only on a list change (full -> partial, -> free).
  if (sl->inuse == 0 || sl->inuse + 1 == cache->num) {
    list_del_init(&sl->list);
    list_add_tail(&sl->list, sl->inuse == 0 ? &cache->slabs_free : &cache->slabs_partial);
  }
}

bool SlabAllocator::IsPoisoned(const void* obj, uint32_t object_size) {
  const auto* bytes = static_cast<const uint8_t*>(obj);
  // Skip the freelist word at the front.
  for (uint32_t i = sizeof(uint32_t); i < object_size; ++i) {
    if (bytes[i] != kSlabPoison) {
      return false;
    }
  }
  return object_size > sizeof(uint32_t);
}

uint64_t SlabAllocator::total_active_objects() const {
  uint64_t total = 0;
  for (list_head* p = cache_chain_->next; p != cache_chain_; p = p->next) {
    total += VKERN_CONTAINER_OF(p, kmem_cache, cache_list)->active_objects;
  }
  return total;
}

}  // namespace vkern

#include "cache/metadata_cache.hpp"

#include <stdexcept>

namespace farmer {

MetadataCache::MetadataCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

bool MetadataCache::access(FileId f) {
  if (!contains(f)) {
    stats_.demand.miss();
    return false;
  }
  const std::uint32_t i = f.value();
  Slot& slot = slots_[i];
  if (slot.unused_prefetch) {  // first demand hit on a prefetched entry
    ++stats_.prefetch_used;
    slot.unused_prefetch = false;
  }
  stats_.demand.hit();
  if (head_ != i) {
    unlink(i);
    push_front(i);
  }
  return true;
}

void MetadataCache::insert_demand(FileId f) {
  if (!contains(f)) insert(f, /*prefetched=*/false);
}

bool MetadataCache::insert_prefetch(FileId f) {
  if (contains(f)) return false;
  insert(f, /*prefetched=*/true);
  ++stats_.prefetch_inserted;
  return true;
}

void MetadataCache::erase(FileId f) {
  if (contains(f)) remove(f.value());
}

void MetadataCache::insert(FileId f, bool prefetched) {
  // The invalid id doubles as the list's end marker, and indexing by it
  // would size the table to 2^32 slots.
  if (!f.valid()) throw std::invalid_argument("MetadataCache: invalid FileId");
  if (size_ >= capacity_) {
    remove(tail_);
    ++stats_.evictions;
  }
  const std::uint32_t i = f.value();
  if (i >= slots_.size()) slots_.resize(std::size_t{i} + 1);
  Slot& slot = slots_[i];
  slot.resident = true;
  slot.unused_prefetch = prefetched;
  push_front(i);
  ++size_;
}

void MetadataCache::remove(std::uint32_t i) noexcept {
  if (slots_[i].unused_prefetch) ++stats_.prefetch_evicted_unused;
  unlink(i);
  slots_[i] = Slot{};
  --size_;
}

void MetadataCache::unlink(std::uint32_t i) noexcept {
  const Slot& slot = slots_[i];
  (slot.prev == kNil ? head_ : slots_[slot.prev].next) = slot.next;
  (slot.next == kNil ? tail_ : slots_[slot.next].prev) = slot.prev;
}

void MetadataCache::push_front(std::uint32_t i) noexcept {
  Slot& slot = slots_[i];
  slot.prev = kNil;
  slot.next = head_;
  (head_ == kNil ? tail_ : slots_[head_].prev) = i;
  head_ = i;
}

}  // namespace farmer

#include "cache/metadata_cache.hpp"

namespace farmer {

MetadataCache::MetadataCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  slots_.reserve(capacity_);
}

bool MetadataCache::access(FileId f) {
  auto it = slots_.find(f);
  if (it == slots_.end()) {
    stats_.demand.miss();
    return false;
  }
  Slot& slot = it->second;
  if (slot.unused_prefetch) {  // first demand hit on a prefetched entry
    ++stats_.prefetch_used;
    slot.unused_prefetch = false;
  }
  stats_.demand.hit();
  order_.splice(order_.begin(), order_, slot.pos);
  return true;
}

void MetadataCache::insert_demand(FileId f) {
  if (!slots_.contains(f)) insert(f, /*prefetched=*/false);
}

bool MetadataCache::insert_prefetch(FileId f) {
  if (slots_.contains(f)) return false;
  insert(f, /*prefetched=*/true);
  ++stats_.prefetch_inserted;
  return true;
}

bool MetadataCache::contains(FileId f) const noexcept {
  return slots_.contains(f);
}

void MetadataCache::erase(FileId f) {
  if (auto it = slots_.find(f); it != slots_.end()) remove(it);
}

void MetadataCache::insert(FileId f, bool prefetched) {
  if (slots_.size() >= capacity_) {
    remove(slots_.find(order_.back()));
    ++stats_.evictions;
  }
  order_.push_front(f);
  slots_.emplace(f, Slot{order_.begin(), prefetched});
}

void MetadataCache::remove(std::unordered_map<FileId, Slot>::iterator it) {
  if (it->second.unused_prefetch) ++stats_.prefetch_evicted_unused;
  order_.erase(it->second.pos);
  slots_.erase(it);
}

}  // namespace farmer

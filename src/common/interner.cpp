#include "common/interner.hpp"

#include <cassert>

namespace farmer {

Interner::Interner() {
  strings_.reserve(1024);
  index_.reserve(1024);
}

TokenId Interner::intern(std::string_view s) {
  // Transparent lookup would avoid the temporary; kept simple because
  // interning is off the mining hot path (each string is seen once).
  auto it = index_.find(std::string(s));
  if (it != index_.end()) return it->second;
  const TokenId id(static_cast<std::uint32_t>(strings_.size()));
  strings_.emplace_back(s);
  index_.emplace(strings_.back(), id);
  return id;
}

TokenId Interner::lookup(std::string_view s) const {
  auto it = index_.find(std::string(s));
  return it == index_.end() ? TokenId() : it->second;
}

std::string_view Interner::resolve(TokenId id) const {
  assert(id.valid() && id.value() < strings_.size());
  return strings_[id.value()];
}

std::size_t Interner::footprint_bytes() const noexcept {
  std::size_t bytes = sizeof(*this);
  for (const auto& s : strings_) {
    bytes += sizeof(std::string) + s.capacity();
    // Hash-map node: string key (shared semantics counted once), id, bucket
    // pointer. Approximate with the libstdc++ node layout.
    bytes += sizeof(void*) * 2 + sizeof(TokenId) + s.capacity();
  }
  bytes += index_.bucket_count() * sizeof(void*);
  return bytes;
}

}  // namespace farmer

// Hash helpers shared across modules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <utility>

namespace farmer {

/// boost-style hash_combine with a 64-bit mix.
inline void hash_combine(std::size_t& seed, std::size_t v) noexcept {
  seed ^= v + 0x9E3779B97F4A7C15ull + (seed << 6) + (seed >> 2);
}

/// Hash for an (id, id) pair — used for edge maps keyed by (file, file).
struct PairHash {
  template <typename A, typename B>
  std::size_t operator()(const std::pair<A, B>& p) const noexcept {
    std::size_t seed = std::hash<A>{}(p.first);
    hash_combine(seed, std::hash<B>{}(p.second));
    return seed;
  }
};

/// 64-bit finaliser (xxhash/murmur style) for integer keys.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

/// The word loop behind every on-disk checksum (WAL records, checkpoint
/// and manifest bodies, v3 trace files): folds each whole 8-byte word of
/// `data` into the mix64 chain `h` and returns the chain. The last
/// `len % 8` bytes come back zero-padded in `tail`; each format folds them,
/// and the total length, in its own finishing step.
[[nodiscard]] inline std::uint64_t mix_words(std::uint64_t h,
                                             const void* data,
                                             std::size_t len,
                                             std::uint64_t& tail) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (; len >= 8; p += 8, len -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    h = mix64(h ^ w);
  }
  tail = 0;
  if (len > 0) std::memcpy(&tail, p, len);
  return h;
}

/// mix_words with a partial tail word folded as one more word. The caller
/// folds the length (into the seed or a finishing step) so the zero
/// padding cannot alias a longer input.
[[nodiscard]] inline std::uint64_t mix_bytes(std::uint64_t h,
                                             const void* data,
                                             std::size_t len) noexcept {
  std::uint64_t tail;
  h = mix_words(h, data, len, tail);
  return len % 8 != 0 ? mix64(h ^ tail) : h;
}

}  // namespace farmer

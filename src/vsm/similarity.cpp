#include "vsm/similarity.hpp"

#include <algorithm>

namespace farmer {

std::size_t multiset_intersection(const TokenId* a, std::size_t na,
                                  const TokenId* b, std::size_t nb) noexcept {
  // Branch-light linear merge. Every iteration advances at least one
  // cursor; the comparisons compile to flag arithmetic instead of a
  // three-way branch the predictor must guess per token. A match advances
  // both cursors, so x counts min(count_a(x), count_b(x)) times.
  std::size_t common = 0;
  std::size_t i = 0, j = 0;
  while (i < na && j < nb) {
    const TokenId x = a[i];
    const TokenId y = b[j];
    common += static_cast<std::size_t>(x == y);
    i += static_cast<std::size_t>(!(y < x));
    j += static_cast<std::size_t>(!(x < y));
  }
  return common;
}

double path_similarity(std::span<const TokenId> a,
                       std::span<const TokenId> b) noexcept {
  if (a.empty() || b.empty()) return 0.0;
  const std::size_t common =
      multiset_intersection(a.data(), a.size(), b.data(), b.size());
  const std::size_t denom = std::max(a.size(), b.size());
  return static_cast<double>(common) / static_cast<double>(denom);
}

double similarity(const Signature& a, const Signature& b) noexcept {
  const std::size_t ca = a.item_count();
  const std::size_t cb = b.item_count();
  if (ca == 0 || cb == 0) return 0.0;
  const std::span<const TokenId> ia = a.items();
  const std::span<const TokenId> ib = b.items();
  double common = static_cast<double>(
      multiset_intersection(ia.data(), ia.size(), ib.data(), ib.size()));
  if (a.ipa_path() && b.ipa_path())
    common += path_similarity(a.path_sorted(), b.path_sorted());
  const auto denom = static_cast<double>(std::max(ca, cb));
  return common / denom;
}

double similarity(const SemanticVector& a, const SemanticVector& b,
                  AttributeMask mask, PathMode mode) {
  return similarity(build_signature(a, mask, mode),
                    build_signature(b, mask, mode));
}

}  // namespace farmer

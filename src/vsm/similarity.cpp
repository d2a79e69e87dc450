#include "vsm/similarity.hpp"

#include <algorithm>
#include <utility>

namespace farmer {

namespace {
/// Size ratio beyond which the per-item galloping search beats the linear
/// merge: the merge is O(na + nb) while galloping is O(na * log nb), so the
/// crossover sits where nb/na outruns the log.
constexpr std::size_t kGallopSkew = 16;
}  // namespace

std::size_t multiset_intersection(const TokenId* a, std::size_t na,
                                  const TokenId* b, std::size_t nb) noexcept {
  // Intersection is symmetric; keep `a` the smaller sequence so the skew
  // check and the gallop both run off the short side.
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  if (na == 0) return 0;
  std::size_t common = 0;
  if (nb >= kGallopSkew * na) {
    // Skewed sizes: for each a[i], exponential-search b for the first
    // element >= a[i], resuming where the previous item left off. Matched
    // elements of b are consumed (j advances past them), which preserves
    // the multiset semantics: x counts min(count_a(x), count_b(x)) times.
    std::size_t j = 0;
    for (std::size_t i = 0; i < na && j < nb; ++i) {
      std::size_t lo = j, hi = j, step = 1;
      while (hi < nb && b[hi] < a[i]) {
        lo = hi + 1;
        hi += step;
        step <<= 1;
      }
      const TokenId* pos =
          std::lower_bound(b + lo, b + std::min(hi, nb), a[i]);
      j = static_cast<std::size_t>(pos - b);
      if (j < nb && b[j] == a[i]) {
        ++common;
        ++j;
      }
    }
    return common;
  }
  // Comparable sizes: branch-light linear merge. Every iteration advances
  // at least one cursor; the comparisons compile to flag arithmetic instead
  // of a three-way branch the predictor must guess per token.
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

// Semantic Distance: the VSM similarity function of Section 3.2.1.
//
//   sim(A, B) = |A ∩ B| / |max(A, B)|
//
// where A and B are semantic vectors treated as multisets of items, the
// intersection is the multiset intersection, and |max(A,B)| is the larger
// cardinality. Under IPA the file path contributes a *fractional* item whose
// value is the directory-component similarity, reproducing the paper's
// Table 2 worked example exactly:
//
//   DPA: sim(A,B) = 5/7,  sim(A,C) = sim(B,C) = 1/7
//   IPA: sim(A,B) = 2.75/4, sim(A,C) = sim(B,C) = 0.25/4
#pragma once

#include <span>

#include "vsm/semantic_vector.hpp"

namespace farmer {

/// Multiset intersection size of two *sorted* token ranges. O(n+m).
[[nodiscard]] std::size_t multiset_intersection(const TokenId* a,
                                                std::size_t na,
                                                const TokenId* b,
                                                std::size_t nb) noexcept;

/// Directory similarity used by IPA: multiset intersection of path
/// components divided by the larger component count. Both inputs sorted.
[[nodiscard]] double path_similarity(std::span<const TokenId> a,
                                     std::span<const TokenId> b) noexcept;

/// Semantic Distance between two prebuilt signatures (same mask/mode).
/// Returns a value in [0, 1]; 0 when either signature is empty.
[[nodiscard]] double similarity(const Signature& a,
                                const Signature& b) noexcept;

/// Convenience overload building signatures on the fly (tests, examples).
[[nodiscard]] double similarity(const SemanticVector& a,
                                const SemanticVector& b, AttributeMask mask,
                                PathMode mode);

}  // namespace farmer

// Semantic vectors: the VSM representation of a file's request context.
//
// A semantic vector holds one interned token per scalar attribute (user,
// process, host, device, fid) plus the interned components of the file path
// when the trace provides one. Tokens live in a single global interner so a
// user name appearing as a path component ("user1" in /home/user1/...)
// matches the user attribute token — exactly the multiset semantics of the
// paper's Table 1 example.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "common/interner.hpp"
#include "common/small_vector.hpp"
#include "common/types.hpp"
#include "vsm/attribute.hpp"

namespace farmer {

/// Raw semantic vector of one file as of its most recent access.
struct SemanticVector {
  TokenId user;     ///< user-name token (invalid if unknown)
  TokenId process;  ///< process/program token
  TokenId host;     ///< host-name token
  TokenId dev;      ///< device token (INS/RES "File ID" locality part)
  TokenId fid;      ///< per-file token (INS/RES "File ID" identity part)
  SmallVector<TokenId, 8> path_components;  ///< path dirs + filename; empty
                                            ///< when the trace has no paths

  [[nodiscard]] bool has_path() const noexcept {
    return !path_components.empty();
  }
};

/// Path handling mode for the similarity computation (Section 3.2.1).
enum class PathMode {
  kDivided,     ///< DPA: each path component is an independent vector item
  kIntegrated,  ///< IPA: the whole path is one item valued by dir similarity
};

/// A `Signature` is a semantic vector pre-processed for one experiment
/// configuration (attribute mask + path mode): scalar items are gathered and
/// sorted once so pairwise similarity is a linear merge. Building signatures
/// once per access (instead of per pair) keeps CoMiner's per-request cost at
/// O(window * tokens).
///
/// One token array holds both runs: the sorted scalar (and DPA path) items,
/// then the sorted IPA path components, the last `path_len` tokens. Every
/// file's block stores its signature, so one array (a 40-byte SmallVector
/// of 8 inline tokens) instead of two keeps the block small; a signature
/// without an IPA path, such as any signature of a trace without paths,
/// stores no path array. No signature of the four paper traces holds more
/// than 7 tokens, under IPA or DPA, so none spills
/// (`Signature.PaperTracesStayInline`); a deeper path spills to the heap.
struct Signature {
  using Tokens = SmallVector<TokenId, 8>;
  Tokens tokens;               ///< items(), then path_sorted()
  std::uint32_t path_len = 0;  ///< IPA path components at the end

  /// Sorted scalar (and DPA path) items.
  [[nodiscard]] std::span<const TokenId> items() const noexcept {
    return {tokens.data(), tokens.size() - path_len};
  }
  /// Sorted IPA path components; empty unless the path is one item.
  [[nodiscard]] std::span<const TokenId> path_sorted() const noexcept {
    return {tokens.data() + (tokens.size() - path_len), path_len};
  }
  /// True when the path participates as one (fractional) item (IPA).
  [[nodiscard]] bool ipa_path() const noexcept { return path_len != 0; }

  /// Total item count, with the IPA path counting as a single item.
  [[nodiscard]] std::size_t item_count() const noexcept {
    return items().size() + (ipa_path() ? 1 : 0);
  }

  /// Heap the signature owns (the token array spilled past its inline size).
  [[nodiscard]] std::size_t heap_bytes() const noexcept {
    return tokens.heap_bytes();
  }
};

/// Builds the signature of `sv` under `mask`/`mode`.
[[nodiscard]] Signature build_signature(const SemanticVector& sv,
                                        AttributeMask mask, PathMode mode);

/// Convenience: parse "/home/user1/paper/a" into interned components.
/// Consecutive separators are collapsed; a trailing separator is ignored.
void intern_path_components(std::string_view path, Interner& interner,
                            SmallVector<TokenId, 8>& out);

}  // namespace farmer

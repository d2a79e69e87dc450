#include "vsm/semantic_vector.hpp"

#include <algorithm>

namespace farmer {

namespace {

void push_if_valid(Signature::Tokens& tokens, TokenId t) {
  if (t.valid()) tokens.push_back(t);
}

}  // namespace

Signature build_signature(const SemanticVector& sv, AttributeMask mask,
                          PathMode mode) {
  Signature sig;
  auto& tokens = sig.tokens;
  if (mask.has(Attribute::kUser)) push_if_valid(tokens, sv.user);
  if (mask.has(Attribute::kProcess)) push_if_valid(tokens, sv.process);
  if (mask.has(Attribute::kHost)) push_if_valid(tokens, sv.host);
  if (mask.has(Attribute::kFileId)) {
    push_if_valid(tokens, sv.dev);
    push_if_valid(tokens, sv.fid);
  }
  const bool with_path = mask.has(Attribute::kPath) && sv.has_path();
  // DPA: every path component is an ordinary item.
  if (with_path && mode == PathMode::kDivided)
    for (TokenId t : sv.path_components) tokens.push_back(t);
  std::sort(tokens.begin(), tokens.end());
  if (with_path && mode == PathMode::kIntegrated) {
    // IPA: the components follow the items as their own sorted run.
    const std::size_t items = tokens.size();
    for (TokenId t : sv.path_components) tokens.push_back(t);
    std::sort(tokens.begin() + static_cast<std::ptrdiff_t>(items),
              tokens.end());
    sig.path_len = static_cast<std::uint32_t>(sv.path_components.size());
  }
  return sig;
}

void intern_path_components(std::string_view path, Interner& interner,
                            SmallVector<TokenId, 8>& out) {
  out.clear();
  std::size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') ++i;
    std::size_t j = i;
    while (j < path.size() && path[j] != '/') ++j;
    if (j > i) out.push_back(interner.intern(path.substr(i, j - i)));
    i = j;
  }
}

}  // namespace farmer

#include "layout/grouper.hpp"

#include <numeric>

namespace farmer {

UnionFind::UnionFind(std::size_t n) : parent_(n), sizes_(n, 1) {
  std::iota(parent_.begin(), parent_.end(), 0u);
}

std::uint32_t UnionFind::find(std::uint32_t x) noexcept {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

bool UnionFind::merge(std::uint32_t a, std::uint32_t b,
                      std::size_t cap) noexcept {
  a = find(a);
  b = find(b);
  if (a == b) return true;
  if (sizes_[a] + sizes_[b] > cap) return false;
  if (sizes_[a] < sizes_[b]) std::swap(a, b);
  parent_[b] = a;
  sizes_[a] += sizes_[b];
  return true;
}

GroupingResult build_groups(const CorrelationMiner& model,
                            const TraceDictionary& dict,
                            const GrouperConfig& cfg) {
  const std::size_t n = dict.files.size();
  UnionFind uf(n);

  for (std::uint32_t f = 0; f < n; ++f) {
    if (cfg.read_only_only && !dict.files[f].read_only) continue;
    for (const Correlator& c : model.snapshot(FileId(f))) {
      const std::uint32_t succ = c.file.value();
      if (succ >= n) continue;
      if (cfg.read_only_only && !dict.files[succ].read_only) continue;
      uf.merge(f, succ, cfg.max_group_files);
    }
  }

  GroupingResult result;
  result.group_of.resize(n);
  std::vector<std::vector<FileId>> by_rep(n);
  for (std::uint32_t f = 0; f < n; ++f) {
    const std::uint32_t rep = uf.find(f);
    result.group_of[f] = rep;
    by_rep[rep].push_back(FileId(f));
  }
  for (auto& members : by_rep) {
    if (members.size() < 2) continue;
    result.grouped_files += members.size();
    result.groups.push_back(std::move(members));
  }
  return result;
}

}  // namespace farmer

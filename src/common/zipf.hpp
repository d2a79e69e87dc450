// Zipf-distributed sampling over a finite population.
//
// File popularity in every studied trace is heavy-tailed; the workload
// generators draw file/group ranks from Zipf(s, N) with `ZipfTable`: O(N)
// setup, O(log N) draw via CDF inversion, exact.
#pragma once

#include <cassert>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/rng.hpp"

namespace farmer {

/// Exact Zipf sampler backed by an explicit cumulative table.
class ZipfTable {
 public:
  /// Ranks are 0-based: rank 0 has probability proportional to 1^-s.
  ZipfTable(std::size_t n, double s) : cdf_(n) {
    assert(n > 0);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = acc;
    }
    const double inv = 1.0 / acc;
    for (auto& c : cdf_) c *= inv;
    cdf_[n - 1] = 1.0;  // guard against accumulated rounding
  }

  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

  /// Draws a 0-based rank.
  std::size_t sample(Rng& rng) const noexcept {
    const double u = rng.next_double();
    // Branchless-ish binary search over the CDF.
    std::size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (cdf_[mid] < u)
        lo = mid + 1;
      else
        hi = mid;
    }
    return lo;
  }

  /// Probability mass of a rank (for analysis/tests).
  [[nodiscard]] double pmf(std::size_t rank) const noexcept {
    assert(rank < cdf_.size());
    return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace farmer

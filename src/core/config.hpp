// FARMER model configuration (Section 3 parameters). `validate()` lists
// every violated constraint, and `make_miner` refuses a config that fails
// it, so miners never silently accept garbage.
#pragma once

#include <cstddef>
#include <string>

#include "graph/access_window.hpp"
#include "vsm/attribute.hpp"
#include "vsm/semantic_vector.hpp"

namespace farmer {

struct FarmerConfig {
  /// Weight of the semantic factor in R(x,y) = p*sim + (1-p)*F.
  /// The paper finds p = 0.7 best (Fig. 3); p = 0 reduces FARMER to Nexus.
  double p = 0.7;

  /// Validity threshold for the correlation degree ("max_strength",
  /// Section 3.2.4). Pairs with R below it are filtered from the
  /// Correlator List. The paper settles on 0.4 (Fig. 6).
  double max_strength = 0.4;

  /// Look-ahead window length for access-sequence mining.
  std::size_t window = 4;

  /// Linear Decremented Assignment step: a successor at distance d
  /// contributes 1 - (d-1)*lda_delta to N_AB (1.0, 0.9, 0.8, ... in the
  /// paper's example).
  double lda_delta = 0.1;

  /// Semantic attributes participating in similarity (Table 5 rows).
  AttributeMask attributes = AttributeMask::all_with_path();

  /// File-path handling; the paper selects IPA (Section 3.2.1).
  PathMode path_mode = PathMode::kIntegrated;

  /// Bounded successor set per graph node (memory/accuracy trade-off).
  std::size_t max_successors = 16;

  /// Maximum Correlator List length per file.
  std::size_t correlator_capacity = 8;

  /// Empty string when every constraint holds; otherwise all violations,
  /// "; "-joined.
  [[nodiscard]] std::string validate() const;
};

inline std::string FarmerConfig::validate() const {
  std::string errors;
  auto fail = [&errors](const std::string& msg) {
    if (!errors.empty()) errors += "; ";
    errors += msg;
  };
  if (!(p >= 0.0 && p <= 1.0)) fail("p must be in [0, 1]");
  if (!(max_strength >= 0.0 && max_strength <= 1.0))
    fail("max_strength must be in [0, 1]");
  if (window == 0) fail("window must be >= 1");
  // The window is a fixed ring; a longer one would silently mine only the
  // newest kMaxWindow files while size() reported the configured length.
  if (window > AccessWindow::kMaxWindow)
    fail("window must be <= " + std::to_string(AccessWindow::kMaxWindow) +
         " (AccessWindow::kMaxWindow)");
  if (lda_delta < 0.0) fail("lda_delta must be >= 0");
  // Every distance inside the window must keep a nonnegative LDA
  // contribution: 1 - (window-1)*lda_delta >= 0, i.e. the configured window
  // may not contain dead slots.
  else if (window > 0 &&
           lda_delta * static_cast<double>(window - 1) > 1.0)
    fail("lda_delta * (window - 1) must be <= 1 "
         "(window slots would contribute negative weight)");
  if (max_successors == 0) fail("max_successors must be >= 1");
  if (correlator_capacity == 0) fail("correlator_capacity must be >= 1");
  return errors;
}

}  // namespace farmer

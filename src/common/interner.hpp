// String interning.
//
// Semantic vectors compare attribute values (user names, path components,
// host names) millions of times while mining; comparing interned 32-bit
// tokens instead of strings turns every comparison into an integer compare
// and every vector into a flat array of ints (Per.16, Per.19).
//
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace farmer {

/// Maps strings to dense TokenIds and back. Not thread-safe.
class Interner {
 public:
  Interner();

  /// Returns the id for `s`, creating it on first sight.
  TokenId intern(std::string_view s);

  /// Returns the id for `s` or an invalid id if never interned. Const.
  [[nodiscard]] TokenId lookup(std::string_view s) const;

  /// Resolves an id back to its string. Precondition: id was produced by
  /// this interner.
  [[nodiscard]] std::string_view resolve(TokenId id) const;

  [[nodiscard]] std::size_t size() const noexcept { return strings_.size(); }

  /// Approximate heap footprint in bytes (for Table-4 style accounting).
  [[nodiscard]] std::size_t footprint_bytes() const noexcept;

 private:
  std::unordered_map<std::string, TokenId> index_;
  std::vector<std::string> strings_;
};

}  // namespace farmer

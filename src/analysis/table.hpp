// Console table formatting shared by the bench harnesses, so every
// reproduced table/figure prints in a uniform, diff-friendly layout (the
// golden files under bench/golden/ pin those bytes).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace farmer {

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  /// Adds a row; cells beyond the header count are dropped, missing cells
  /// render empty.
  void add_row(std::vector<std::string> cells);

  /// Renders with column auto-sizing, a header rule, and 2-space padding.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints a figure/table banner: id, caption, and the paper's expectation.
void print_experiment_header(std::ostream& os, const std::string& id,
                             const std::string& caption,
                             const std::string& expectation);

}  // namespace farmer

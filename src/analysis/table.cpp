#include "analysis/table.hpp"

#include <algorithm>
#include <ostream>

namespace farmer {

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << cells[c];
      if (c + 1 < cells.size())
        os << std::string(widths[c] - cells[c].size() + 2, ' ');
    }
    os << '\n';
  };
  print_row(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c)
    total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

void print_experiment_header(std::ostream& os, const std::string& id,
                             const std::string& caption,
                             const std::string& expectation) {
  os << '\n'
     << "================================================================\n"
     << id << ": " << caption << '\n';
  if (!expectation.empty()) os << "paper expectation: " << expectation << '\n';
  os << "================================================================\n";
}

}  // namespace farmer

// table.hpp — fixed-width ASCII tables for the benchmark harness.
//
// Every experiment binary regenerates one "table" or "figure" of the paper.
// Tables render as aligned monospace columns; "figures" render as the series
// of (x, y...) rows that would be plotted, which is the convention used by
// the EXPERIMENTS.md comparison. A final `verdict` row states whether the
// paper's qualitative prediction held (PASS/FAIL), so the whole bench suite
// is greppable for regressions.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace stosched {

/// Column-aligned ASCII table with a title, header and typed cells.
class Table {
 public:
  explicit Table(std::string title);

  /// Define the column headers. Must be called before any add_row.
  Table& columns(std::vector<std::string> names);

  /// Append a row of preformatted cells; size must match the header.
  Table& add_row(std::vector<std::string> cells);

  /// Append a free-form annotation line rendered under the table body.
  Table& note(std::string text);

  /// Record the PASS/FAIL verdict for the experiment's shape check.
  Table& verdict(bool pass, std::string what);

  /// Render to a stream (column widths computed from content).
  void print(std::ostream& os) const;

  /// One recorded PASS/FAIL check.
  struct Verdict {
    bool pass = false;
    std::string what;
  };

  // Structured accessors for machine consumers (the JSON bench exporter).
  [[nodiscard]] const std::string& title() const noexcept { return title_; }
  [[nodiscard]] const std::vector<std::string>& header() const noexcept {
    return header_;
  }
  [[nodiscard]] const std::vector<std::vector<std::string>>& row_cells()
      const noexcept {
    return rows_;
  }
  [[nodiscard]] const std::vector<std::string>& notes() const noexcept {
    return notes_;
  }
  [[nodiscard]] const std::vector<Verdict>& verdicts() const noexcept {
    return verdicts_;
  }

  [[nodiscard]] bool all_checks_passed() const noexcept { return all_pass_; }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::string> notes_;
  std::vector<Verdict> verdicts_;
  bool all_pass_ = true;
};

/// Format helpers shared by bench binaries.
std::string fmt(double x, int precision = 4);
std::string fmt_pct(double x, int precision = 2);           // 0.123 -> "12.30%"
std::string fmt_ci(double value, double half, int precision = 4);  // "a ± b"

}  // namespace stosched

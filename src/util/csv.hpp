// CSV and fixed-width console table output.
//
// Every bench binary emits (a) a human-readable table matching the paper's
// layout and (b) a machine-readable CSV next to it, so figures can be
// re-plotted without re-running the sweep.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace dc {

/// `text` as one CSV field: wrapped in double quotes, each quote doubled,
/// when it holds a comma, a quote or a newline, or whenever `always` is
/// set; otherwise as it is.
std::string csv_quote(std::string_view text, bool always = false);

/// Streams rows to a CSV file. Fields are quoted by csv_quote.
class CsvWriter {
 public:
  /// Opens (truncates) `path`. Check ok() before writing.
  explicit CsvWriter(const std::string& path);

  bool ok() const { return out_.good(); }

  CsvWriter& cell(std::string_view text);
  CsvWriter& cell(std::int64_t value);
  CsvWriter& cell(double value, int precision = 6);
  /// Ends the current row.
  void end_row();

  void header(const std::vector<std::string>& names);

 private:
  std::ofstream out_;
  bool row_started_ = false;
};

/// Parsed CSV contents: one vector of fields per row.
using CsvRows = std::vector<std::vector<std::string>>;

struct CsvParseOptions {
  /// Require every row to have as many fields as the first row; a ragged
  /// row is reported with its line number.
  bool require_uniform_columns = true;
};

/// Parses RFC-4180-style CSV text: comma-separated fields, double-quoted
/// fields with `""` escapes, LF or CRLF row endings, optional trailing
/// newline. Malformed input — an unterminated quote, a stray quote inside
/// an unquoted field, garbage after a closing quote, a ragged row — is
/// reported through Status with the offending line and column (1-based),
/// never an assert. Embedded NUL bytes are rejected (binary garbage guard).
StatusOr<CsvRows> parse_csv(std::string_view text,
                            const CsvParseOptions& options = {});

/// Reads and parses a CSV file; file errors and parse errors both come
/// back through the Status (parse errors are prefixed with the path).
StatusOr<CsvRows> read_csv_file(const std::string& path,
                                const CsvParseOptions& options = {});

/// Accumulates rows and renders an aligned fixed-width table to a string.
/// Column widths are computed from content; numeric columns right-align.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  TextTable& cell(std::string_view text);
  TextTable& cell(std::int64_t value);
  TextTable& cell(double value, int precision = 2);
  void end_row();

  std::size_t row_count() const { return rows_.size(); }

  /// Renders with a title line, a header, and a separator rule.
  std::string render(std::string_view title = "") const;

 private:
  struct Cell {
    std::string text;
    bool numeric = false;
  };
  std::vector<std::string> header_;
  std::vector<std::vector<Cell>> rows_;
  std::vector<Cell> current_;
};

}  // namespace dc

#include "util/csv.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "util/strings.hpp"

namespace dc {

std::string csv_quote(std::string_view text, bool always) {
  if (!always && text.find_first_of(",\"\n") == std::string_view::npos) {
    return std::string(text);
  }
  std::string out = "\"";
  for (char c : text) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

CsvWriter::CsvWriter(const std::string& path) : out_(path) {}

CsvWriter& CsvWriter::cell(std::string_view text) {
  if (row_started_) out_ << ',';
  out_ << csv_quote(text);
  row_started_ = true;
  return *this;
}

CsvWriter& CsvWriter::cell(std::int64_t value) {
  return cell(std::string_view(std::to_string(value)));
}

CsvWriter& CsvWriter::cell(double value, int precision) {
  return cell(std::string_view(str_format("%.*f", precision, value)));
}

void CsvWriter::end_row() {
  out_ << '\n';
  row_started_ = false;
}

void CsvWriter::header(const std::vector<std::string>& names) {
  for (const auto& name : names) cell(name);
  end_row();
}

namespace {

Status csv_error(std::size_t line, std::size_t column, const std::string& msg) {
  return Status::invalid_argument(str_format(
      "CSV parse error at line %zu, column %zu: %s", line, column, msg.c_str()));
}

}  // namespace

StatusOr<CsvRows> parse_csv(std::string_view text,
                            const CsvParseOptions& options) {
  CsvRows rows;
  std::vector<std::string> row;
  std::string field;
  // 1-based position of the *next* character to read, for error reports.
  std::size_t line = 1;
  std::size_t column = 1;
  std::size_t i = 0;
  const std::size_t n = text.size();
  // True once the current row has content: a field separator was seen or a
  // field (possibly empty, e.g. a quoted "") was started. Distinguishes a
  // trailing newline from an empty final row.
  bool row_started = false;

  auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
  };
  auto end_row = [&]() -> Status {
    end_field();
    if (options.require_uniform_columns && !rows.empty() &&
        row.size() != rows.front().size()) {
      return csv_error(line, column,
                       str_format("row has %zu fields but the header row has "
                                  "%zu — truncated or garbled input",
                                  row.size(), rows.front().size()));
    }
    rows.push_back(std::move(row));
    row.clear();
    row_started = false;
    ++line;
    column = 1;
    return Status::ok();
  };

  while (i < n) {
    const char c = text[i];
    if (c == '\0') {
      return csv_error(line, column,
                       "embedded NUL byte — input is not text CSV");
    }
    if (c == '"') {
      if (!field.empty()) {
        return csv_error(line, column,
                         "quote character inside an unquoted field (quote "
                         "the whole field and double embedded quotes)");
      }
      const std::size_t open_line = line;
      const std::size_t open_column = column;
      ++i;
      ++column;
      row_started = true;
      bool closed = false;
      while (i < n) {
        const char q = text[i];
        if (q == '\0') {
          return csv_error(line, column,
                           "embedded NUL byte — input is not text CSV");
        }
        if (q == '"') {
          if (i + 1 < n && text[i + 1] == '"') {
            field += '"';  // "" escape
            i += 2;
            column += 2;
            continue;
          }
          ++i;
          ++column;
          closed = true;
          break;
        }
        if (q == '\n') {
          ++line;
          column = 1;
        } else {
          ++column;
        }
        field += q;
        ++i;
      }
      if (!closed) {
        return csv_error(open_line, open_column,
                         "unterminated quoted field (opening quote shown) — "
                         "file truncated mid-field?");
      }
      if (i < n && text[i] != ',' && text[i] != '\n' &&
          !(text[i] == '\r' && i + 1 < n && text[i + 1] == '\n')) {
        return csv_error(line, column,
                         str_format("unexpected character '%c' after closing "
                                    "quote (expected ',' or end of row)",
                                    text[i]));
      }
      continue;
    }
    if (c == ',') {
      end_field();
      row_started = true;
      ++i;
      ++column;
      continue;
    }
    if (c == '\n' || (c == '\r' && i + 1 < n && text[i + 1] == '\n')) {
      i += (c == '\r') ? 2 : 1;
      if (auto st = end_row(); !st.is_ok()) return st;
      continue;
    }
    field += c;
    row_started = true;
    ++i;
    ++column;
  }
  if (row_started || !field.empty() || !row.empty()) {
    if (auto st = end_row(); !st.is_ok()) return st;
  }
  return rows;
}

StatusOr<CsvRows> read_csv_file(const std::string& path,
                                const CsvParseOptions& options) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::not_found("cannot open CSV file '" + path + "'");
  }
  std::string contents((std::istreambuf_iterator<char>(file)),
                       std::istreambuf_iterator<char>());
  auto rows = parse_csv(contents, options);
  if (!rows.is_ok()) {
    return Status(rows.status().code(),
                  "'" + path + "': " + rows.status().message());
  }
  return rows;
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

TextTable& TextTable::cell(std::string_view text) {
  current_.push_back({std::string(text), /*numeric=*/false});
  return *this;
}

TextTable& TextTable::cell(std::int64_t value) {
  current_.push_back({std::to_string(value), /*numeric=*/true});
  return *this;
}

TextTable& TextTable::cell(double value, int precision) {
  current_.push_back({str_format("%.*f", precision, value), /*numeric=*/true});
  return *this;
}

void TextTable::end_row() {
  assert(current_.size() == header_.size() && "row width must match header");
  rows_.push_back(std::move(current_));
  current_.clear();
}

std::string TextTable::render(std::string_view title) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].text.size());
    }
  }

  std::string out;
  if (!title.empty()) {
    out.append(title);
    out.push_back('\n');
  }
  auto append_padded = [&](const std::string& text, std::size_t width,
                           bool right_align) {
    const std::size_t pad = width - text.size();
    if (right_align) out.append(pad, ' ');
    out.append(text);
    if (!right_align) out.append(pad, ' ');
  };
  for (std::size_t c = 0; c < header_.size(); ++c) {
    if (c > 0) out.append("  ");
    append_padded(header_[c], widths[c], /*right_align=*/false);
  }
  out.push_back('\n');
  std::size_t rule = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) rule += widths[c] + (c > 0 ? 2 : 0);
  out.append(rule, '-');
  out.push_back('\n');
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out.append("  ");
      append_padded(row[c].text, widths[c], row[c].numeric);
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace dc

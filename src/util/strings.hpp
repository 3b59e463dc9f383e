// Small string utilities used by the SWF / workflow parsers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace dc {

/// Splits on any run of the given delimiter characters; no empty tokens.
std::vector<std::string_view> split_ws(std::string_view text,
                                       std::string_view delims = " \t\r\n");

/// Splits on a single delimiter character, keeping empty fields.
std::vector<std::string_view> split_char(std::string_view text, char delim);

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);

/// Strict integer parse of the whole token.
StatusOr<std::int64_t> parse_int(std::string_view token);

/// Strict floating-point parse of the whole token.
StatusOr<double> parse_double(std::string_view token);

/// Joins tokens with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Appends `text` escaped for the inside of a JSON string: quote,
/// backslash, \n, \r and \t get their short escapes, any other control
/// byte becomes \u00XX.
void append_json_escaped(std::string& out, std::string_view text);

/// printf-style formatting into a std::string.
std::string str_format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace dc

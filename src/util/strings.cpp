#include "util/strings.hpp"

#include <cerrno>
#include <cstdarg>
#include <cstdlib>
#include <cstring>

namespace dc {

std::vector<std::string_view> split_ws(std::string_view text,
                                       std::string_view delims) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t start = text.find_first_not_of(delims, pos);
    if (start == std::string_view::npos) break;
    std::size_t end = text.find_first_of(delims, start);
    if (end == std::string_view::npos) end = text.size();
    out.push_back(text.substr(start, end - start));
    pos = end;
  }
  return out;
}

std::vector<std::string_view> split_char(std::string_view text, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t end = text.find(delim, start);
    if (end == std::string_view::npos) {
      out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::string_view trim(std::string_view text) {
  const std::size_t begin = text.find_first_not_of(" \t\r\n");
  if (begin == std::string_view::npos) return {};
  const std::size_t end = text.find_last_not_of(" \t\r\n");
  return text.substr(begin, end - begin + 1);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

StatusOr<std::int64_t> parse_int(std::string_view token) {
  if (token.empty()) return Status::invalid_argument("empty integer token");
  char buf[32];
  if (token.size() >= sizeof(buf)) {
    return Status::invalid_argument("integer token too long: " + std::string(token));
  }
  std::memcpy(buf, token.data(), token.size());
  buf[token.size()] = '\0';
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(buf, &end, 10);
  if (errno == ERANGE) {
    return Status::out_of_range("integer out of range: " + std::string(token));
  }
  if (end != buf + token.size()) {
    return Status::invalid_argument("not an integer: " + std::string(token));
  }
  return static_cast<std::int64_t>(value);
}

StatusOr<double> parse_double(std::string_view token) {
  if (token.empty()) return Status::invalid_argument("empty float token");
  char buf[64];
  if (token.size() >= sizeof(buf)) {
    return Status::invalid_argument("float token too long: " + std::string(token));
  }
  std::memcpy(buf, token.data(), token.size());
  buf[token.size()] = '\0';
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf, &end);
  if (errno == ERANGE) {
    return Status::out_of_range("float out of range: " + std::string(token));
  }
  if (end != buf + token.size()) {
    return Status::invalid_argument("not a float: " + std::string(token));
  }
  return value;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

void append_json_escaped(std::string& out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += str_format("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
}

std::string str_format(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace dc

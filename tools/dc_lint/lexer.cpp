#include "lexer.hpp"

#include <cctype>

namespace dc_lint {
namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Two-character punctuators the rules care about (so `+=` is one token and
// `a += b` is recognizable without lookahead games). Everything else is
// emitted one character at a time.
bool two_char_punct(char a, char b) {
  switch (a) {
    case '+': return b == '=' || b == '+';
    case '-': return b == '=' || b == '-' || b == '>';
    case '*': return b == '=';
    case '/': return b == '=';
    case ':': return b == ':';
    case '<': return b == '=' || b == '<';
    case '>': return b == '=' || b == '>';
    case '=': return b == '=';
    case '!': return b == '=';
    case '&': return b == '&';
    case '|': return b == '|';
    default: return false;
  }
}

// "dc-r" followed by one or more digits: the shape of every rule id.
bool is_dc_rule_id(const std::string& item) {
  return item.size() > 4 && item.compare(0, 4, "dc-r") == 0 &&
         item.find_first_not_of("0123456789", 4) == std::string::npos;
}

// Harvests waiver and dc-volatile annotations from one comment's text.
// `line` is the line the comment starts on. Each distinct directive gets
// its own waiver group; the two sites of an ordered-reduction annotation
// share one.
void harvest_annotations(const std::string& text, int line, FileLex& out,
                         int& next_group) {
  // NOLINT(...) / NOLINTNEXTLINE(...): collect every dc-r<digits> id in
  // the list, so an id no rule answers to (a retired rule, a typo) is
  // reported by the waiver audit instead of lingering as dead text. Other
  // names (clang-tidy checks, the dc-rN documentation placeholder) are
  // ignored.
  for (std::size_t at = 0; (at = text.find("NOLINT", at)) != std::string::npos;) {
    std::size_t cursor = at + 6;
    int target = line;
    if (text.compare(cursor, 8, "NEXTLINE") == 0) {
      cursor += 8;
      target = line + 1;
    }
    if (cursor < text.size() && text[cursor] == '(') {
      const std::size_t close = text.find(')', cursor);
      if (close != std::string::npos) {
        std::string item;
        for (std::size_t i = cursor + 1; i <= close; ++i) {
          const char c = text[i];
          if (c == ',' || c == ')') {
            if (is_dc_rule_id(item)) {
              out.waivers.push_back({item, line, target, next_group++, false});
            }
            item.clear();
          } else if (!std::isspace(static_cast<unsigned char>(c))) {
            item += c;
          }
        }
      }
    }
    at = cursor;
  }
  // The reduction waiver: a statement-level annotation, honored on the
  // comment's own line and the next (so it can sit above the reduction).
  // A reviewed reduction covers both concerns a shared accumulation
  // raises — FP ordering (dc-r4) and the sweep race (dc-r11) — so one
  // comment registers sites for both rules in one group: consuming any
  // site satisfies the audit.
  if (text.find("dc-lint: ordered-reduction") != std::string::npos ||
      text.find("dc-lint:ordered-reduction") != std::string::npos) {
    out.waivers.push_back({"dc-r4", line, line, next_group, false});
    out.waivers.push_back({"dc-r4", line, line + 1, next_group, false});
    out.waivers.push_back({"dc-r11", line, line, next_group, false});
    out.waivers.push_back({"dc-r11", line, line + 1, next_group, false});
    ++next_group;
  }
  // dc-volatile: marks a data member as intentionally non-persisted for
  // dc-r9. Covers the comment's line and the next, so it reads naturally
  // trailing the declaration or on its own line above.
  if (text.find("dc-volatile") != std::string::npos) {
    out.volatile_lines.insert(line);
    out.volatile_lines.insert(line + 1);
  }
  // dc-wallclock: marks a line of supervision plumbing (heartbeat clock,
  // poll sleep, timeout kill) as intentionally wall-clock for dc-r13.
  // Same coverage as dc-volatile: the comment's line and the next.
  if (text.find("dc-wallclock") != std::string::npos) {
    out.wallclock_lines.insert(line);
    out.wallclock_lines.insert(line + 1);
  }
  // dc-rawio: marks a write that deliberately bypasses util/fsio and the
  // faultfs primitives for dc-r14. Same coverage: the comment's line and
  // the next.
  if (text.find("dc-rawio") != std::string::npos) {
    out.rawio_lines.insert(line);
    out.rawio_lines.insert(line + 1);
  }
}

}  // namespace

FileLex lex(std::string_view src) {
  FileLex out;
  const std::size_t n = src.size();
  std::size_t i = 0;
  int line = 1;
  int next_group = 0;
  bool at_line_start = true;  // only whitespace seen since the newline

  auto advance = [&](std::size_t count) {
    for (std::size_t k = 0; k < count && i < n; ++k, ++i) {
      if (src[i] == '\n') {
        ++line;
        at_line_start = true;
      }
    }
  };

  while (i < n) {
    const char c = src[i];

    if (c == '\n' || std::isspace(static_cast<unsigned char>(c))) {
      advance(1);
      continue;
    }

    // Preprocessor line: captured whole (with \-continuations folded) so
    // the header-guard rule can inspect directives in order.
    if (c == '#' && at_line_start) {
      const int start_line = line;
      std::string text;
      while (i < n) {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          text += ' ';
          advance(2);
          continue;
        }
        if (src[i] == '\n') break;
        text += src[i];
        advance(1);
      }
      out.tokens.push_back({TokKind::kPreproc, std::move(text), start_line});
      continue;
    }
    at_line_start = false;

    // Comments: not tokens, but the waiver syntax lives in them.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const int start_line = line;
      std::string text;
      while (i < n && src[i] != '\n') {
        text += src[i];
        advance(1);
      }
      harvest_annotations(text, start_line, out, next_group);
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const int start_line = line;
      std::string text;
      advance(2);
      while (i < n && !(src[i] == '*' && i + 1 < n && src[i + 1] == '/')) {
        text += src[i];
        advance(1);
      }
      advance(2);
      harvest_annotations(text, start_line, out, next_group);
      continue;
    }

    // Raw string literal: R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      const int start_line = line;
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && src[j] != '(' && src[j] != '"' && src[j] != '\n') {
        delim += src[j++];
      }
      if (j < n && src[j] == '(') {
        const std::string closer = ")" + delim + "\"";
        const std::size_t end = src.find(closer, j + 1);
        const std::size_t stop = end == std::string_view::npos ? n : end + closer.size();
        std::string text(src.substr(j + 1, (end == std::string_view::npos ? n : end) - j - 1));
        advance(stop - i);
        out.tokens.push_back({TokKind::kString, std::move(text), start_line});
        continue;
      }
      // Not actually a raw string ("R" identifier, fall through).
    }

    if (c == '"' || c == '\'') {
      const char quote = c;
      const int start_line = line;
      std::string text;
      advance(1);
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) {
          text += src[i];
          text += src[i + 1];
          advance(2);
          continue;
        }
        if (src[i] == '\n') break;  // unterminated; stop at the line end
        text += src[i];
        advance(1);
      }
      advance(1);  // closing quote
      out.tokens.push_back(
          {quote == '"' ? TokKind::kString : TokKind::kChar, std::move(text), start_line});
      continue;
    }

    if (ident_start(c)) {
      const int start_line = line;
      std::string text;
      while (i < n && ident_char(src[i])) {
        text += src[i];
        advance(1);
      }
      out.tokens.push_back({TokKind::kIdentifier, std::move(text), start_line});
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c))) {
      const int start_line = line;
      std::string text;
      // Good enough for a linter: digits plus the characters that can
      // continue a pp-number (hex, exponents, digit separators, suffixes).
      while (i < n && (ident_char(src[i]) || src[i] == '.' ||
                       ((src[i] == '+' || src[i] == '-') && i > 0 &&
                        (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                         src[i - 1] == 'p' || src[i - 1] == 'P')))) {
        text += src[i];
        advance(1);
      }
      out.tokens.push_back({TokKind::kNumber, std::move(text), start_line});
      continue;
    }

    const int start_line = line;
    if (i + 1 < n && two_char_punct(c, src[i + 1])) {
      std::string text{c, src[i + 1]};
      advance(2);
      out.tokens.push_back({TokKind::kPunct, std::move(text), start_line});
    } else {
      out.tokens.push_back({TokKind::kPunct, std::string(1, c), start_line});
      advance(1);
    }
  }

  return out;
}

}  // namespace dc_lint

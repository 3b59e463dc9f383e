// dc-lint's C++ token stream.
//
// dc-lint is deliberately *not* built on libclang: the rules it enforces
// (see rules.hpp and docs/STATIC_ANALYSIS.md) are lexical and structural
// properties — "this identifier is called", "this loop ranges over that
// variable", "this class declares that member" — and a hand-rolled lexer
// keeps the tool a zero-dependency part of the build that compiles in
// under a second and runs over the whole tree in milliseconds. The lexer
// understands exactly as much C++ as the rules need: comments (harvested
// separately, for waivers and annotations), string/char literals (kept as
// opaque tokens, so a literal "rand(" never trips a rule), raw strings,
// preprocessor lines (kept whole, for the include/guard passes),
// identifiers, numbers, and multi-character operators like `+=` and `::`.
#pragma once

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "diagnostics.hpp"

namespace dc_lint {

enum class TokKind {
  kIdentifier,  // identifiers and keywords (the rules tell them apart)
  kNumber,
  kString,   // string literal, text excludes quotes
  kChar,     // character literal
  kPunct,    // operator/punctuator; multi-char for += -= -> :: etc.
  kPreproc,  // a whole preprocessor line, continuations folded in
};

struct Token {
  TokKind kind;
  std::string text;
  int line;  // 1-based line of the token's first character
};

/// A lexed translation unit: the token stream plus the annotations
/// harvested from comments.
///
/// Waivers become WaiverSite records (diagnostics.hpp). Recognized forms:
///   * `// NOLINT(dc-rN)` or `// NOLINT(dc-rN, dc-rM)` — same line;
///   * `// NOLINTNEXTLINE(dc-rN)` — the following line;
///   * the ordered-reduction annotation (a comment reading `dc-lint:`
///     followed by `ordered-reduction`) — dc-r4, same and following line
///     (one comment, two sites in one group, so the unused-waiver audit
///     treats either placement as consumed).
/// Every `dc-r<digits>` id is harvested, known to rule_table() or not, so
/// the waiver audit reports an unknown one; a clang-tidy name or the
/// `dc-rN` documentation placeholder inside a NOLINT list is ignored.
///
/// `volatile_lines` holds the lines covered by a `// dc-volatile`
/// annotation (the comment's own line and the next, so it reads naturally
/// trailing a member declaration or on the line above it). dc-r9 exempts
/// annotated data members from the never-persisted check.
///
/// `wallclock_lines` works the same way for `// dc-wallclock: <reason>`:
/// dc-r13 exempts annotated supervision-plumbing lines (heartbeat clocks,
/// poll sleeps, timeout kills) from the campaign wall-clock ban.
///
/// `rawio_lines` works the same way for `// dc-rawio: <reason>`: dc-r14
/// exempts annotated lines from the raw-write ban in durable-artifact
/// paths (writes that deliberately bypass util/fsio + util/faultfs, like
/// the fault tracer's own append channel).
struct FileLex {
  std::vector<Token> tokens;
  std::vector<WaiverSite> waivers;
  std::set<int> volatile_lines;
  std::set<int> wallclock_lines;
  std::set<int> rawio_lines;
};

FileLex lex(std::string_view source);

}  // namespace dc_lint

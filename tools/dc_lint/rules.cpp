#include "rules.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <utility>

#include "lexer.hpp"
#include "token_scan.hpp"

namespace dc_lint {
namespace {

bool is_header_path(std::string_view path) {
  return str_ends_with(path, ".h") || str_ends_with(path, ".hpp") ||
         str_ends_with(path, ".hxx") || str_ends_with(path, ".hh");
}

bool is_sim_hot_path(std::string_view path) {
  return path.find("src/sim") != std::string_view::npos;
}

bool is_traced_subsystem_path(std::string_view path) {
  return path.find("src/core") != std::string_view::npos ||
         path.find("src/sim") != std::string_view::npos;
}

bool is_queue_source_path(std::string_view path) {
  return is_sim_hot_path(path) && path.find("queue") != std::string_view::npos;
}

bool is_campaign_path(std::string_view path) {
  return path.find("src/campaign") != std::string_view::npos;
}

struct Ctx {
  const std::string& path;
  const FileLex& lx;
  FileAnalysis& out;

  const Token& tok(std::size_t i) const { return lx.tokens[i]; }
  std::size_t size() const { return lx.tokens.size(); }

  bool ident_at(std::size_t i, std::string_view text) const {
    return tok_ident_at(lx, i, text);
  }
  bool punct_at(std::size_t i, std::string_view text) const {
    return tok_punct_at(lx, i, text);
  }

  void report(int line, const char* rule, const char* severity, std::string message) {
    if (consume_waiver(out.waivers, line, rule)) {
      ++out.waived;
      return;
    }
    out.diagnostics.push_back({path, line, rule, severity, std::move(message)});
  }
};

std::size_t skip_angles(const Ctx& ctx, std::size_t i) {
  return tok_skip_angles(ctx.lx, i);
}

std::size_t match_paren(const Ctx& ctx, std::size_t i) {
  return tok_match_paren(ctx.lx, i);
}

// --------------------------------------------------------------------------
// dc-r1: ambient nondeterminism.

const std::set<std::string, std::less<>> kWallClockCalls = {
    "time", "clock", "gettimeofday", "timespec_get", "localtime", "gmtime"};
const std::set<std::string, std::less<>> kAmbientRngCalls = {"rand", "srand",
                                                            "rand_r", "random"};

void rule_r1(Ctx& ctx) {
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    const Token& t = ctx.tok(i);
    if (t.kind != TokKind::kIdentifier) continue;
    if (t.text == "system_clock") {
      ctx.report(t.line, "dc-r1", "error",
                 "std::chrono::system_clock reads the wall clock; simulation "
                 "code must use sim::Simulator::now() / SimTime");
      continue;
    }
    if (t.text == "random_device") {
      ctx.report(t.line, "dc-r1", "error",
                 "std::random_device draws ambient entropy; construct dc::Rng "
                 "from an explicit seed (waive only at a seeded-RNG "
                 "construction site)");
      continue;
    }
    const bool wall = kWallClockCalls.count(t.text) != 0;
    const bool ambient_rng = kAmbientRngCalls.count(t.text) != 0;
    if ((wall || ambient_rng) && ctx.punct_at(i + 1, "(")) {
      // Member calls (`trace.time(...)`) are somebody else's `time`.
      if (i > 0 && (ctx.punct_at(i - 1, ".") || ctx.punct_at(i - 1, "->"))) continue;
      ctx.report(t.line, "dc-r1", "error",
                 wall ? t.text + "() reads the wall clock; simulation code must "
                        "use sim::Simulator::now() / SimTime"
                      : t.text + "() is unseeded global state; use a dc::Rng "
                        "seeded by the experiment");
    }
  }
}

// --------------------------------------------------------------------------
// dc-r2: unordered-container iteration.

const std::set<std::string, std::less<>> kUnorderedTemplates = {
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};

void rule_r2(Ctx& ctx) {
  // Type names that are unordered containers: the std templates plus any
  // `using X = ...unordered_map<...>` alias declared in this file.
  std::set<std::string, std::less<>> unordered_types(kUnorderedTemplates.begin(),
                                                     kUnorderedTemplates.end());
  for (std::size_t i = 0; i + 3 < ctx.size(); ++i) {
    if (!ctx.ident_at(i, "using")) continue;
    if (ctx.tok(i + 1).kind != TokKind::kIdentifier || !ctx.punct_at(i + 2, "=")) {
      continue;
    }
    for (std::size_t j = i + 3; j < ctx.size() && !ctx.punct_at(j, ";"); ++j) {
      if (ctx.tok(j).kind == TokKind::kIdentifier &&
          kUnorderedTemplates.count(ctx.tok(j).text) != 0) {
        unordered_types.insert(ctx.tok(i + 1).text);
        break;
      }
    }
  }

  // Variables (locals, members, parameters) declared with such a type.
  std::set<std::string, std::less<>> unordered_vars;
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    if (ctx.tok(i).kind != TokKind::kIdentifier ||
        unordered_types.count(ctx.tok(i).text) == 0) {
      continue;
    }
    std::size_t j = i + 1;
    if (ctx.punct_at(j, "<")) j = skip_angles(ctx, j);
    while (ctx.punct_at(j, "&") || ctx.punct_at(j, "*") || ctx.ident_at(j, "const")) {
      ++j;
    }
    if (j < ctx.size() && ctx.tok(j).kind == TokKind::kIdentifier &&
        j + 1 < ctx.size()) {
      const std::string& after = ctx.tok(j + 1).text;
      if (after == ";" || after == "=" || after == "," || after == ")" ||
          after == "{" || after == "[") {
        unordered_vars.insert(ctx.tok(j).text);
      }
    }
  }

  auto in_unordered = [&](const Token& t) {
    return t.kind == TokKind::kIdentifier &&
           (unordered_vars.count(t.text) != 0 || unordered_types.count(t.text) != 0);
  };

  for (std::size_t i = 0; i < ctx.size(); ++i) {
    // Range-for whose range expression mentions an unordered container.
    if (ctx.ident_at(i, "for") && ctx.punct_at(i + 1, "(")) {
      const std::size_t close = match_paren(ctx, i + 1);
      std::size_t colon = 0;
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (ctx.punct_at(j, "(")) ++depth;
        else if (ctx.punct_at(j, ")")) --depth;
        else if (depth == 1 && ctx.punct_at(j, ":")) { colon = j; break; }
      }
      if (colon != 0) {
        for (std::size_t j = colon + 1; j < close; ++j) {
          if (in_unordered(ctx.tok(j))) {
            ctx.report(ctx.tok(i).line, "dc-r2", "error",
                       "iteration over unordered container '" + ctx.tok(j).text +
                           "': hash-table order is unspecified and breaks "
                           "reproducibility; use std::map, a vector, or iterate "
                           "sorted keys");
            break;
          }
        }
      }
    }
    // Explicit iterator traversal: container.begin() / ->cbegin() etc.
    if (in_unordered(ctx.tok(i)) &&
        (ctx.punct_at(i + 1, ".") || ctx.punct_at(i + 1, "->")) &&
        i + 2 < ctx.size()) {
      const std::string& member = ctx.tok(i + 2).text;
      if (member == "begin" || member == "cbegin" || member == "rbegin" ||
          member == "crbegin") {
        ctx.report(ctx.tok(i).line, "dc-r2", "error",
                   "iterator traversal of unordered container '" + ctx.tok(i).text +
                       "': hash-table order is unspecified and breaks "
                       "reproducibility");
      }
    }
  }
}

// --------------------------------------------------------------------------
// dc-r3: raw allocation in the simulation hot path.

void rule_r3(Ctx& ctx) {
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    const Token& t = ctx.tok(i);
    if (t.kind != TokKind::kIdentifier) continue;
    if (t.text == "new") {
      if (i > 0 && ctx.ident_at(i - 1, "operator")) continue;
      if (ctx.punct_at(i + 1, "(")) continue;  // placement new: no allocation
      ctx.report(t.line, "dc-r3", "error",
                 "raw 'new' in simulation hot path; event/timer storage must "
                 "come from the slab allocator");
    } else if (t.text == "delete") {
      if (i > 0 && (ctx.punct_at(i - 1, "=") || ctx.ident_at(i - 1, "operator"))) {
        continue;  // deleted function / operator delete declaration
      }
      ctx.report(t.line, "dc-r3", "error",
                 "raw 'delete' in simulation hot path; event/timer storage must "
                 "come from the slab allocator");
    } else if ((t.text == "malloc" || t.text == "calloc" || t.text == "realloc") &&
               ctx.punct_at(i + 1, "(")) {
      if (i > 0 && (ctx.punct_at(i - 1, ".") || ctx.punct_at(i - 1, "->"))) continue;
      ctx.report(t.line, "dc-r3", "error",
                 "'" + t.text + "' in simulation hot path; event/timer storage "
                 "must come from the slab allocator");
    }
  }
}

// --------------------------------------------------------------------------
// dc-r4: unordered floating-point reductions in parallel callbacks.

void rule_r4(Ctx& ctx) {
  // Identifiers declared float/double, or as a container of them.
  std::set<std::string, std::less<>> float_vars;
  auto record_decl_after = [&](std::size_t j) {
    while (ctx.punct_at(j, "&") || ctx.punct_at(j, "*") || ctx.ident_at(j, "const")) {
      ++j;
    }
    if (j < ctx.size() && ctx.tok(j).kind == TokKind::kIdentifier &&
        j + 1 < ctx.size()) {
      const std::string& after = ctx.tok(j + 1).text;
      if (after == ";" || after == "=" || after == "," || after == ")" ||
          after == "{" || after == "[" || after == ":") {
        float_vars.insert(ctx.tok(j).text);
      }
    }
  };
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    if (ctx.ident_at(i, "float") || ctx.ident_at(i, "double")) {
      record_decl_after(i + 1);
    } else if ((ctx.ident_at(i, "vector") || ctx.ident_at(i, "array") ||
                ctx.ident_at(i, "valarray") || ctx.ident_at(i, "span")) &&
               ctx.punct_at(i + 1, "<")) {
      const std::size_t end = skip_angles(ctx, i + 1);
      bool holds_float = false;
      for (std::size_t j = i + 2; j < end; ++j) {
        if (ctx.ident_at(j, "float") || ctx.ident_at(j, "double")) {
          holds_float = true;
          break;
        }
      }
      if (holds_float) record_decl_after(end);
    }
  }

  for (std::size_t i = 0; i < ctx.size(); ++i) {
    if (!(ctx.ident_at(i, "parallel_for_index") ||
          ctx.ident_at(i, "parallel_map_index"))) {
      continue;
    }
    if (i > 0 && (ctx.punct_at(i - 1, ".") || ctx.punct_at(i - 1, "->"))) continue;
    std::size_t j = i + 1;
    if (ctx.punct_at(j, "<")) j = skip_angles(ctx, j);
    if (!ctx.punct_at(j, "(")) continue;
    const std::size_t close = match_paren(ctx, j);

    for (std::size_t k = j + 1; k < close; ++k) {
      if (!(ctx.punct_at(k, "+=") || ctx.punct_at(k, "-="))) continue;
      // Walk the left-hand side back (through subscripts and member
      // chains) and see whether any identifier on it is floating-point.
      bool lhs_float = false;
      std::size_t m = k;
      while (m > j) {
        --m;
        const Token& t = ctx.tok(m);
        if (ctx.punct_at(m, "]")) {
          int depth = 0;
          while (m > j) {
            if (ctx.punct_at(m, "]")) ++depth;
            else if (ctx.punct_at(m, "[") && --depth == 0) break;
            --m;
          }
          continue;
        }
        if (t.kind == TokKind::kIdentifier) {
          if (float_vars.count(t.text) != 0) lhs_float = true;
          continue;
        }
        if (t.kind == TokKind::kPunct &&
            (t.text == "." || t.text == "->" || t.text == "::")) {
          continue;
        }
        break;
      }
      if (lhs_float) {
        ctx.report(ctx.tok(k).line, "dc-r4", "error",
                   "floating-point '" + ctx.tok(k).text +
                       "' reduction inside a parallel_for_index callback: FP "
                       "addition is non-associative, so the result depends on "
                       "thread interleaving; reduce per-index into a slot, or "
                       "waive with '// dc-lint: ordered-reduction'");
      }
    }
  }
}

// --------------------------------------------------------------------------
// dc-r5: header hygiene.

void rule_r5(Ctx& ctx) {
  const PreprocInfo preproc = scan_preproc(ctx.lx);
  if (!preproc.has_pragma_once && !preproc.has_classic_guard) {
    ctx.report(1, "dc-r5", "warning",
               "header is missing '#pragma once' or an include guard");
  }

  for (std::size_t i = 0; i + 2 < ctx.size(); ++i) {
    if (ctx.ident_at(i, "using") && ctx.ident_at(i + 1, "namespace") &&
        ctx.ident_at(i + 2, "std")) {
      ctx.report(ctx.tok(i).line, "dc-r5", "warning",
                 "'using namespace std' in a header pollutes every includer");
    }
  }
}

// --------------------------------------------------------------------------
// dc-r7: direct stdio output in instrumented subsystems.
//
// src/core and src/sim speak through dc::Log (single-fwrite lines, level
// gating, and the trace-sink hook) or through the trace macros. A direct
// printf/fprintf there bypasses all three: it shears across sweep
// threads, ignores --trace-out, and cannot be silenced by tests. The
// formatting-only snprintf family stays legal — it produces a buffer,
// not output.

const std::set<std::string, std::less<>> kDirectPrintCalls = {
    "printf", "fprintf", "vprintf", "vfprintf", "puts",
    "fputs",  "fputc",   "putc",    "putchar"};

void rule_r7(Ctx& ctx) {
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    const Token& t = ctx.tok(i);
    if (t.kind != TokKind::kIdentifier ||
        kDirectPrintCalls.count(t.text) == 0 || !ctx.punct_at(i + 1, "(")) {
      continue;
    }
    // Member calls (`sink.puts(...)`) are somebody else's printer; a
    // `std::` qualifier is still the real stdio.
    if (i > 0 && (ctx.punct_at(i - 1, ".") || ctx.punct_at(i - 1, "->"))) {
      continue;
    }
    // A declaration (`int puts(const char*);`) names a member, not a
    // call: real stdio calls are never preceded by another identifier,
    // except for the keywords that can open an expression statement.
    if (i > 0 && ctx.tok(i - 1).kind == TokKind::kIdentifier &&
        ctx.tok(i - 1).text != "return" && ctx.tok(i - 1).text != "else" &&
        ctx.tok(i - 1).text != "do") {
      continue;
    }
    ctx.report(t.line, "dc-r7", "error",
               "direct " + t.text +
                   "() in an instrumented subsystem bypasses dc::Log and the "
                   "trace sink (lines shear across sweep threads and ignore "
                   "--trace-out); route output through Log::at/Log::raw or a "
                   "DC_TRACE_* macro");
  }
}

// --------------------------------------------------------------------------
// dc-r8: floating-point math and hash storage in scheduler-queue sources.
//
// The event queue (src/sim/*queue*) must pop the exact (time, seq) total
// order on every platform — the reference-model queue test and the
// byte-identical-artifact guarantee depend on it. Floating-point index or
// ordering math can round differently across compilers and FPUs, silently
// reordering borderline events; unordered_* containers put hash-order
// hazards on the same critical path. Queue math must stay integer-only
// (shifts, adds, compares) and queue storage must be vectors or ordered
// containers.

void rule_r8(Ctx& ctx) {
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    const Token& t = ctx.tok(i);
    if (t.kind != TokKind::kIdentifier) continue;
    if (t.text == "float" || t.text == "double") {
      ctx.report(t.line, "dc-r8", "error",
                 "'" + t.text +
                     "' in a scheduler-queue source: floating-point bucket "
                     "math can round differently across platforms and "
                     "reassign borderline events; keep queue index math "
                     "integer-only");
    } else if (kUnorderedTemplates.count(t.text) != 0) {
      ctx.report(t.line, "dc-r8", "error",
                 "'" + t.text +
                     "' in a scheduler-queue source: hash-ordered storage on "
                     "the event-dispatch critical path; use vector buckets "
                     "or an ordered container");
    }
  }
}

// --------------------------------------------------------------------------
// dc-r11: writes to shared state inside parallel sweep callbacks.
//
// The sweep pattern parallel_for_index is built for gives each callback
// invocation exclusive ownership of slot `i`: `out[i] = compute(i)`.
// A write through a by-reference capture (or any captured pointer) whose
// target is NOT indexed by the loop variable breaks that ownership — two
// sweep threads race on one location, and the loser's update vanishes
// without any deterministic repro. This is a lexical heuristic, not a
// happens-before proof: it flags `total += x`, `shared.field = v`,
// `ptr->hits++` inside parallel_for_index/parallel_map_index callbacks,
// and stays quiet for body-locals and loop-indexed stores.

struct LambdaCaptures {
  bool by_ref_default = false;   // [&]
  bool by_copy_default = false;  // [=]
  std::set<std::string> ref_names;
  std::set<std::string> copy_names;
};

// Parses the capture list between '[' at `open` and its matching ']'.
// Returns the index of the ']'. Init-captures (`name = expr`) introduce
// `name` as callback-local storage, so they land in copy_names.
std::size_t parse_captures(const Ctx& ctx, std::size_t open, LambdaCaptures& caps) {
  std::size_t i = open + 1;
  int depth = 0;  // nested (), {}, [] inside init-capture expressions
  bool at_item_start = true;
  for (; i < ctx.size(); ++i) {
    const Token& t = ctx.tok(i);
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(" || t.text == "{" || t.text == "[") { ++depth; continue; }
      if (t.text == ")" || t.text == "}") { --depth; continue; }
      if (t.text == "]") {
        if (depth == 0) break;
        --depth;
        continue;
      }
      if (depth > 0) continue;
      if (t.text == ",") { at_item_start = true; continue; }
      if (t.text == "&" && at_item_start) {
        const bool next_ident = i + 1 < ctx.size() &&
                                ctx.tok(i + 1).kind == TokKind::kIdentifier;
        if (next_ident) {
          // Both plain `&name` and the init-capture `&name = expr` bind a
          // reference whose target we cannot see — treat them the same.
          caps.ref_names.insert(ctx.tok(i + 1).text);
          ++i;
        } else if (ctx.punct_at(i + 1, ",") || ctx.punct_at(i + 1, "]")) {
          caps.by_ref_default = true;
        }
        at_item_start = false;
        continue;
      }
      if (t.text == "=" && at_item_start) {
        caps.by_copy_default = true;
        at_item_start = false;
        continue;
      }
      continue;
    }
    if (t.kind == TokKind::kIdentifier && at_item_start && depth == 0) {
      caps.copy_names.insert(t.text);
      at_item_start = false;
    }
  }
  return i;
}

// Collects names declared inside the callback body: ordinary declarations
// (`auto x = ...`, `std::size_t k = 0`, `T v;`), structured bindings, and
// range-for loop variables. Reference locals (`auto& slot = out[i]`) whose
// initializer never mentions the loop variable (or another local) keep
// aliasing shared state, so they go to `suspect_aliases` instead.
void collect_body_locals(const Ctx& ctx, std::size_t body_open,
                         std::size_t body_end, std::string_view loop_var,
                         std::set<std::string>& locals,
                         std::set<std::string>& suspect_aliases) {
  for (std::size_t i = body_open + 1; i < body_end; ++i) {
    const Token& t = ctx.tok(i);
    if (t.kind != TokKind::kIdentifier) continue;

    // Structured binding: auto [a, b] = ... / auto& [a, b] : ...
    if (t.text == "auto" &&
        (ctx.punct_at(i + 1, "[") ||
         ((ctx.punct_at(i + 1, "&") || ctx.ident_at(i + 1, "const")) &&
          ctx.punct_at(i + 2, "[")))) {
      std::size_t j = i + 1;
      while (!ctx.punct_at(j, "[") && j < body_end) ++j;
      for (++j; j < body_end && !ctx.punct_at(j, "]"); ++j) {
        if (ctx.tok(j).kind == TokKind::kIdentifier) locals.insert(ctx.tok(j).text);
      }
      continue;
    }

    // Declarator: identifier X preceded by a type-ish token and followed
    // by a terminator that starts storage for X. The previous-token test
    // is what separates `auto x = ...` from the assignment `x = ...`
    // (whose previous token is `;`, `{`, `)` or an operator).
    const bool decl_terminator =
        ctx.punct_at(i + 1, "=") || ctx.punct_at(i + 1, ";") ||
        ctx.punct_at(i + 1, "{") || ctx.punct_at(i + 1, "[") ||
        ctx.punct_at(i + 1, ":");  // range-for: `for (auto& job : jobs)`
    if (!decl_terminator || i == 0) continue;
    const Token& prev = ctx.tok(i - 1);
    const bool ref_decl = prev.kind == TokKind::kPunct && prev.text == "&";
    const bool type_before =
        (prev.kind == TokKind::kIdentifier && prev.text != "return" &&
         prev.text != "else" && prev.text != "do" && prev.text != "co_return") ||
        (prev.kind == TokKind::kPunct &&
         (prev.text == "&" || prev.text == "*" || prev.text == ">" ||
          prev.text == ">>"));
    if (!type_before) continue;

    if (ref_decl && ctx.punct_at(i + 1, "=")) {
      // Reference local: safe only if the initializer is pinned to this
      // iteration (mentions the loop variable or an existing local).
      bool pinned = false;
      for (std::size_t j = i + 2; j < body_end && !ctx.punct_at(j, ";"); ++j) {
        if (ctx.tok(j).kind == TokKind::kIdentifier &&
            (ctx.tok(j).text == loop_var || locals.count(ctx.tok(j).text) != 0)) {
          pinned = true;
          break;
        }
      }
      if (pinned) {
        locals.insert(t.text);
      } else {
        suspect_aliases.insert(t.text);
      }
      continue;
    }
    locals.insert(t.text);
  }
}

// The base identifier of the access chain ending just before token `op`
// (walking back through `.`/`->`/`::` links and balanced subscripts), and
// whether any subscript along the chain mentions `loop_var` or a local.
struct LhsChain {
  std::string base;
  bool through_pointer = false;  // a '->' or leading '*' on the chain
  bool indexed_by_iteration = false;
};

LhsChain walk_lhs(const Ctx& ctx, std::size_t op, std::size_t lo,
                  std::string_view loop_var, const std::set<std::string>& locals) {
  LhsChain chain;
  std::size_t m = op;
  while (m > lo) {
    --m;
    const Token& t = ctx.tok(m);
    if (ctx.punct_at(m, "]")) {
      int depth = 0;
      const std::size_t sub_end = m;
      while (m > lo) {
        if (ctx.punct_at(m, "]")) ++depth;
        else if (ctx.punct_at(m, "[") && --depth == 0) break;
        --m;
      }
      for (std::size_t j = m + 1; j < sub_end; ++j) {
        if (ctx.tok(j).kind == TokKind::kIdentifier &&
            (ctx.tok(j).text == loop_var || locals.count(ctx.tok(j).text) != 0)) {
          chain.indexed_by_iteration = true;
        }
      }
      continue;
    }
    if (t.kind == TokKind::kIdentifier) {
      chain.base = t.text;
      // Keep walking: `a.b` has base `a`, so only stop when the next
      // token back is not a chain link.
      if (m > lo) {
        const Token& link = ctx.tok(m - 1);
        if (link.kind == TokKind::kPunct &&
            (link.text == "." || link.text == "->" || link.text == "::")) {
          if (link.text == "->") chain.through_pointer = true;
          --m;
          continue;
        }
        if (link.kind == TokKind::kPunct && link.text == "*") {
          chain.through_pointer = true;
        }
      }
      break;
    }
    break;
  }
  return chain;
}

void rule_r11(Ctx& ctx) {
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    if (!(ctx.ident_at(i, "parallel_for_index") ||
          ctx.ident_at(i, "parallel_map_index"))) {
      continue;
    }
    if (i > 0 && (ctx.punct_at(i - 1, ".") || ctx.punct_at(i - 1, "->"))) continue;
    std::size_t j = i + 1;
    if (ctx.punct_at(j, "<")) j = skip_angles(ctx, j);
    if (!ctx.punct_at(j, "(")) continue;
    const std::size_t call_close = match_paren(ctx, j);

    // The lambda argument: the first '[' in the call whose capture list
    // closes into a parameter list or body.
    std::size_t cap_open = j + 1;
    while (cap_open < call_close && !ctx.punct_at(cap_open, "[")) ++cap_open;
    if (cap_open >= call_close) continue;
    LambdaCaptures caps;
    const std::size_t cap_close = parse_captures(ctx, cap_open, caps);

    // Loop variable: the last identifier of the first parameter.
    std::string loop_var;
    std::size_t body_open = cap_close + 1;
    if (ctx.punct_at(body_open, "(")) {
      const std::size_t params_close = match_paren(ctx, body_open);
      for (std::size_t p = body_open + 1; p < params_close; ++p) {
        if (ctx.punct_at(p, ",")) break;
        if (ctx.tok(p).kind == TokKind::kIdentifier) loop_var = ctx.tok(p).text;
      }
      body_open = params_close + 1;
      while (body_open < call_close && !ctx.punct_at(body_open, "{")) ++body_open;
    }
    if (!ctx.punct_at(body_open, "{")) continue;
    const std::size_t body_end = tok_match_brace(ctx.lx, body_open);

    std::set<std::string> locals;
    std::set<std::string> suspect_aliases;
    if (!loop_var.empty()) locals.insert(loop_var);
    collect_body_locals(ctx, body_open, body_end, loop_var, locals,
                        suspect_aliases);

    for (std::size_t k = body_open + 1; k < body_end; ++k) {
      const Token& t = ctx.tok(k);
      if (t.kind != TokKind::kPunct) continue;
      const bool compound = t.text == "+=" || t.text == "-=" ||
                            t.text == "*=" || t.text == "/=";
      const bool incdec = t.text == "++" || t.text == "--";
      const bool plain = t.text == "=";
      if (!compound && !incdec && !plain) continue;

      LhsChain chain;
      if (incdec && ctx.tok(k + 1).kind == TokKind::kIdentifier &&
          !(k > body_open &&
            (ctx.tok(k - 1).kind == TokKind::kIdentifier ||
             ctx.punct_at(k - 1, "]") || ctx.punct_at(k - 1, ")")))) {
        // Prefix ++x / ++p->hits: take the forward chain's first base.
        chain.base = ctx.tok(k + 1).text;
        if (ctx.punct_at(k + 2, "->")) chain.through_pointer = true;
      } else {
        chain = walk_lhs(ctx, k, body_open, loop_var, locals);
      }
      if (chain.base.empty()) continue;
      if (locals.count(chain.base) != 0) continue;
      if (chain.indexed_by_iteration) continue;

      const bool suspect_alias = suspect_aliases.count(chain.base) != 0;
      const bool ref_captured = caps.by_ref_default ||
                                caps.ref_names.count(chain.base) != 0;
      // A copy-captured pointer still aliases shared state through ->/*;
      // a copy-captured value does not race (it only loses updates, which
      // is a different bug). Implicit `this` member writes surface as
      // bare `member_ = ...` under a default capture.
      const bool pointer_write = chain.through_pointer &&
                                 (ref_captured || caps.by_copy_default ||
                                  caps.copy_names.count(chain.base) != 0 ||
                                  suspect_alias);
      if (!pointer_write && !ref_captured && !suspect_alias) continue;

      ctx.report(t.line, "dc-r11", "error",
                 "write to '" + chain.base + "' inside a parallel sweep "
                     "callback is not indexed by the loop variable" +
                     (loop_var.empty() ? std::string()
                                       : " '" + loop_var + "'") +
                     "; concurrent sweep threads race on it — store "
                     "per-index results (out[" +
                     (loop_var.empty() ? std::string("i") : loop_var) +
                     "] = ...) and reduce after the join, or make the "
                     "state thread-local");
    }
    i = call_close;
  }
}

// --------------------------------------------------------------------------
// dc-r13: wall-clock dependence in campaign code.
//
// The sweep orchestrator's crash-resume guarantee is that merged results
// are byte-identical whether a campaign ran uninterrupted or was SIGKILLed
// and resumed — which holds only if nothing on the artifact path reads a
// clock. dc-r1 already bans the calendar clocks (system_clock, time());
// this rule closes the remaining gap for src/campaign: steady_clock,
// sleeps, and filesystem timestamps are deterministic-looking but still
// encode elapsed wall time. Supervision plumbing legitimately needs them
// (heartbeat staleness, poll intervals, timeout kills), so each such line
// carries a reviewed `// dc-wallclock: <reason>` annotation; anything
// unannotated is an error, keeping artifact code honest by default.

const std::set<std::string, std::less<>> kSupervisionClockCalls = {
    "steady_clock",     "high_resolution_clock", "sleep_for",
    "sleep_until",      "sleep",                 "usleep",
    "nanosleep",        "pause",                 "last_write_time"};

void rule_r13(Ctx& ctx) {
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    const Token& t = ctx.tok(i);
    if (t.kind != TokKind::kIdentifier ||
        kSupervisionClockCalls.count(t.text) == 0) {
      continue;
    }
    // Identifiers that merely *name* these calls (a parameter called
    // `sleep`, a member `pause()` on our own type) are someone else's;
    // require either a call or the chrono clock-type usage.
    const bool clock_type =
        t.text == "steady_clock" || t.text == "high_resolution_clock";
    if (!clock_type && !ctx.punct_at(i + 1, "(")) continue;
    if (!clock_type && i > 0 &&
        (ctx.punct_at(i - 1, ".") || ctx.punct_at(i - 1, "->"))) {
      continue;
    }
    if (ctx.lx.wallclock_lines.count(t.line) != 0) continue;
    ctx.report(t.line, "dc-r13", "error",
               "'" + t.text +
                   "' in campaign code reads or waits on wall time; "
                   "artifacts must be a pure function of the spec, so keep "
                   "this out of the result path — supervision plumbing "
                   "(heartbeats, poll sleeps, timeout kills) must carry a "
                   "'// dc-wallclock: <reason>' annotation");
  }
}

// --------------------------------------------------------------------------
// dc-r14: raw writes in durable-artifact paths.
//
// Everything src/snapshot, src/campaign, src/rundb, and src/obs persist —
// snapshots, journal frames, campaign results, run-store frames,
// metric/trace exports — must flow
// through util/fsio's atomic_write_file or the util/faultfs primitives
// (xopen/xwrite/...): that is what makes the artifacts crash-atomic and
// what puts them inside the fault-injection surface tools/drill
// exercises. A raw ofstream, fopen("w"), or ::open(O_WRONLY|...) in those
// subsystems silently escapes both guarantees. Read-side I/O (ifstream,
// fopen("r"), open(O_RDONLY)) is untouched. A write that must stay raw —
// e.g. an out-of-band debug channel — carries `// dc-rawio: <reason>`.

bool is_durable_artifact_path(std::string_view path) {
  return path.find("src/snapshot") != std::string_view::npos ||
         path.find("src/campaign") != std::string_view::npos ||
         path.find("src/rundb") != std::string_view::npos ||
         path.find("src/obs") != std::string_view::npos;
}

const std::set<std::string, std::less<>> kOpenWriteFlags = {
    "O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"};

void rule_r14(Ctx& ctx) {
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    const Token& t = ctx.tok(i);
    if (t.kind != TokKind::kIdentifier) continue;
    bool raw_write = false;
    std::string detail;
    if (t.text == "ofstream") {
      raw_write = true;
      detail = "std::ofstream";
    } else if (t.text == "fopen" || t.text == "freopen") {
      if (!ctx.punct_at(i + 1, "(")) continue;
      // Write iff the mode literal contains w/a/+. A computed (non-literal)
      // mode is flagged conservatively.
      const std::size_t close = match_paren(ctx, i + 1);
      bool literal_mode = false;
      bool writes = true;
      for (std::size_t j = i + 2; j < close; ++j) {
        if (ctx.tok(j).kind != TokKind::kString) continue;
        literal_mode = true;
        const std::string& mode = ctx.tok(j).text;
        writes = mode.find('w') != std::string::npos ||
                 mode.find('a') != std::string::npos ||
                 mode.find('+') != std::string::npos;
      }
      if (literal_mode && !writes) continue;
      raw_write = true;
      detail = t.text + "()";
    } else if (t.text == "open" || t.text == "openat" || t.text == "creat") {
      if (!ctx.punct_at(i + 1, "(")) continue;
      if (t.text == "creat") {
        raw_write = true;
      } else {
        // `open` is a common method name (JournalAppender::open); only the
        // POSIX call with write-side O_* flags in its argument list counts.
        const std::size_t close = match_paren(ctx, i + 1);
        for (std::size_t j = i + 2; j < close && !raw_write; ++j) {
          raw_write = ctx.tok(j).kind == TokKind::kIdentifier &&
                      kOpenWriteFlags.count(ctx.tok(j).text) != 0;
        }
        if (!raw_write) continue;
      }
      detail = "::" + t.text + "()";
    } else {
      continue;
    }
    if (ctx.lx.rawio_lines.count(t.line) != 0) continue;
    ctx.report(t.line, "dc-r14", "error",
               detail +
                   " writes through a raw descriptor in a durable-artifact "
                   "path; route it through util/fsio (atomic_write_file) or "
                   "the util/faultfs primitives so crash-atomicity and fault "
                   "injection cover it — a deliberately raw channel must "
                   "carry a '// dc-rawio: <reason>' annotation");
  }
}

}  // namespace

FileAnalysis analyze_file(const std::string& display_path,
                          std::string_view source) {
  const FileLex lx = lex(source);
  FileAnalysis result;
  result.waivers = lx.waivers;
  Ctx ctx{display_path, lx, result};
  rule_r1(ctx);
  rule_r2(ctx);
  if (is_sim_hot_path(display_path)) rule_r3(ctx);
  rule_r4(ctx);
  if (is_header_path(display_path)) rule_r5(ctx);
  if (is_traced_subsystem_path(display_path)) rule_r7(ctx);
  if (is_queue_source_path(display_path)) rule_r8(ctx);
  rule_r11(ctx);
  if (is_campaign_path(display_path)) rule_r13(ctx);
  if (is_durable_artifact_path(display_path)) rule_r14(ctx);
  std::sort(result.diagnostics.begin(), result.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  result.facts = extract_facts(display_path, lx);
  return result;
}

LintResult lint_source(const std::string& display_path, std::string_view source) {
  FileAnalysis analysis = analyze_file(display_path, source);
  return {std::move(analysis.diagnostics), analysis.waived};
}

}  // namespace dc_lint

#include "project_model.hpp"

#include <algorithm>
#include <map>

#include "token_scan.hpp"

namespace dc_lint {
namespace {

bool is_header_path(std::string_view path) {
  return str_ends_with(path, ".h") || str_ends_with(path, ".hpp") ||
         str_ends_with(path, ".hxx") || str_ends_with(path, ".hh");
}

// --------------------------------------------------------------------------
// Class / member / persist extraction: one forward walk with a class-
// context stack. Data members follow the project convention of a trailing
// underscore, which is what lets a lexical pass tell `std::int64_t owned_;`
// from a method declaration without resolving types.

struct ClassFrame {
  std::size_t class_index;  // into facts.classes
  int body_depth;           // brace depth of the class body
};

// Skips the qualifiers that may sit between a parameter list and a method
// body: const, noexcept, override, final.
std::size_t skip_method_qualifiers(const FileLex& lx, std::size_t i) {
  while (tok_ident_at(lx, i, "const") || tok_ident_at(lx, i, "noexcept") ||
         tok_ident_at(lx, i, "override") || tok_ident_at(lx, i, "final")) {
    ++i;
  }
  return i;
}

void extract_classes_and_persists(const FileLex& lx, FileFacts& facts) {
  std::vector<ClassFrame> stack;
  int depth = 0;        // brace depth
  int paren_depth = 0;
  bool in_init = false;  // between a member's '=' and the ';'
  std::string pending_class;  // class head seen, waiting for its '{'
  int pending_line = 0;

  const std::size_t n = lx.tokens.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Token& t = lx.tokens[i];

    if (t.kind == TokKind::kPunct) {
      if (t.text == "{") {
        ++depth;
        in_init = false;
        if (!pending_class.empty()) {
          facts.classes.push_back({pending_class, pending_line, {}});
          stack.push_back({facts.classes.size() - 1, depth});
          pending_class.clear();
        }
      } else if (t.text == "}") {
        --depth;
        in_init = false;
        while (!stack.empty() && stack.back().body_depth > depth) stack.pop_back();
      } else if (t.text == "(") {
        ++paren_depth;
      } else if (t.text == ")") {
        if (paren_depth > 0) --paren_depth;
      } else if (t.text == ";") {
        in_init = false;
      } else if (t.text == "=") {
        in_init = true;
      }
      continue;
    }
    if (t.kind != TokKind::kIdentifier) continue;

    // Class/struct definition head. `enum class` is not a class; template
    // parameters (`template <class T>`) and forward declarations bail at
    // the punctuation scan below.
    if ((t.text == "class" || t.text == "struct") &&
        !(i > 0 && tok_ident_at(lx, i - 1, "enum"))) {
      if (i + 1 < n && lx.tokens[i + 1].kind == TokKind::kIdentifier) {
        std::size_t j = i + 2;
        bool seen_colon = false;
        bool is_definition = false;
        while (j < n) {
          const Token& h = lx.tokens[j];
          if (h.kind == TokKind::kPunct) {
            if (h.text == "{") { is_definition = true; break; }
            if (h.text == ";" || h.text == "(" || h.text == ")" ||
                h.text == "=" || h.text == ">" || h.text == ">>") {
              break;
            }
            if (h.text == "," && !seen_colon) break;
            if (h.text == ":") seen_colon = true;
            if (h.text == "<") { j = tok_skip_angles(lx, j); continue; }
          }
          ++j;
        }
        if (is_definition) {
          pending_class = lx.tokens[i + 1].text;
          pending_line = lx.tokens[i + 1].line;
        }
      }
      continue;
    }

    // Data member: trailing-underscore identifier in declarator position
    // at the immediate class-body depth.
    if (!stack.empty() && depth == stack.back().body_depth &&
        paren_depth == 0 && !in_init && t.text.size() > 1 &&
        t.text.back() == '_') {
      const bool decl_terminator =
          tok_punct_at(lx, i + 1, ";") || tok_punct_at(lx, i + 1, "=") ||
          tok_punct_at(lx, i + 1, "{") || tok_punct_at(lx, i + 1, "[");
      const bool member_access =
          i > 0 && (tok_punct_at(lx, i - 1, ".") || tok_punct_at(lx, i - 1, "->") ||
                    tok_punct_at(lx, i - 1, "::"));
      if (decl_terminator && !member_access) {
        MemberField field;
        field.name = t.text;
        field.line = t.line;
        field.is_volatile = lx.volatile_lines.count(t.line) != 0;
        facts.classes[stack.back().class_index].members.push_back(
            std::move(field));
      }
    }

    // Snapshot walk definitions.
    if (t.text != "persist" || !tok_punct_at(lx, i + 1, "(")) continue;

    std::string class_name;
    int decl_line = t.line;
    if (i >= 2 && tok_punct_at(lx, i - 1, "::") &&
        lx.tokens[i - 2].kind == TokKind::kIdentifier) {
      // Out-of-line: Class::persist(...). Calls (`Base::persist(io);`) are
      // ruled out below because a call is never followed by a '{' body.
      class_name = lx.tokens[i - 2].text;
      decl_line = lx.tokens[i - 2].line;
    } else if (!stack.empty() && depth == stack.back().body_depth &&
               !(i > 0 && (tok_punct_at(lx, i - 1, ".") ||
                           tok_punct_at(lx, i - 1, "->")))) {
      // In-class definition at the immediate class-body depth.
      class_name = facts.classes[stack.back().class_index].name;
    } else {
      continue;
    }

    const std::size_t close = tok_match_paren(lx, i + 1);
    const std::size_t open = skip_method_qualifiers(lx, close + 1);
    if (!tok_punct_at(lx, open, "{")) continue;  // declaration or call
    const std::size_t end = tok_match_brace(lx, open);

    PersistMethod method;
    method.class_name = std::move(class_name);
    method.line = decl_line;
    for (std::size_t m = open + 1; m < end; ++m) {
      if (lx.tokens[m].kind == TokKind::kIdentifier) {
        method.idents.insert(lx.tokens[m].text);
      }
    }
    facts.persists.push_back(std::move(method));
  }
}

// --------------------------------------------------------------------------
// Trace name-literal registrations.

// Splits the arguments of the call whose '(' is at `open` into top-level
// comma-separated token ranges [first, last).
std::vector<std::pair<std::size_t, std::size_t>> split_args(const FileLex& lx,
                                                            std::size_t open) {
  std::vector<std::pair<std::size_t, std::size_t>> args;
  const std::size_t close = tok_match_paren(lx, open);
  int depth = 0;
  std::size_t start = open + 1;
  for (std::size_t j = open; j <= close && j < lx.tokens.size(); ++j) {
    if (lx.tokens[j].kind != TokKind::kPunct) continue;
    const std::string& p = lx.tokens[j].text;
    if (p == "(" || p == "[" || p == "{") ++depth;
    else if (p == ")" || p == "]" || p == "}") --depth;
    if ((p == "," && depth == 1) || (j == close && depth == 0)) {
      if (j > start) args.emplace_back(start, j);
      start = j + 1;
    }
  }
  return args;
}

void extract_name_regs(const FileLex& lx, FileFacts& facts) {
  const std::size_t n = lx.tokens.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Token& t = lx.tokens[i];
    if (t.kind != TokKind::kIdentifier) continue;

    // TraceName x{"literal"} / TraceName x("literal"): a named interned-id
    // declaration. Empty literals are placeholders, not registrations.
    if (t.text == "TraceName" && i + 4 < n &&
        lx.tokens[i + 1].kind == TokKind::kIdentifier &&
        (tok_punct_at(lx, i + 2, "{") || tok_punct_at(lx, i + 2, "(")) &&
        lx.tokens[i + 3].kind == TokKind::kString &&
        (tok_punct_at(lx, i + 4, "}") || tok_punct_at(lx, i + 4, ")"))) {
      if (!lx.tokens[i + 3].text.empty()) {
        facts.name_regs.push_back(
            {NameReg::kTraceDecl, lx.tokens[i + 3].text, lx.tokens[i + 3].line});
      }
      continue;
    }

    // Cached-name trace macros: the name literal is the 4th argument of
    // DC_TRACE_INSTANT_C (sink, now, category, name) and the 5th of
    // DC_TRACE_SPAN_C (sink, start, dur, category, name).
    const bool instant_c = t.text == "DC_TRACE_INSTANT_C";
    const bool span_c = t.text == "DC_TRACE_SPAN_C";
    if ((instant_c || span_c) && tok_punct_at(lx, i + 1, "(")) {
      const auto args = split_args(lx, i + 1);
      const std::size_t idx = instant_c ? 3 : 4;
      if (idx < args.size() && args[idx].second - args[idx].first == 1 &&
          lx.tokens[args[idx].first].kind == TokKind::kString) {
        facts.name_regs.push_back(
            {instant_c ? NameReg::kTraceInstant : NameReg::kTraceSpan,
             lx.tokens[args[idx].first].text, lx.tokens[args[idx].first].line});
      }
    }
  }
}

// --------------------------------------------------------------------------
// Include resolution.

// Normalizes a '/'-separated path: resolves "." and ".." segments.
std::string normalize_path(std::string_view path) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= path.size()) {
    const std::size_t slash = path.find('/', start);
    const std::size_t end = slash == std::string_view::npos ? path.size() : slash;
    const std::string_view part = path.substr(start, end - start);
    if (part == "..") {
      if (!parts.empty()) parts.pop_back();
    } else if (!part.empty() && part != ".") {
      parts.emplace_back(part);
    }
    if (slash == std::string_view::npos) break;
    start = slash + 1;
  }
  std::string out;
  for (const std::string& part : parts) {
    if (!out.empty()) out += '/';
    out += part;
  }
  return out;
}

std::string dirname_of(std::string_view path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string_view::npos ? std::string()
                                         : std::string(path.substr(0, slash));
}

// The module of a path under src/ ("sim", "core", ...), or "" for
// everything else (tools, bench, tests — the unconstrained top layer).
std::string module_of(std::string_view path) {
  if (!str_starts_with(path, "src/")) return {};
  const std::string_view rest = path.substr(4);
  const std::size_t slash = rest.find('/');
  if (slash == std::string_view::npos) return {};  // file directly in src/
  return std::string(rest.substr(0, slash));
}

}  // namespace

FileFacts extract_facts(const std::string& display_path, const FileLex& lx) {
  FileFacts facts;
  facts.path = display_path;
  facts.is_header = is_header_path(display_path);
  const PreprocInfo preproc = scan_preproc(lx);
  facts.includes = preproc.includes;
  facts.has_guard = preproc.has_pragma_once || preproc.has_classic_guard;
  extract_classes_and_persists(lx, facts);
  extract_name_regs(lx, facts);
  return facts;
}

// --------------------------------------------------------------------------
// ProjectModel.

ProjectModel::ProjectModel(const std::vector<const FileFacts*>& facts)
    : facts_(facts) {
  for (const FileFacts* f : facts_) known_files_.insert(f->path);
  for (const FileFacts* f : facts_) {
    const std::string dir = dirname_of(f->path);
    for (const IncludeDirective& inc : f->includes) {
      if (inc.angled) continue;  // system headers are outside the model
      std::string resolved;
      for (const std::string& candidate :
           {normalize_path(dir.empty() ? inc.target : dir + "/" + inc.target),
            normalize_path("src/" + inc.target), normalize_path(inc.target)}) {
        if (known_files_.count(candidate) != 0) {
          resolved = candidate;
          break;
        }
      }
      if (resolved.empty()) continue;  // external to the analyzed set
      edges_.push_back({f->path, std::move(resolved), inc.line, inc.conditional});
    }
  }
}

std::vector<std::string> ProjectModel::includes_of(const std::string& path) const {
  std::vector<std::string> out;
  for (const IncludeEdge& e : edges_) {
    if (e.from == path) out.push_back(e.to);
  }
  return out;
}

const std::set<std::string>* module_dependencies(std::string_view module) {
  // Direct dependencies mirror the library DAG in src/*/CMakeLists.txt;
  // the closure mirrors PUBLIC transitivity. Adding a module to src/
  // means declaring its place here (and in the build), which is the
  // point: the layering is a reviewed decision, not an accident.
  static const std::map<std::string, std::set<std::string>, std::less<>>
      kClosure = [] {
        const std::map<std::string, std::set<std::string>, std::less<>> direct = {
            {"util", {}},
            {"snapshot", {"util"}},
            {"sim", {"util"}},
            {"obs", {"util", "snapshot"}},
            {"cluster", {"util", "snapshot"}},
            {"workload", {"util"}},
            {"workflow", {"util"}},
            {"sched", {"util"}},
            {"core",
             {"util", "sim", "cluster", "workload", "workflow", "sched",
              "snapshot", "obs"}},
            {"metrics", {"util", "core"}},
            {"cost", {"util", "cluster"}},
            {"rundb", {"util", "snapshot", "obs", "core"}},
            {"campaign", {"util", "snapshot", "core", "metrics", "rundb"}},
        };
        std::map<std::string, std::set<std::string>, std::less<>> closure;
        for (const auto& [name, deps] : direct) {
          std::set<std::string> all = deps;
          std::vector<std::string> work(deps.begin(), deps.end());
          while (!work.empty()) {
            const std::string dep = work.back();
            work.pop_back();
            const auto it = direct.find(dep);
            if (it == direct.end()) continue;
            for (const std::string& next : it->second) {
              if (all.insert(next).second) work.push_back(next);
            }
          }
          closure[name] = std::move(all);
        }
        return closure;
      }();
  const auto it = kClosure.find(module);
  return it == kClosure.end() ? nullptr : &it->second;
}

std::vector<Diagnostic> ProjectModel::check_layering() const {
  std::vector<Diagnostic> out;

  for (const IncludeEdge& e : edges_) {
    const std::string from_module = module_of(e.from);
    if (from_module.empty()) continue;  // tools/bench/tests: top layer
    const std::string to_module = module_of(e.to);
    if (to_module.empty()) {
      out.push_back({e.from, e.line, "dc-r10", "error",
                     "src/" + from_module + " includes '" + e.to +
                         "', which is outside src/: library code may not "
                         "depend on tools or benchmarks"});
      continue;
    }
    if (to_module == from_module) continue;
    const std::set<std::string>* deps = module_dependencies(from_module);
    if (deps == nullptr) {
      out.push_back({e.from, e.line, "dc-r10", "error",
                     "module 'src/" + from_module +
                         "' is not in the declared layering DAG; add it to "
                         "module_dependencies() (tools/dc_lint) and the "
                         "library DAG in src/CMakeLists.txt"});
      continue;
    }
    if (deps->count(to_module) == 0) {
      std::string allowed;
      for (const std::string& dep : *deps) {
        if (!allowed.empty()) allowed += ", ";
        allowed += dep;
      }
      out.push_back({e.from, e.line, "dc-r10", "error",
                     "layering violation: src/" + from_module +
                         " may not include src/" + to_module +
                         " (declared dependencies: " +
                         (allowed.empty() ? "none" : allowed) + ")"});
    }
  }

  // Include cycles over unconditional edges. Mutually exclusive #if
  // branches cannot form a cycle in any single build, so conditional
  // edges are exempt.
  std::map<std::string, std::vector<const IncludeEdge*>> adjacency;
  for (const IncludeEdge& e : edges_) {
    if (!e.conditional) adjacency[e.from].push_back(&e);
  }
  std::set<std::string> visited;
  std::set<std::string> reported;  // canonical cycle keys
  std::vector<const IncludeEdge*> path;
  std::map<std::string, std::size_t> on_path;  // node -> index in path

  // Iterative DFS; `frame.next` is the next adjacency index to explore.
  struct Frame {
    std::string node;
    std::size_t next = 0;
  };
  for (const FileFacts* f : facts_) {
    if (visited.count(f->path) != 0) continue;
    std::vector<Frame> stack;
    stack.push_back({f->path, 0});
    on_path[f->path] = 0;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto adj = adjacency.find(frame.node);
      if (adj == adjacency.end() || frame.next >= adj->second.size()) {
        visited.insert(frame.node);
        on_path.erase(frame.node);
        if (!path.empty()) path.pop_back();
        stack.pop_back();
        continue;
      }
      const IncludeEdge* edge = adj->second[frame.next++];
      const auto cycle_at = on_path.find(edge->to);
      if (cycle_at != on_path.end()) {
        // Reconstruct the cycle and canonicalize it (rotate so the
        // lexicographically smallest node leads) so each cycle is
        // reported exactly once no matter where the DFS entered it.
        std::vector<const IncludeEdge*> cycle(path.begin() + cycle_at->second,
                                              path.end());
        cycle.push_back(edge);
        std::size_t min_at = 0;
        for (std::size_t k = 1; k < cycle.size(); ++k) {
          if (cycle[k]->from < cycle[min_at]->from) min_at = k;
        }
        std::string key;
        std::string description = cycle[min_at]->from;
        for (std::size_t k = 0; k < cycle.size(); ++k) {
          const IncludeEdge* hop = cycle[(min_at + k) % cycle.size()];
          key += hop->from;
          key += '\n';
          description += " -> " + hop->to;
        }
        if (reported.insert(key).second) {
          out.push_back({cycle[min_at]->from, cycle[min_at]->line, "dc-r10",
                         "error", "include cycle: " + description});
        }
        continue;
      }
      if (visited.count(edge->to) != 0) continue;
      on_path[edge->to] = path.size() + 1;
      path.push_back(edge);
      stack.push_back({edge->to, 0});
    }
    path.clear();
    on_path.clear();
  }

  return out;
}

std::vector<Diagnostic> ProjectModel::check_snapshot_semantics() const {
  std::vector<Diagnostic> out;

  // Every identifier the walks of each class mention.
  std::map<std::string, std::set<std::string>> named;
  std::map<std::string, std::pair<const ClassInfo*, const FileFacts*>> classes;
  for (const FileFacts* f : facts_) {
    for (const PersistMethod& m : f->persists) {
      named[m.class_name].insert(m.idents.begin(), m.idents.end());
    }
    for (const ClassInfo& c : f->classes) {
      auto& slot = classes[c.name];
      // Prefer the declaration that carries the member list (the header);
      // a redeclaration without members never displaces it.
      if (slot.first == nullptr || (slot.first->members.empty() &&
                                    !c.members.empty())) {
        slot = {&c, f};
      }
    }
  }

  // Member completeness: every data member of the class is named by its
  // walk (recorded, or delegated as io.part(member_) or a section), or
  // carries a // dc-volatile annotation.
  for (const auto& [class_name, idents] : named) {
    const auto class_it = classes.find(class_name);
    if (class_it == classes.end() || class_it->second.first == nullptr) continue;
    const ClassInfo& info = *class_it->second.first;
    const FileFacts& decl_file = *class_it->second.second;
    for (const MemberField& member : info.members) {
      if (member.is_volatile || idents.count(member.name) != 0) continue;
      out.push_back({decl_file.path, member.line, "dc-r9", "error",
                     "data member '" + member.name + "' of snapshottable class " +
                         class_name + " is never named by its persist walk; "
                         "record it there or annotate the declaration with "
                         "// dc-volatile"});
    }
  }

  return out;
}

std::vector<Diagnostic> ProjectModel::check_name_registry() const {
  std::vector<Diagnostic> out;

  struct Site {
    const FileFacts* file;
    const NameReg* reg;
  };
  std::map<std::string, std::vector<Site>> by_name;
  for (const FileFacts* f : facts_) {
    for (const NameReg& reg : f->name_regs) by_name[reg.name].push_back({f, &reg});
  }

  for (const auto& [name, sites] : by_name) {
    // Duplicate TraceName declarations: two named interned-id objects for
    // one literal merge logically distinct event streams under one id.
    const Site* first_decl = nullptr;
    for (const Site& site : sites) {
      if (site.reg->kind != NameReg::kTraceDecl) continue;
      if (first_decl == nullptr) {
        first_decl = &site;
        continue;
      }
      out.push_back({site.file->path, site.reg->line, "dc-r12", "error",
                     "duplicate TraceName declaration for '" + name +
                         "': already declared at " + first_decl->file->path +
                         ":" + std::to_string(first_decl->reg->line) +
                         "; share one TraceName or rename the event"});
    }

    // A literal used as both an instant and a span name interns one id
    // for two event shapes, which makes trace summaries ambiguous.
    const Site* first_instant = nullptr;
    const Site* first_span = nullptr;
    for (const Site& site : sites) {
      if (site.reg->kind == NameReg::kTraceInstant && first_instant == nullptr) {
        first_instant = &site;
      }
      if (site.reg->kind == NameReg::kTraceSpan && first_span == nullptr) {
        first_span = &site;
      }
    }
    if (first_instant != nullptr && first_span != nullptr) {
      out.push_back({first_span->file->path, first_span->reg->line, "dc-r12",
                     "error",
                     "trace name '" + name + "' is emitted as a span here "
                         "and as an instant at " + first_instant->file->path +
                         ":" + std::to_string(first_instant->reg->line) +
                         "; one interned id cannot carry both event shapes"});
    }
  }

  return out;
}

}  // namespace dc_lint

// The cross-TU project model: per-file facts distilled from the token
// stream (pass 1), joined into a whole-project view (pass 2) that the
// semantic rule families run over.
//
//   * FileFacts — what one translation unit contributes: its resolved-to-
//     be includes, the classes it declares (with data members and their
//     dc-volatile annotations), the snapshot walks it defines (with every
//     identifier their bodies mention), and the trace/metric name
//     literals it registers.
//   * ProjectModel — the join: an include graph over the analyzed file
//     set plus symbol tables keyed by class name and registry name.
//
// Rules on top of the model:
//   dc-r9  snapshot semantic completeness (a data member its class's
//          persist walk never names) — the class's member list usually
//          lives in a header while the walk lives in a .cpp, which is
//          exactly the cross-TU join a per-file linter cannot make.
//   dc-r10 layering: src/<module> may include only its declared
//          dependency closure (the CMake library DAG), src may not reach
//          into tools/bench, and the include graph must be acyclic.
//   dc-r12 trace/metrics name-registry consistency across the whole tree.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "diagnostics.hpp"
#include "lexer.hpp"
#include "preprocessor.hpp"

namespace dc_lint {

struct MemberField {
  std::string name;
  int line = 0;
  bool is_volatile = false;  // carries a // dc-volatile annotation
};

struct ClassInfo {
  std::string name;
  int line = 0;
  std::vector<MemberField> members;
};

/// One X::persist definition (out-of-line or in-class): the class's
/// snapshot walk, which saves over a writer and restores over a reader.
struct PersistMethod {
  std::string class_name;
  int line = 0;
  std::set<std::string> idents;  // every identifier in the body
};

/// One registration of a name literal in the trace or metrics registry.
struct NameReg {
  enum Kind {
    kTraceDecl,     // TraceName x{"literal"} / TraceName x("literal")
    kTraceInstant,  // DC_TRACE_INSTANT_C(..., "literal", ...)
    kTraceSpan,     // DC_TRACE_SPAN_C(..., "literal", ...)
    kCounter,       // registry.add_counter("literal") / .counter(...)
    kGauge,         // .set_gauge("literal", v) / .gauge(...)
    kStats,         // .stats("literal") / .find_stats(...)
    kHistogram,     // .histogram("literal", ...)
  };
  Kind kind = kTraceDecl;
  std::string name;
  int line = 0;
};

const char* name_reg_kind_label(NameReg::Kind kind);

struct FileFacts {
  std::string path;
  std::vector<IncludeDirective> includes;
  bool is_header = false;
  bool has_guard = false;  // #pragma once or classic guard
  std::vector<ClassInfo> classes;
  std::vector<PersistMethod> persists;
  std::vector<NameReg> name_regs;
};

/// Pass-1 fact extraction for one file.
FileFacts extract_facts(const std::string& display_path, const FileLex& lx);

/// A resolved include edge in the project graph.
struct IncludeEdge {
  std::string from;
  std::string to;    // normalized path within the analyzed set
  int line = 0;
  bool conditional = false;
};

class ProjectModel {
 public:
  /// Joins per-file facts. `facts` must outlive the model.
  explicit ProjectModel(const std::vector<const FileFacts*>& facts);

  /// Resolved project-internal include edges, in deterministic order.
  const std::vector<IncludeEdge>& edges() const { return edges_; }

  /// Direct includes of `path` within the analyzed set.
  std::vector<std::string> includes_of(const std::string& path) const;

  /// dc-r10: layering violations against the declared module DAG plus
  /// include-cycle detection (unconditional edges only).
  std::vector<Diagnostic> check_layering() const;

  /// dc-r9: snapshot semantic completeness over the joined symbol table.
  std::vector<Diagnostic> check_snapshot_semantics() const;

  /// dc-r12: trace/metric name-registry consistency.
  std::vector<Diagnostic> check_name_registry() const;

 private:
  std::vector<const FileFacts*> facts_;
  std::set<std::string> known_files_;
  std::vector<IncludeEdge> edges_;
};

/// The declared module layering (mirrors src/CMakeLists.txt's library
/// DAG). Returns the transitive dependency closure for `module` ("sim",
/// "core", ...), or nullptr for unknown modules.
const std::set<std::string>* module_dependencies(std::string_view module);

}  // namespace dc_lint

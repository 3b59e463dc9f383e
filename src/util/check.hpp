// Checked-build runtime audits.
//
// DC_INVARIANT is the runtime half of the project's correctness tooling:
// dc-lint (tools/dc_lint) enforces the determinism rules a lexer can see;
// DC_INVARIANT audits the properties only a running kernel can check —
// heap structure, slab free-list integrity, generation consistency,
// simulation-time monotonicity, each parallel sweep index run exactly once.
//
// Configure with -DDC_CHECKED=ON (the `checked` CMake preset) to compile
// the audits in; in every other build DC_INVARIANT expands to ((void)0) —
// the condition is *not evaluated* — so release hot paths carry zero cost.
// This is deliberately separate from assert(): asserts are cheap local
// preconditions kept on in RelWithDebInfo, while DC_INVARIANT guards whole
// data-structure walks that would wreck kernel throughput if always on.
//
// DC_CHECKED_ONLY(...) compiles its arguments only in checked builds — for
// audit counters and bookkeeping fields the audits need.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace dc {

#if defined(DC_CHECKED)
inline constexpr bool kCheckedBuild = true;
#else
inline constexpr bool kCheckedBuild = false;
#endif

[[noreturn]] inline void invariant_failed(const char* condition, const char* message,
                                          const char* file, int line) {
  std::fprintf(stderr, "DC_INVARIANT violated: %s\n  %s:%d: !(%s)\n", message,
               file, line, condition);
  std::abort();
}

}  // namespace dc

#if defined(DC_CHECKED)
#define DC_INVARIANT(condition, message)                                     \
  do {                                                                       \
    if (!(condition)) {                                                      \
      ::dc::invariant_failed(#condition, (message), __FILE__, __LINE__);     \
    }                                                                        \
  } while (false)
#define DC_CHECKED_ONLY(...) __VA_ARGS__
#else
#define DC_INVARIANT(condition, message) ((void)0)
#define DC_CHECKED_ONLY(...)
#endif

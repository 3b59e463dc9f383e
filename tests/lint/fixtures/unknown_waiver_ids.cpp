// Fixture: waivers naming rule ids that no dc-lint rule answers to —
// dc-r6 (retired) and dc-r99 (never existed).
// Expected: 2 diagnostics, both dc-waiver (lines 8 and 10). The clang-tidy
// check and the dc-rN placeholder on line 13 are ignored.
#include <cstdint>

namespace fixture {
inline int retired() { return 6; }  // NOLINT(dc-r6)

// NOLINTNEXTLINE(dc-r99)
inline int typo() { return 99; }

inline std::int64_t widen(int v) { return v; }  // NOLINT(google-runtime-int, dc-rN)
}  // namespace fixture

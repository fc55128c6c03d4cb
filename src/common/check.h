// Contract checking in the spirit of the Core Guidelines' Expects: a
// precondition check and a general invariant check. Violations abort with a
// message; checks stay on in release builds because scheduler invariants are
// cheap relative to message processing.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace cameo::detail {
[[noreturn]] inline void CheckFailed(const char* kind, const char* expr,
                                     const char* file, int line) {
  std::fprintf(stderr, "%s failed: %s at %s:%d\n", kind, expr, file, line);
  std::abort();
}
}  // namespace cameo::detail

#define CAMEO_CHECK(expr)                                                  \
  ((expr) ? static_cast<void>(0)                                           \
          : ::cameo::detail::CheckFailed("CHECK", #expr, __FILE__, __LINE__))

#define CAMEO_EXPECTS(expr)                                                \
  ((expr) ? static_cast<void>(0)                                           \
          : ::cameo::detail::CheckFailed("Precondition", #expr, __FILE__,  \
                                         __LINE__))

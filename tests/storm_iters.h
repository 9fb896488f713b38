#ifndef CHUNKCACHE_TESTS_STORM_ITERS_H_
#define CHUNKCACHE_TESTS_STORM_ITERS_H_

#include <climits>
#include <cstdlib>

namespace chunkcache {

/// Iterations of a storm test: CHUNKCACHE_STORM_ITERS when it holds a
/// positive integer, else `fallback`. The tier-2 storm entries in
/// tests/CMakeLists.txt set it to run more iterations than a plain run.
inline int StormIters(int fallback) {
  const char* s = std::getenv("CHUNKCACHE_STORM_ITERS");
  if (s == nullptr) return fallback;
  char* end = nullptr;
  const long n = std::strtol(s, &end, 10);
  return end != s && *end == '\0' && n > 0 && n <= INT_MAX
             ? static_cast<int>(n)
             : fallback;
}

}  // namespace chunkcache

#endif  // CHUNKCACHE_TESTS_STORM_ITERS_H_

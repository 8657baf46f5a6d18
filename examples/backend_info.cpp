// Prints the active SIMD kernel backend, how it was selected, and the full
// descriptor table, which says whether each backend runs on this CPU. CI
// uses `--check <name>` as a capability probe: exit 0 iff <name> is
// registered AND supported on this machine, so workflow legs can
// skip-with-notice instead of failing on runners without the required ISA.
#include <cstdio>
#include <cstring>
#include <exception>

#include "util/backend_registry.hpp"

int main(int argc, char** argv) {
  namespace simd = qhdl::util::simd;

  if (argc == 3 && std::strcmp(argv[1], "--check") == 0) {
    const simd::Backend* backend = simd::find_backend(argv[2]);
    if (backend == nullptr) {
      std::fprintf(stderr, "backend '%s' is not registered\n", argv[2]);
      return 1;
    }
    if (!backend->supported()) {
      std::fprintf(stderr, "backend '%s' is not supported on this CPU\n",
                   argv[2]);
      return 1;
    }
    std::printf("%s: registered and supported\n", argv[2]);
    return 0;
  }
  if (argc != 1) {
    std::fprintf(stderr, "usage: %s [--check <backend-name>]\n", argv[0]);
    return 2;
  }

  try {
    const simd::Backend& active = simd::active_backend();
    std::printf("active backend: %s (source: %s)\n", active.name,
                simd::active_source());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "backend selection failed: %s\n", e.what());
    return 1;
  }

  std::printf("registered backends (auto-detect priority order):\n");
  for (const simd::Backend* backend : simd::backends()) {
    std::printf("  %-10s priority=%-4d supported=%s\n", backend->name,
                backend->priority, backend->supported() ? "yes" : "no");
  }
  return 0;
}

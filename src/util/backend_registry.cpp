#include "util/backend_registry.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>

namespace qhdl::util::simd {

namespace detail {
// Registrar hooks defined in the backend TUs (src/util/simd/). Explicit
// calls instead of static-init registration: self-registering objects in a
// static library get dropped by the linker when nothing references their
// translation unit, and the call list also fixes the registration order so
// backends() is deterministic.
void register_generic_backend();
void register_avx2_backend();
}  // namespace detail

namespace {

struct Registry {
  std::mutex mutex;
  std::vector<const Backend*> entries;  // insertion order; sorted on read
  const Backend* active = nullptr;      // resolved selection (guarded)
  const char* source = "auto";
  std::string override_name;  // empty = no runtime override
};

Registry& registry() {
  static Registry instance;
  return instance;
}

// Lock-free fast path for ops(): the resolved descriptor, null until the
// first resolution and after set_backend invalidates it.
std::atomic<const Backend*> g_active{nullptr};

void ensure_registered() {
  static const bool once = [] {
    detail::register_generic_backend();
    detail::register_avx2_backend();
    return true;
  }();
  (void)once;
}

std::string registered_names_locked(const Registry& reg) {
  std::string names;
  for (const Backend* backend : reg.entries) {
    if (!names.empty()) names += ", ";
    names += backend->name;
  }
  return names;
}

const Backend* find_locked(const Registry& reg, std::string_view name) {
  for (const Backend* backend : reg.entries) {
    if (name == backend->name) return backend;
  }
  return nullptr;
}

/// Highest-priority supported backend. The generic backend
/// always registers with supported() == true, so auto-detect cannot fail —
/// this is the graceful fallback on CPUs without AVX.
const Backend* auto_detect_locked(const Registry& reg) {
  const Backend* best = nullptr;
  for (const Backend* backend : reg.entries) {
    if (!backend->supported()) continue;
    if (best == nullptr || backend->priority > best->priority) best = backend;
  }
  if (best == nullptr) {
    throw std::runtime_error(
        "qhdl backend registry: no supported backend registered");
  }
  return best;
}

#ifdef QHDL_BACKEND_DEFAULT
constexpr const char* kBuildDefault = QHDL_BACKEND_DEFAULT;
#else
constexpr const char* kBuildDefault = "";
#endif

/// Resolves the active backend under the registry lock; throws on a
/// misconfigured env/build selection (unknown or unsupported name).
void resolve_locked(Registry& reg) {
  const char* source = "auto";
  const std::string name = resolve_backend_name(
      reg.override_name.empty() ? nullptr : reg.override_name.c_str(),
      std::getenv("QHDL_BACKEND"), kBuildDefault, &source);
  if (name.empty()) {
    reg.active = auto_detect_locked(reg);
  } else {
    const Backend* chosen = find_locked(reg, name);
    if (chosen == nullptr) {
      throw std::runtime_error(
          "qhdl backend registry: unknown backend '" + name + "' (from " +
          source + " selection); registered: " + registered_names_locked(reg));
    }
    if (!chosen->supported()) {
      throw std::runtime_error(
          "qhdl backend registry: backend '" + name + "' (from " + source +
          " selection) is not supported on this CPU; use QHDL_BACKEND=generic "
          "or unset it for auto-detection");
    }
    reg.active = chosen;
  }
  reg.source = source;
  g_active.store(reg.active, std::memory_order_release);
}

}  // namespace

std::string resolve_backend_name(const char* override_name,
                                 const char* backend_env,
                                 const char* build_default,
                                 const char** source) {
  if (override_name != nullptr && override_name[0] != '\0') {
    *source = "override";
    return override_name;
  }
  if (backend_env != nullptr && backend_env[0] != '\0') {
    *source = "env";
    return backend_env;
  }
  if (build_default != nullptr && build_default[0] != '\0') {
    *source = "build";
    return build_default;
  }
  *source = "auto";
  return "";
}

void register_backend(const Backend* backend) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock{reg.mutex};
  if (find_locked(reg, backend->name) != nullptr) return;
  reg.entries.push_back(backend);
}

std::vector<const Backend*> backends() {
  ensure_registered();
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock{reg.mutex};
  std::vector<const Backend*> sorted = reg.entries;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Backend* a, const Backend* b) {
                     return a->priority > b->priority;
                   });
  return sorted;
}

const Backend* find_backend(std::string_view name) {
  ensure_registered();
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock{reg.mutex};
  return find_locked(reg, name);
}

const Backend& active_backend() {
  const Backend* cached = g_active.load(std::memory_order_acquire);
  if (cached != nullptr) return *cached;
  ensure_registered();
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock{reg.mutex};
  if (reg.active == nullptr) resolve_locked(reg);
  return *reg.active;
}

const char* active_source() {
  active_backend();  // force resolution
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock{reg.mutex};
  return reg.source;
}

void set_backend(std::optional<std::string_view> name) {
  ensure_registered();
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock{reg.mutex};
  if (name.has_value()) {
    const Backend* chosen = find_locked(reg, *name);
    if (chosen == nullptr) {
      throw std::invalid_argument(
          "qhdl backend registry: unknown backend '" + std::string{*name} +
          "'; registered: " + registered_names_locked(reg));
    }
    if (!chosen->supported()) {
      throw std::invalid_argument("qhdl backend registry: backend '" +
                                  std::string{*name} +
                                  "' is not supported on this CPU");
    }
    reg.override_name = *name;
  } else {
    reg.override_name.clear();
  }
  // Invalidate and re-resolve so the env/build/auto layers are re-read.
  reg.active = nullptr;
  g_active.store(nullptr, std::memory_order_release);
  resolve_locked(reg);
}

}  // namespace qhdl::util::simd

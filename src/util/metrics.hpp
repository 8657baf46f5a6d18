// One counter registry for every stats surface (DESIGN.md §17).
//
// Named, relaxed-atomic, monotonic counters. An owner registers each name
// once and keeps the returned reference (its address is stable), so a bump
// is one relaxed fetch_add: no name lookup, no lock. Readers take a
// snapshot(), which carries the one JSON and text rendering. Dotted names
// nest in JSON ("cache.unit_hits" -> {"cache":{"unit_hits":N}}); a name
// must not also prefix another ("a" next to "a.b"). Counters are
// diagnostics: no control flow reads them.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace qhdl::util {

/// One monotonic counter. Thread-safe; bumps are relaxed (order-free).
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Metrics;
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time copy of a registry, sorted by name.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t, std::less<>> values;

  /// Value of `name`; throws std::out_of_range when it was never
  /// registered (a typo must not read as zero).
  std::uint64_t at(std::string_view name) const;
  /// Dotted names nest: {"cache":{"unit_hits":N}, "accepted":N, ...}.
  Json to_json() const;
  /// One line: "name=value name=value ..." in name order.
  std::string to_string() const;
};

class Metrics {
 public:
  /// The process-wide registry (kernel.* and fastpath.* counters).
  static Metrics& global();

  /// Registers `name` at zero, or returns the existing counter. Takes the
  /// registry lock: call it once per name and keep the reference.
  Counter& counter(std::string_view name);

  MetricsSnapshot snapshot() const;

  /// Zeroes every counter (tests and bench epochs).
  void reset();

  /// Adds each value of `other` into this registry's counter of the same
  /// name. Names this registry never registered are skipped, so an owner's
  /// registrations alone fix what its snapshot lists.
  void merge(const MetricsSnapshot& other);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Counter, std::less<>> counters_;
};

}  // namespace qhdl::util

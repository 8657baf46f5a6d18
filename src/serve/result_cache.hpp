// Content-addressed result cache for the serving layer (DESIGN.md §15).
//
// The cache key is the PR-4 FNV-1a sweep-config hash
// (search::sweep_config_hash): two requests whose configs agree on every
// result-affecting field — and only those fields; threads/lookahead are
// excluded by construction — share one entry. An entry is a
// search::StudyCheckpoint, the same durable unit manifest the resume path
// uses, so "cache hit" and "bit-identical resume replay" are one mechanism:
// a repeated study replays every completed unit (byte-identical by the §10
// guarantee), and a cancelled or crashed job's completed units are already
// in the entry when the client retries.
//
// Memory is a bounded LRU of live checkpoints; when `dir` is set, an entry
// evicted from memory survives as `<dir>/<hash>.units.json` (written with
// util::atomic_write_file via the checkpoint's own flush) and is reloaded
// on the next request for that hash. With no dir the cache is memory-only
// and eviction discards results.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "search/checkpoint.hpp"
#include "search/experiment.hpp"
#include "util/metrics.hpp"

namespace qhdl::serve {

/// Thread-safe get-or-create LRU of per-config-hash checkpoints.
class ResultCache {
 public:
  /// `dir` enables disk spill ("" = memory-only); `capacity` bounds the
  /// number of in-memory entries (min 1).
  ResultCache(std::string dir, std::size_t capacity);

  /// The checkpoint for this config's hash: returns the live entry,
  /// reloads a spilled manifest from disk, or creates a fresh entry.
  /// Touches the entry in the LRU; may evict (and flush) the
  /// least-recently-used other entry. A stale or corrupt spill file is
  /// discarded with a warning, never an error.
  std::shared_ptr<search::StudyCheckpoint> checkpoint_for(
      const search::SweepConfig& config);

  /// Flushes every live entry to disk (no-op when memory-only). Called on
  /// graceful drain.
  void flush_all();

  /// Counters for the `stats` reply (DESIGN.md §17): cache.unit_hits /
  /// unit_misses (find() lookups on every checkpoint handed out, which
  /// therefore must not outlive the cache), cache.evictions,
  /// cache.disk_loads, and the gauge cache.entries (live entries now).
  util::MetricsSnapshot metrics() const;

 private:
  void evict_locked();

  std::string dir_;
  std::size_t capacity_;
  mutable std::mutex mutex_;
  /// LRU order, most recent first; the map points into the list.
  std::list<std::string> order_;
  struct Entry {
    std::shared_ptr<search::StudyCheckpoint> checkpoint;
    std::list<std::string>::iterator order_it;
  };
  std::unordered_map<std::string, Entry> entries_;
  util::Metrics metrics_;
  util::Counter& unit_hits_ = metrics_.counter("cache.unit_hits");
  util::Counter& unit_misses_ = metrics_.counter("cache.unit_misses");
  util::Counter& evictions_ = metrics_.counter("cache.evictions");
  util::Counter& disk_loads_ = metrics_.counter("cache.disk_loads");
};

}  // namespace qhdl::serve

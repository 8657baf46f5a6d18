#include "serve/result_cache.hpp"

#include <algorithm>
#include <filesystem>

#include "util/logging.hpp"

namespace qhdl::serve {

ResultCache::ResultCache(std::string dir, std::size_t capacity)
    : dir_(std::move(dir)), capacity_(std::max<std::size_t>(1, capacity)) {
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
      util::log_warn("result cache: cannot create " + dir_ + ": " +
                     ec.message() + " (falling back to memory-only)");
      dir_.clear();
    }
  }
}

std::shared_ptr<search::StudyCheckpoint> ResultCache::checkpoint_for(
    const search::SweepConfig& config) {
  const std::string hash = search::sweep_config_hash(config);
  std::lock_guard<std::mutex> lock(mutex_);

  const auto it = entries_.find(hash);
  if (it != entries_.end()) {
    order_.erase(it->second.order_it);
    order_.push_front(hash);
    it->second.order_it = order_.begin();
    return it->second.checkpoint;
  }

  const std::string path =
      dir_.empty() ? "" : dir_ + "/" + hash + ".units.json";
  auto checkpoint = std::make_shared<search::StudyCheckpoint>(
      path, hash, &unit_hits_, &unit_misses_);
  if (!path.empty()) {
    try {
      const std::size_t restored = checkpoint->load();
      if (restored > 0) {
        disk_loads_.add();
        util::log_info("result cache: restored " + std::to_string(restored) +
                       " units for " + hash + " from disk");
      }
    } catch (const std::exception& e) {
      // A stale or corrupt spill file must not fail the request — the
      // entry simply starts cold and overwrites the file on next flush.
      util::log_warn(std::string{"result cache: discarding spill file: "} +
                     e.what());
      checkpoint = std::make_shared<search::StudyCheckpoint>(
          path, hash, &unit_hits_, &unit_misses_);
    }
  }

  order_.push_front(hash);
  entries_.emplace(hash, Entry{checkpoint, order_.begin()});
  if (entries_.size() > capacity_) evict_locked();
  return checkpoint;
}

void ResultCache::evict_locked() {
  const std::string victim = order_.back();
  order_.pop_back();
  const auto it = entries_.find(victim);
  if (it == entries_.end()) return;
  if (!dir_.empty()) {
    try {
      it->second.checkpoint->flush();
    } catch (const std::exception& e) {
      util::log_warn(std::string{"result cache: evicted entry lost "
                                 "(flush failed): "} +
                     e.what());
    }
  }
  // A job still holding the shared_ptr keeps its checkpoint alive; the
  // cache just stops tracking it.
  entries_.erase(it);
  evictions_.add();
}

void ResultCache::flush_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (dir_.empty()) return;
  for (auto& [hash, entry] : entries_) {
    try {
      entry.checkpoint->flush();
    } catch (const std::exception& e) {
      util::log_warn(std::string{"result cache: flush of "} + hash +
                     " failed: " + e.what());
    }
  }
}

util::MetricsSnapshot ResultCache::metrics() const {
  util::MetricsSnapshot snapshot = metrics_.snapshot();
  std::lock_guard<std::mutex> lock(mutex_);
  snapshot.values["cache.entries"] = entries_.size();
  return snapshot;
}

}  // namespace qhdl::serve

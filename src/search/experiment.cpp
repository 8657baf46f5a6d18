#include "search/experiment.hpp"

#include <algorithm>
#include <deque>
#include <mutex>
#include <stdexcept>

#include "data/synthetic.hpp"
#include "search/checkpoint.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace qhdl::search {

namespace {

struct Counters {
  util::Metrics& m = util::Metrics::global();
  util::Counter& split_derivations = m.counter("data.split_derivations");
  util::Counter& split_hits = m.counter("data.split_hits");
};

Counters& counters() {
  static Counters instance;
  return instance;
}

// Registers both data.* names at start-up (see quantum/kernels.cpp).
[[maybe_unused]] const Counters& registered = counters();

/// The process-wide repetition data cache: at most kRepetitionCacheEntries
/// entries, the most recently used at the back.
struct RepetitionCache {
  struct Entry {
    std::string config_hash;
    std::size_t features = 0;
    std::size_t repetition = 0;
    std::shared_ptr<const RepetitionData> data;
  };
  std::mutex mutex;
  std::deque<Entry> entries;

  /// The entry for the key, moved to the back; null when absent. Requires
  /// `mutex` held.
  std::shared_ptr<const RepetitionData> touch_locked(
      const std::string& config_hash, std::size_t features,
      std::size_t repetition) {
    const auto it = std::find_if(
        entries.begin(), entries.end(), [&](const Entry& entry) {
          return entry.features == features &&
                 entry.repetition == repetition &&
                 entry.config_hash == config_hash;
        });
    if (it == entries.end()) return nullptr;
    Entry entry = std::move(*it);
    entries.erase(it);
    entries.push_back(std::move(entry));
    return entries.back().data;
  }
};

RepetitionCache& repetition_cache() {
  static RepetitionCache cache;
  return cache;
}

/// repetition_data with the key's config hash computed by the caller, so a
/// sweep hashes its config once rather than once per repetition.
std::shared_ptr<const RepetitionData> cached_repetition_data(
    const SweepConfig& config, const std::string& config_hash,
    std::size_t features, std::size_t repetition,
    const util::CancelToken* cancel) {
  RepetitionCache& cache = repetition_cache();
  {
    std::lock_guard<std::mutex> lock(cache.mutex);
    if (auto hit = cache.touch_locked(config_hash, features, repetition)) {
      counters().split_hits.add();
      return hit;
    }
  }
  // Derived outside the lock: a miss on one key never stalls lookups of
  // another (concurrent sweep levels, serve jobs).
  util::Rng stream =
      repetition_stream(config.search.seed, repetition, cancel);
  auto data = std::make_shared<const RepetitionData>(split_repetition(
      level_dataset(features, config), config.search, std::move(stream)));
  counters().split_derivations.add();

  std::lock_guard<std::mutex> lock(cache.mutex);
  // A concurrent first lookup of this key may have inserted it meanwhile;
  // its entry is bitwise equal to `data`, and sharing it keeps one copy.
  if (auto raced = cache.touch_locked(config_hash, features, repetition)) {
    return raced;
  }
  cache.entries.push_back(
      RepetitionCache::Entry{config_hash, features, repetition, data});
  while (cache.entries.size() > kRepetitionCacheEntries) {
    cache.entries.pop_front();
  }
  return data;
}

}  // namespace

std::string family_name(Family family) {
  switch (family) {
    case Family::Classical: return "classical";
    case Family::HybridBel: return "hybrid-bel";
    case Family::HybridSel: return "hybrid-sel";
  }
  return "?";
}

std::vector<ModelSpec> family_search_space(Family family) {
  switch (family) {
    case Family::Classical:
      return paper_classical_space();
    case Family::HybridBel:
      return paper_hybrid_space(qnn::AnsatzKind::BasicEntangler);
    case Family::HybridSel:
      return paper_hybrid_space(qnn::AnsatzKind::StronglyEntangling);
  }
  throw std::logic_error("family_search_space: unknown family");
}

data::Dataset level_dataset(std::size_t features, const SweepConfig& config) {
  // Mix the feature size into the seed so levels differ but remain
  // reproducible; families share the seed and therefore the dataset.
  const std::uint64_t seed =
      config.dataset_seed * 0x100000001b3ULL + features;
  if (config.geometry == BaseGeometry::Spiral) {
    return data::make_complexity_dataset(features, config.spiral, seed);
  }
  // Rings: same augmentation + noise schedule on a different base geometry.
  util::Rng rng{seed};
  const double noise = data::noise_for_features(features);
  const data::Dataset base =
      data::make_rings(config.spiral.points, config.spiral.classes,
                       noise * data::kAngleNoiseFactor, rng);
  return data::augment_features(base, features,
                                noise * data::kDerivedNoiseFactor, rng);
}

std::shared_ptr<const RepetitionData> repetition_data(
    const SweepConfig& config, std::size_t features, std::size_t repetition,
    const util::CancelToken* cancel) {
  const std::vector<std::size_t>& sizes = config.feature_sizes;
  if (std::find(sizes.begin(), sizes.end(), features) == sizes.end()) {
    throw std::invalid_argument(
        "unit field 'features' (" + std::to_string(features) +
        ") is not one of the sweep config's feature sizes");
  }
  return cached_repetition_data(config, sweep_config_hash(config), features,
                                repetition, cancel);
}

SweepResult run_complexity_sweep(Family family, const SweepConfig& config,
                                 StudyCheckpoint* checkpoint,
                                 WorkerPool* pool,
                                 const util::CancelToken* cancel,
                                 const ProgressFn* progress) {
  if (config.feature_sizes.empty()) {
    throw std::invalid_argument("run_complexity_sweep: no feature sizes");
  }
  const std::vector<ModelSpec> specs = family_search_space(family);
  const std::string config_hash = sweep_config_hash(config);

  SweepResult result;
  result.family = family;
  // Levels are fully independent (each derives its dataset seed from its
  // feature size and re-seeds its search from config.search.seed), so they
  // parallelize with bit-identical results; slots are pre-sized and filled
  // by index to keep the output order fixed. Every family of one config
  // shares the level's repetition data through the process-wide cache.
  result.levels.resize(config.feature_sizes.size());
  util::parallel_for(
      0, config.feature_sizes.size(), config.search.threads,
      [&](std::size_t i) {
        const std::size_t features = config.feature_sizes[i];
        util::throw_if_cancelled(cancel);
        util::log_info("sweep[" + family_name(family) +
                       "]: features=" + std::to_string(features));
        LevelResult level;
        level.features = features;
        ResumeContext resume;
        resume.checkpoint = checkpoint;
        resume.family = family_name(family);
        resume.features = features;
        resume.pool = pool;
        resume.cancel = cancel;
        resume.progress = progress;
        level.search = run_repeated_search(
            specs, features, config.spiral.classes, config.search, resume,
            [&](std::size_t repetition) {
              return cached_repetition_data(config, config_hash, features,
                                            repetition, cancel);
            });
        result.levels[i] = std::move(level);
      });
  return result;
}

}  // namespace qhdl::search

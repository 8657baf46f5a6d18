// Complexity sweeps: a repeated grid search at each feature size
// (10..110 step 10 in the paper), per model family.
#pragma once

#include "data/spiral.hpp"
#include "search/grid_search.hpp"
#include "search/search_space.hpp"

namespace qhdl::search {

enum class Family { Classical, HybridBel, HybridSel };

std::string family_name(Family family);

/// The paper's search space for a family (155 classical / 30 hybrid).
std::vector<ModelSpec> family_search_space(Family family);

/// Base 2-D geometry the complexity datasets are grown from. The paper uses
/// the spiral; Rings is provided as a robustness check (see
/// bench_robustness_rings).
enum class BaseGeometry { Spiral, Rings };

struct SweepConfig {
  /// Paper: {10, 20, ..., 110}.
  std::vector<std::size_t> feature_sizes = {10, 20, 30, 40,  50,  60,
                                            70, 80, 90, 100, 110};
  data::SpiralConfig spiral{};
  BaseGeometry geometry = BaseGeometry::Spiral;
  SearchConfig search{};
  /// Base seed; each feature size derives its own dataset seed from it.
  std::uint64_t dataset_seed = 7;
};

/// Result at one complexity level.
struct LevelResult {
  std::size_t features = 0;
  RepeatedSearchResult search;
};

struct SweepResult {
  Family family = Family::Classical;
  std::vector<LevelResult> levels;
};

class StudyCheckpoint;
class WorkerPool;

/// Runs the full complexity sweep for one family. Levels run concurrently
/// (config.search.threads wide, shared util::ThreadPool) with results
/// identical to the sequential walk. When `checkpoint` is non-null, each
/// completed candidate evaluation is recorded there and flushed atomically,
/// and previously completed units are replayed instead of retrained — a
/// resumed sweep is bit-identical to an uninterrupted one (DESIGN.md §10).
/// When `pool` is non-null, fresh units execute on its crash-isolated worker
/// processes (DESIGN.md §11) — still bit-identical, because each unit ships
/// the exact RNG streams the in-process search would consume.
/// When `cancel` is non-null, the sweep aborts with util::Cancelled at the
/// next unit-window boundary after the token fires (per-job cancellation
/// for the serve layer); completed units stay in the checkpoint, so a
/// retried job resumes instead of recomputing.
/// When `progress` is non-null, it fires after every committed unit window
/// (see ProgressEvent) — from concurrent level threads, so the handler must
/// be thread-safe. The serve layer uses this for streaming progress frames.
SweepResult run_complexity_sweep(Family family, const SweepConfig& config,
                                 StudyCheckpoint* checkpoint = nullptr,
                                 WorkerPool* pool = nullptr,
                                 const util::CancelToken* cancel = nullptr,
                                 const ProgressFn* progress = nullptr);

/// Convenience: the standard per-level dataset (shared across families so
/// the comparison is apples-to-apples).
data::Dataset level_dataset(std::size_t features, const SweepConfig& config);

/// Entries the process-wide repetition data cache keeps; the least
/// recently used is evicted first. A worker receives its units
/// grouped by (level, repetition), and a bench-scale study has at most six
/// level x repetition pairs, so eight entries get all the reuse there is.
inline constexpr std::size_t kRepetitionCacheEntries = 8;

/// The data of repetition `repetition` at complexity level `features`:
/// split_repetition of level_dataset(features, config) on
/// repetition_stream(config.search.seed, repetition). This is the one
/// derivation behind every consumer: run_complexity_sweep, evaluate_unit
/// (workers, persistent daemons, the degraded pool) and the serve `train`
/// job. Results come from one process-wide cache keyed by
/// (sweep_config_hash, features, repetition) that fills on first use and
/// holds kRepetitionCacheEntries entries; a hit derives nothing. Entries
/// are shared and never mutated. Thread-safe: concurrent first lookups of
/// one key may each derive it (bitwise-equal results), then share the
/// entry inserted first. Counts `data.split_derivations` and
/// `data.split_hits` in util::Metrics::global(). Polls `cancel` while
/// deriving the repetition stream. Throws std::invalid_argument naming
/// 'features' when `features` is not one of config.feature_sizes, before
/// deriving anything: the width sizes the dataset.
std::shared_ptr<const RepetitionData> repetition_data(
    const SweepConfig& config, std::size_t features, std::size_t repetition,
    const util::CancelToken* cancel = nullptr);

}  // namespace qhdl::search

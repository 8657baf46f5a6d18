// FLOPs-sorted, threshold-gated grid search (paper Sections III-D..III-G).
//
// Protocol per repetition:
//   1. Compute per-sample forward+backward FLOPs for every candidate
//      analytically, sort ascending.
//   2. Train candidates in order; each candidate gets `runs_per_model`
//      independent runs (fresh initialization), recording the highest train
//      and validation accuracy over epochs per run, averaged across runs.
//   3. The first candidate whose averaged accuracies both reach the
//      threshold wins; cheaper-first ordering makes it the least-FLOPs
//      solution. The whole procedure repeats `repetitions` times with fresh
//      RNG streams to absorb training stochasticity.
//
// All parallelism (speculative candidate lookahead, per-candidate runs,
// quantum batch rows) runs on the shared util::ThreadPool and is
// result-invariant in the thread count: RNG streams are pre-split in a
// fixed order and results commit in that order.
//
// Classical candidates train on the zero-allocation workspace fast path
// (nn/workspace.hpp): per-run models own their workspaces, GEMM packing
// scratch is thread_local, and the workspace arithmetic is bit-identical to
// the reference Module path — so the thread-count invariance above holds
// unchanged, and the reference kernel backend reproduces identical results
// on the reference path (see DESIGN.md §9).
#pragma once

#include <functional>
#include <optional>

#include "data/dataset.hpp"
#include "nn/trainer.hpp"
#include "search/candidate.hpp"
#include "util/cancel.hpp"

namespace qhdl::search {

struct SearchConfig {
  double accuracy_threshold = 0.90;
  std::size_t runs_per_model = 5;
  std::size_t repetitions = 5;
  nn::TrainConfig train{};  ///< epochs=100, batch=8, lr=1e-3 by default
  double validation_fraction = 0.2;
  qnn::Activation classical_activation = qnn::Activation::Tanh;
  flops::CostModel cost_model{};
  std::uint64_t seed = 42;
  /// If > 0: after the first run of a candidate, skip its remaining runs
  /// when best val accuracy < threshold − prune_margin (cheap reject).
  /// 0 reproduces the paper's full protocol. Run 0 always executes first
  /// and alone decides pruning, so the decision — and therefore the search
  /// outcome — is identical on the serial and parallel paths.
  double prune_margin = 0.0;
  /// Safety valve for bench drivers: examine at most this many candidates
  /// per repetition (0 = unlimited, the paper's setting).
  std::size_t max_candidates = 0;
  /// Concurrency width for every parallel stage (speculative candidate
  /// lookahead, a candidate's independent runs, quantum batch rows, sweep
  /// levels), all dispatched on the shared util::ThreadPool. 1 = fully
  /// sequential. Results are bit-identical for a given seed regardless of
  /// the thread count: every RNG stream is split up front in a fixed order
  /// and all results commit in that order.
  std::size_t threads = 1;
  /// Speculative candidate lookahead window for search_once: this many
  /// FLOPs-ordered candidates train concurrently, committing strictly in
  /// FLOPs order (candidates trained past the winner are discarded, so the
  /// "first winner" is the serial one). A window is cut at a winner replayed
  /// from a checkpoint: nothing behind it is trained. 0 = auto (= threads).
  std::size_t lookahead = 0;
  /// Graceful degradation budget: when a training run trips the non-finite
  /// guard (nn::NonFiniteError), retry it up to this many times on the next
  /// deterministic child stream before quarantining the run. Retries never
  /// touch other runs' pre-split streams, so healthy runs are bit-identical
  /// with or without a neighbour's failure.
  std::size_t run_retries = 1;
};

/// One guard trip during a candidate's training, recorded instead of
/// aborting the sweep. A run whose every attempt failed is quarantined: it
/// contributes nothing to the candidate's accuracy means.
struct RunFailure {
  std::size_t run = 0;      ///< run index within the candidate
  std::size_t attempt = 0;  ///< 0 = first attempt, 1.. = retries
  std::size_t epoch = 0;    ///< 0-based epoch where the guard tripped
  std::string cause;        ///< "loss" | "parameters" (NonFiniteError::kind)
};

/// Per-candidate training outcome. Accuracy means are taken over the
/// successful runs only; quarantined runs are excluded and listed in
/// `failures` so they can never poison the mean.
struct CandidateResult {
  ModelSpec spec;
  double avg_best_train_accuracy = 0.0;
  double avg_best_val_accuracy = 0.0;
  double flops = 0.0;            ///< per-sample fwd+bwd
  double flops_forward = 0.0;
  std::size_t parameter_count = 0;
  std::size_t runs = 0;          ///< successful runs (mean denominator)
  std::size_t failed_runs = 0;   ///< runs quarantined after all retries
  std::vector<RunFailure> failures;  ///< every guard trip, retried or not
  bool meets_threshold = false;
};

/// One repetition's outcome.
struct SearchOutcome {
  std::optional<CandidateResult> winner;  ///< empty if nothing met threshold
  std::vector<CandidateResult> evaluated;  ///< in training order
  std::size_t candidates_trained = 0;
  /// Units replayed from the checkpoint and units trained fresh (committed
  /// or discarded past the winner). Not part of the serialized result; the
  /// serve layer reports them as a reply's cache hits and misses.
  std::size_t units_replayed = 0;
  std::size_t units_trained = 0;
};

/// All repetitions plus aggregates over the winners.
struct RepeatedSearchResult {
  std::vector<SearchOutcome> repetitions;
  /// Means over repetitions that produced a winner.
  double mean_winner_flops = 0.0;
  double mean_winner_parameters = 0.0;
  std::size_t successful_repetitions = 0;
  /// The least-FLOPs winner across repetitions (paper Section IV-E picks
  /// "the smallest model from the set of five best-performing configs").
  std::optional<CandidateResult> smallest_winner;
};

class StudyCheckpoint;
class WorkerPool;

/// Durable-execution context for a repeated search. When `checkpoint` is
/// non-null, every completed work unit — one candidate evaluation, keyed by
/// (family, features, repetition, candidate index in FLOPs order) — is
/// recorded and atomically flushed at unit boundaries, and units already in
/// the checkpoint are replayed instead of retrained. Lookups run in FLOPs
/// order and stop at the first replayed winner, so a fully replayed search
/// trains nothing, not even the speculative slots of its last window. The
/// resumed search still draws every RNG split in the original order, so a
/// resumed run is bit-identical to an uninterrupted one (see DESIGN.md §10).
///
/// When `pool` is non-null, fresh units are dispatched to the crash-isolated
/// worker pool (DESIGN.md §11) instead of the in-process thread pool. Only
/// run_complexity_sweep sets this: pooled units must be reproducible from
/// the SweepConfig alone, which a standalone search's arbitrary dataset is
/// not. Results remain bit-identical to in-process execution because each
/// unit ships the pre-split run streams drawn below.
/// When `cancel` is non-null, search_once polls it at the same unit-window
/// boundaries where it polls the process interrupt flag, and throws
/// util::Cancelled when the token fires — per-job cancellation for the
/// serve layer (client disconnect, per-job deadline) without touching the
/// process-global interrupt. Completed units are already recorded and
/// flushed, so a retried job resumes from where cancellation landed.
/// Live progress notification, fired by the resume-aware search_once after
/// each unit window commits (and flushes to the checkpoint, when present).
/// Replayed checkpoint units count toward units_done, so a resumed search
/// reports absolute progress. Fired from whatever thread runs the level —
/// handlers must be thread-safe when sweep levels run concurrently.
struct ProgressEvent {
  std::string family;          ///< "" for a standalone search
  std::size_t features = 0;    ///< complexity level
  std::size_t repetition = 0;  ///< 0-based repetition index
  std::size_t units_done = 0;  ///< committed candidates this repetition
  std::size_t total_units = 0; ///< candidates this repetition will examine
  std::string last_spec;       ///< spec of the newest committed candidate
  double last_val_accuracy = 0.0;
  bool winner_found = false;   ///< the repetition already has its winner
};
using ProgressFn = std::function<void(const ProgressEvent&)>;

struct ResumeContext {
  StudyCheckpoint* checkpoint = nullptr;
  std::string family;        ///< family_name() of the sweep ("" standalone)
  std::size_t features = 0;  ///< complexity level
  WorkerPool* pool = nullptr;
  const util::CancelToken* cancel = nullptr;
  /// Optional progress sink (see ProgressEvent); not owned, may be null.
  const ProgressFn* progress = nullptr;
};

/// Sorts specs ascending by analytic FLOPs (stable, deterministic).
std::vector<ModelSpec> sort_by_flops(std::vector<ModelSpec> specs,
                                     std::size_t features,
                                     std::size_t classes,
                                     const SearchConfig& config);

/// Trains one candidate (`runs_per_model` runs) and reports averages.
CandidateResult evaluate_candidate(const ModelSpec& spec,
                                   const data::TrainValSplit& split,
                                   const SearchConfig& config,
                                   util::Rng& rng);

/// Same, but on pre-split run streams (one per runs_per_model, consumed in
/// order). This is the worker-pool entry point: the supervisor splits the
/// streams, ships them, and the worker calls this — making a worker's
/// arithmetic bit-identical to the in-process search's.
CandidateResult evaluate_candidate(const ModelSpec& spec,
                                   const data::TrainValSplit& split,
                                   const SearchConfig& config,
                                   std::vector<util::Rng>& run_rngs);

/// One search repetition over pre-sorted specs.
SearchOutcome search_once(const std::vector<ModelSpec>& sorted_specs,
                          const data::TrainValSplit& split,
                          const SearchConfig& config, util::Rng& rng);

/// Resume-aware repetition: replays checkpointed units, records and flushes
/// fresh ones at unit boundaries, and polls for SIGINT/SIGTERM between
/// units (util::Interrupted). `repetition` keys the checkpoint units.
SearchOutcome search_once(const std::vector<ModelSpec>& sorted_specs,
                          const data::TrainValSplit& split,
                          const SearchConfig& config, util::Rng& rng,
                          const ResumeContext& resume,
                          std::size_t repetition);

/// Full repeated search on a dataset (splits internally per repetition).
RepeatedSearchResult run_repeated_search(const std::vector<ModelSpec>& specs,
                                         const data::Dataset& dataset,
                                         const SearchConfig& config);

/// Resume-aware repeated search (see ResumeContext).
RepeatedSearchResult run_repeated_search(const std::vector<ModelSpec>& specs,
                                         const data::Dataset& dataset,
                                         const SearchConfig& config,
                                         const ResumeContext& resume);

}  // namespace qhdl::search

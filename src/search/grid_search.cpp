#include "search/grid_search.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "data/preprocess.hpp"
#include "flops/profiler.hpp"
#include "search/checkpoint.hpp"
#include "search/worker_pool.hpp"
#include "util/fault_injection.hpp"
#include "util/interrupt.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace qhdl::search {

namespace {

flops::FlopsReport spec_report(const ModelSpec& spec, std::size_t features,
                               std::size_t classes,
                               const SearchConfig& config) {
  return flops::profile_layers(
      spec_layer_infos(spec, features, classes, config.classical_activation),
      config.cost_model);
}

}  // namespace

std::vector<ModelSpec> sort_by_flops(std::vector<ModelSpec> specs,
                                     std::size_t features,
                                     std::size_t classes,
                                     const SearchConfig& config) {
  std::vector<std::pair<double, std::size_t>> keyed;
  keyed.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    keyed.emplace_back(
        spec_report(specs[i], features, classes, config).total(), i);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<ModelSpec> sorted;
  sorted.reserve(specs.size());
  for (const auto& [flops_total, index] : keyed) {
    sorted.push_back(std::move(specs[index]));
  }
  return sorted;
}

namespace {

/// Pre-split run streams. Drawing all streams before any work is scheduled
/// is what makes results independent of the execution order / thread count.
std::vector<util::Rng> split_run_rngs(const SearchConfig& config,
                                      util::Rng& rng) {
  if (config.runs_per_model == 0) {
    throw std::invalid_argument(
        "evaluate_candidate: runs_per_model must be >= 1");
  }
  std::vector<util::Rng> run_rngs;
  run_rngs.reserve(config.runs_per_model);
  for (std::size_t run = 0; run < config.runs_per_model; ++run) {
    run_rngs.push_back(rng.split());
  }
  return run_rngs;
}

/// One run's quarantined outcome: a history when any attempt survived the
/// non-finite guard, plus a record of every guard trip along the way.
struct RunOutcome {
  std::optional<nn::TrainHistory> history;
  std::vector<RunFailure> failures;
};

/// Retry stream derivation: attempt 0 consumes the run's pre-split stream;
/// attempt k consumes the k-th chained child of it. Children are derived
/// from a copy, so retries never advance the repetition stream and never
/// perturb any other run — a neighbour's failure leaves healthy runs
/// bit-identical.
util::Rng attempt_stream(const util::Rng& base, std::size_t attempt) {
  util::Rng stream = base;
  for (std::size_t a = 0; a < attempt; ++a) stream = stream.split();
  return stream;
}

/// evaluate_candidate body on already-split run streams (one per run).
/// search_once pre-splits streams for a whole lookahead window through this
/// path so speculative training consumes exactly the stream sequence the
/// serial walk would.
CandidateResult evaluate_candidate_with_rngs(const ModelSpec& spec,
                                             const data::TrainValSplit& split,
                                             const SearchConfig& config,
                                             std::vector<util::Rng>& run_rngs) {
  const std::size_t features = split.train.features();
  const std::size_t classes = split.train.classes;

  CandidateResult result;
  result.spec = spec;
  const auto report = spec_report(spec, features, classes, config);
  result.flops = report.total();
  result.flops_forward = report.forward_total;
  result.parameter_count = report.parameter_count;

  nn::TrainConfig train_config = config.train;
  train_config.early_stop_accuracy = config.accuracy_threshold;

  // Each run builds its own model/optimizer/workspace, so concurrent runs
  // share no mutable state: train_classifier's workspace fast path keeps all
  // training buffers per-model and the GEMM packing scratch is thread_local.
  const auto execute_run = [&](util::Rng& run_rng) {
    auto model = build_from_spec(spec, features, classes,
                                 config.classical_activation, run_rng);
    nn::Adam optimizer{train_config.learning_rate};
    return nn::train_classifier(*model, optimizer, split.train.x,
                                split.train.y, split.val.x, split.val.y,
                                train_config, run_rng);
  };

  // A non-finite loss/gradient quarantines the attempt instead of aborting
  // the sweep: bounded retries on the next deterministic child stream, then
  // skip-and-record. The quarantined run is excluded from the means.
  const auto run_with_quarantine = [&](std::size_t run) {
    RunOutcome outcome;
    for (std::size_t attempt = 0; attempt <= config.run_retries; ++attempt) {
      util::Rng stream = attempt_stream(run_rngs[run], attempt);
      try {
        outcome.history = execute_run(stream);
        return outcome;
      } catch (const nn::NonFiniteError& error) {
        outcome.failures.push_back(
            RunFailure{run, attempt, error.epoch(), error.kind()});
        util::log_warn("search: " + spec.to_string() + " run " +
                       std::to_string(run) + " attempt " +
                       std::to_string(attempt) + ": " + error.what() +
                       (attempt < config.run_retries
                            ? " — retrying on next stream"
                            : " — quarantining run"));
      }
    }
    return outcome;
  };

  double train_sum = 0.0;
  double val_sum = 0.0;
  std::size_t successes = 0;
  // Commit in run order so the floating-point sums match the serial path
  // bit-for-bit (and exactly match the pre-quarantine arithmetic when every
  // run is healthy).
  const auto commit = [&](RunOutcome& outcome) {
    for (RunFailure& failure : outcome.failures) {
      result.failures.push_back(std::move(failure));
    }
    if (outcome.history.has_value()) {
      train_sum += outcome.history->best_train_accuracy;
      val_sum += outcome.history->best_val_accuracy;
      ++successes;
    } else {
      ++result.failed_runs;
    }
  };

  // Run 0 always executes first, on the calling thread, and the prune
  // decision is taken from it alone. This makes the serial and parallel
  // paths follow literally the same decision sequence: the thread count
  // changes only where runs 1..N-1 execute, never which runs execute.
  RunOutcome first = run_with_quarantine(0);
  // Far below threshold after a full budget: averaging more runs cannot
  // rescue this candidate at bench scale. A quarantined run 0 never prunes:
  // there is no accuracy to judge by.
  const bool pruned =
      config.prune_margin > 0.0 && first.history.has_value() &&
      first.history->best_val_accuracy <
          config.accuracy_threshold - config.prune_margin;
  commit(first);

  if (!pruned && config.runs_per_model > 1) {
    std::vector<RunOutcome> outcomes(config.runs_per_model);
    util::parallel_for(1, config.runs_per_model, config.threads,
                       [&](std::size_t run) {
                         outcomes[run] = run_with_quarantine(run);
                       });
    for (std::size_t run = 1; run < config.runs_per_model; ++run) {
      commit(outcomes[run]);
    }
  }

  result.runs = successes;
  if (successes > 0) {
    result.avg_best_train_accuracy =
        train_sum / static_cast<double>(successes);
    result.avg_best_val_accuracy = val_sum / static_cast<double>(successes);
  }
  result.meets_threshold =
      !pruned && successes > 0 &&
      result.avg_best_train_accuracy >= config.accuracy_threshold &&
      result.avg_best_val_accuracy >= config.accuracy_threshold;
  return result;
}

}  // namespace

CandidateResult evaluate_candidate(const ModelSpec& spec,
                                   const data::TrainValSplit& split,
                                   const SearchConfig& config,
                                   util::Rng& rng) {
  std::vector<util::Rng> run_rngs = split_run_rngs(config, rng);
  return evaluate_candidate_with_rngs(spec, split, config, run_rngs);
}

CandidateResult evaluate_candidate(const ModelSpec& spec,
                                   const data::TrainValSplit& split,
                                   const SearchConfig& config,
                                   std::vector<util::Rng>& run_rngs) {
  if (run_rngs.size() != config.runs_per_model) {
    throw std::invalid_argument(
        "evaluate_candidate: expected " +
        std::to_string(config.runs_per_model) + " run streams, got " +
        std::to_string(run_rngs.size()));
  }
  return evaluate_candidate_with_rngs(spec, split, config, run_rngs);
}

SearchOutcome search_once(const std::vector<ModelSpec>& sorted_specs,
                          const data::TrainValSplit& split,
                          const SearchConfig& config, util::Rng& rng) {
  return search_once(sorted_specs, split, config, rng, ResumeContext{}, 0);
}

SearchOutcome search_once(const std::vector<ModelSpec>& sorted_specs,
                          const data::TrainValSplit& split,
                          const SearchConfig& config, util::Rng& rng,
                          const ResumeContext& resume,
                          std::size_t repetition) {
  SearchOutcome outcome;
  std::size_t limit = sorted_specs.size();
  if (config.max_candidates > 0) {
    limit = std::min(limit, config.max_candidates);
  }
  // Speculative lookahead: train the next `window` FLOPs-ordered candidates
  // concurrently, then commit their results strictly in FLOPs order. The
  // committed sequence — including where the search stops — is identical to
  // the serial walk; candidates trained past the winner are discarded.
  std::size_t window = std::max<std::size_t>(
      1, config.lookahead > 0 ? config.lookahead : config.threads);
  // With a worker pool the window is the dispatch batch; widen it so every
  // worker process has a unit in flight. Window size never changes results
  // (streams are drawn in FLOPs order regardless), only scheduling.
  if (resume.pool != nullptr) {
    window = std::max(window, resume.pool->worker_count());
  }

  std::size_t next = 0;
  while (next < limit && !outcome.winner.has_value()) {
    util::throw_if_interrupted();
    util::throw_if_cancelled(resume.cancel);
    const std::size_t count = std::min(window, limit - next);

    // Each candidate's run streams are split from the repetition stream in
    // FLOPs order before any work is scheduled — the exact sequence the
    // serial walk draws — so training is independent of both the window
    // size and the thread count. Checkpointed candidates draw their splits
    // too: a resumed search consumes the stream sequence of an
    // uninterrupted one, which is what makes resume bit-identical.
    std::vector<std::vector<util::Rng>> window_rngs;
    window_rngs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      window_rngs.push_back(split_run_rngs(config, rng));
    }

    // Units already in the checkpoint replay their recorded results. The
    // lookups run in FLOPs order and stop at the first replayed winner: the
    // commit loop stops there too, so the slots behind it (`live` onwards)
    // are neither looked up nor trained. Their streams were drawn above, so
    // the repetition stream still advances exactly as in the serial walk.
    std::vector<std::optional<CandidateResult>> replayed(count);
    std::size_t live = count;
    if (resume.checkpoint != nullptr) {
      for (std::size_t i = 0; i < live; ++i) {
        replayed[i] = resume.checkpoint->find(UnitKey{
            resume.family, resume.features, repetition, next + i});
        if (replayed[i].has_value()) {
          ++outcome.units_replayed;
          if (replayed[i]->meets_threshold) live = i + 1;
        } else {
          ++outcome.units_trained;
        }
      }
    } else {
      outcome.units_trained += count;
    }

    std::vector<CandidateResult> results(live);
    if (resume.pool != nullptr) {
      // Crash-isolated path: ship every fresh unit (with its pre-drawn
      // streams) to the pool and scatter results back by window slot. The
      // pool returns results in submission order, so the commit loop below
      // is unchanged — and identical to the in-process path's.
      std::vector<WorkUnit> units;
      std::vector<std::size_t> slots;
      for (std::size_t i = 0; i < live; ++i) {
        if (replayed[i].has_value()) {
          results[i] = *replayed[i];
          continue;
        }
        WorkUnit unit;
        unit.key = UnitKey{resume.family, resume.features, repetition,
                           next + i};
        unit.spec = sorted_specs[next + i];
        unit.streams = window_rngs[i];
        units.push_back(std::move(unit));
        slots.push_back(i);
      }
      std::vector<CandidateResult> pooled =
          resume.pool->evaluate(std::move(units));
      for (std::size_t u = 0; u < pooled.size(); ++u) {
        results[slots[u]] = std::move(pooled[u]);
      }
    } else {
      util::parallel_for(0, live, config.threads, [&](std::size_t i) {
        if (replayed[i].has_value()) {
          results[i] = *replayed[i];
        } else {
          results[i] = evaluate_candidate_with_rngs(
              sorted_specs[next + i], split, config, window_rngs[i]);
        }
      });
    }

    for (std::size_t i = 0; i < live; ++i) {
      const CandidateResult& result = results[i];
      // Unit boundary: the injectable kill point. A crash here loses at
      // most this window's unflushed units; the resumed search retrains
      // them from the same streams and lands on the same bytes.
      util::FaultInjector::instance().on_unit_boundary(
          resume.family + "/f" + std::to_string(resume.features) + "/r" +
          std::to_string(repetition) + "/c" + std::to_string(next + i));
      if (resume.checkpoint != nullptr && !replayed[i].has_value()) {
        resume.checkpoint->record(
            UnitKey{resume.family, resume.features, repetition, next + i},
            result);
      }
      util::log_info("search: " + result.spec.to_string() + " flops=" +
                     std::to_string(result.flops) + " train_acc=" +
                     std::to_string(result.avg_best_train_accuracy) +
                     " val_acc=" +
                     std::to_string(result.avg_best_val_accuracy) +
                     (result.meets_threshold ? "  <- winner" : "") +
                     (replayed[i].has_value() ? "  (from checkpoint)" : ""));
      outcome.evaluated.push_back(result);
      if (result.meets_threshold) {
        outcome.winner = result;
        break;
      }
    }
    if (resume.checkpoint != nullptr) resume.checkpoint->flush();
    // Progress fires only after the window is committed AND flushed: every
    // unit a handler hears about is durable, so a consumer acting on the
    // event (UI, serve progress frame) can never observe work a crash
    // would take back.
    if (resume.progress != nullptr && *resume.progress != nullptr &&
        !outcome.evaluated.empty()) {
      ProgressEvent event;
      event.family = resume.family;
      event.features = resume.features;
      event.repetition = repetition;
      event.units_done = outcome.evaluated.size();
      event.total_units = limit;
      event.last_spec = outcome.evaluated.back().spec.to_string();
      event.last_val_accuracy =
          outcome.evaluated.back().avg_best_val_accuracy;
      event.winner_found = outcome.winner.has_value();
      (*resume.progress)(event);
    }
    next += count;
  }
  outcome.candidates_trained = outcome.evaluated.size();
  return outcome;
}

util::Rng repetition_stream(std::uint64_t seed, std::size_t repetition,
                            const util::CancelToken* cancel) {
  util::Rng root{seed};
  util::Rng stream = root;
  for (std::size_t rep = 0; rep <= repetition; ++rep) {
    util::throw_if_cancelled(cancel);
    stream = root.split();
  }
  return stream;
}

RepetitionData split_repetition(const data::Dataset& dataset,
                                const SearchConfig& config, util::Rng stream) {
  data::TrainValSplit split =
      data::stratified_split(dataset, config.validation_fraction, stream);
  data::standardize_split(split);
  return RepetitionData{std::move(split), stream};
}

RepeatedSearchResult run_repeated_search(const std::vector<ModelSpec>& specs,
                                         const data::Dataset& dataset,
                                         const SearchConfig& config) {
  return run_repeated_search(specs, dataset, config, ResumeContext{});
}

RepeatedSearchResult run_repeated_search(const std::vector<ModelSpec>& specs,
                                         const data::Dataset& dataset,
                                         const SearchConfig& config,
                                         const ResumeContext& resume) {
  dataset.validate();
  return run_repeated_search(
      specs, dataset.features(), dataset.classes, config, resume,
      [&](std::size_t repetition) {
        return std::make_shared<const RepetitionData>(split_repetition(
            dataset, config, repetition_stream(config.seed, repetition)));
      });
}

RepeatedSearchResult run_repeated_search(const std::vector<ModelSpec>& specs,
                                         std::size_t features,
                                         std::size_t classes,
                                         const SearchConfig& config,
                                         const ResumeContext& resume,
                                         const RepetitionSource& source) {
  if (specs.empty()) {
    throw std::invalid_argument("run_repeated_search: empty search space");
  }

  const std::vector<ModelSpec> sorted =
      sort_by_flops(specs, features, classes, config);

  RepeatedSearchResult result;
  for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
    util::throw_if_cancelled(resume.cancel);
    const std::shared_ptr<const RepetitionData> data = source(rep);
    util::Rng stream = data->stream;
    result.repetitions.push_back(
        search_once(sorted, data->split, config, stream, resume, rep));
  }

  double flops_sum = 0.0;
  double param_sum = 0.0;
  for (const SearchOutcome& outcome : result.repetitions) {
    if (!outcome.winner.has_value()) continue;
    ++result.successful_repetitions;
    flops_sum += outcome.winner->flops;
    param_sum += static_cast<double>(outcome.winner->parameter_count);
    if (!result.smallest_winner.has_value() ||
        outcome.winner->flops < result.smallest_winner->flops) {
      result.smallest_winner = outcome.winner;
    }
  }
  if (result.successful_repetitions > 0) {
    const double n = static_cast<double>(result.successful_repetitions);
    result.mean_winner_flops = flops_sum / n;
    result.mean_winner_parameters = param_sum / n;
  }
  util::log_info(util::Metrics::global().snapshot().to_string());
  return result;
}

}  // namespace qhdl::search

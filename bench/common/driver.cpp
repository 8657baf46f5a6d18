#include "common/driver.hpp"

#include <cstdio>
#include <filesystem>

#include "search/checkpoint.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace qhdl::bench {

void add_protocol_options(util::Cli& cli) {
  cli.add_flag("paper",
               "Run the paper's full protocol (5 runs x 5 repetitions, 100 "
               "epochs, 1500 points, features 10..110) instead of the "
               "reduced bench protocol");
  cli.add_flag("force", "Recompute sweeps even if cached results exist");
  cli.add_flag("verbose", "Log search progress");
  cli.add_string("results-dir", "qhdl_results",
                 "Directory for sweep unit manifests and emitted CSV files");
  cli.add_int("seed", 42, "Search seed (dataset seeds derive from it)");
  cli.add_int("threads", 1,
              "Concurrency for the search (candidate lookahead, per-"
              "candidate runs, quantum batches, sweep levels); results are "
              "identical for any value");
}

Protocol protocol_from_cli(const util::Cli& cli) {
  Protocol protocol;
  protocol.paper = cli.flag("paper");
  protocol.config =
      protocol.paper ? core::paper_scale() : core::bench_scale();
  protocol.config.search.seed =
      static_cast<std::uint64_t>(cli.get_int("seed"));
  protocol.config.search.threads =
      static_cast<std::size_t>(cli.get_int("threads"));
  protocol.results_dir = cli.get_string("results-dir");
  if (cli.flag("verbose")) {
    util::set_log_level(util::LogLevel::Info);
  }
  std::filesystem::create_directories(protocol.results_dir);
  return protocol;
}

search::SweepResult load_or_run_sweep(search::Family family,
                                      const Protocol& protocol, bool force) {
  const std::string name = search::family_name(family);
  const std::string hash = search::sweep_config_hash(protocol.config);
  const std::string path =
      protocol.results_dir + "/sweep_" + name + "_" + hash + ".units.json";
  if (force) std::filesystem::remove(path);
  search::StudyCheckpoint checkpoint{path, hash};
  try {
    const std::size_t restored = checkpoint.load();
    if (restored > 0) {
      std::printf("[cache] %s sweep: %zu units from %s\n", name.c_str(),
                  restored, path.c_str());
    }
  } catch (const std::exception& e) {
    // Stale or corrupt: delete it and start cold (load() of a missing
    // file clears whatever the failed load restored).
    util::log_warn("discarding sweep manifest " + path + ": " + e.what());
    std::filesystem::remove(path);
    checkpoint.load();
  }
  std::printf("[run] %s sweep (%s protocol) ...\n", name.c_str(),
              protocol.paper ? "paper" : "bench");
  std::fflush(stdout);
  search::SweepResult sweep =
      search::run_complexity_sweep(family, protocol.config, &checkpoint);
  checkpoint.flush();
  std::printf("[run] units -> %s\n", path.c_str());
  return sweep;
}

void print_banner(const std::string& experiment, const Protocol& protocol) {
  const auto& c = protocol.config;
  std::printf("=== %s ===\n", experiment.c_str());
  std::printf(
      "protocol: %s | points=%zu classes=%zu | threshold=%.2f | "
      "runs=%zu reps=%zu epochs=%zu batch=%zu lr=%g | levels:",
      protocol.paper ? "paper" : "bench (use --paper for full protocol)",
      c.spiral.points, c.spiral.classes, c.search.accuracy_threshold,
      c.search.runs_per_model, c.search.repetitions, c.search.train.epochs,
      c.search.train.batch_size, c.search.train.learning_rate);
  for (std::size_t f : c.feature_sizes) std::printf(" %zu", f);
  std::printf("\n\n");
}

void print_sweep_figure(const search::SweepResult& sweep) {
  for (const auto& level : sweep.levels) {
    std::printf("-- feature size %zu --\n", level.features);
    util::Table table({"repetition", "winner", "FLOPs (fwd+bwd)",
                       "parameters", "train acc", "val acc",
                       "models trained"});
    for (std::size_t rep = 0; rep < level.search.repetitions.size(); ++rep) {
      const auto& outcome = level.search.repetitions[rep];
      if (outcome.winner.has_value()) {
        const auto& w = *outcome.winner;
        table.add_row({std::to_string(rep + 1), w.spec.to_string(),
                       util::format_double(w.flops, 1),
                       std::to_string(w.parameter_count),
                       util::format_double(w.avg_best_train_accuracy, 3),
                       util::format_double(w.avg_best_val_accuracy, 3),
                       std::to_string(outcome.candidates_trained)});
      } else {
        table.add_row({std::to_string(rep + 1), "(no winner)", "-", "-", "-",
                       "-", std::to_string(outcome.candidates_trained)});
      }
    }
    table.print();
    if (level.search.successful_repetitions > 0) {
      std::printf("mean winner FLOPs = %s | mean winner params = %s\n\n",
                  util::format_double(level.search.mean_winner_flops, 1)
                      .c_str(),
                  util::format_double(level.search.mean_winner_parameters, 1)
                      .c_str());
    } else {
      std::printf("no repetition met the accuracy threshold\n\n");
    }
  }
}

void write_figure_csvs(const search::SweepResult& sweep,
                       const Protocol& protocol, const std::string& stem) {
  const std::string rows_path =
      protocol.results_dir + "/" + stem + "_winners.csv";
  const std::string means_path =
      protocol.results_dir + "/" + stem + "_means.csv";
  search::sweep_to_csv(sweep).write_file(rows_path);
  search::sweep_means_to_csv(sweep).write_file(means_path);
  std::printf("csv: %s\ncsv: %s\n", rows_path.c_str(), means_path.c_str());
}

}  // namespace qhdl::bench

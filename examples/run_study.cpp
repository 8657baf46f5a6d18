// One-command reproduction entry point: runs the paper's complete pipeline
// (classical + BEL + SEL complexity sweeps, Fig. 10 growth comparison,
// Table I ablation from the discovered winners) and writes every artifact
// to --out.
//
//   ./run_study                 # reduced protocol (~minutes)
//   ./run_study --paper         # full paper protocol (hours)
//   ./run_study --threads 4     # parallelize the search (same results)
//
// Execution is durable: completed candidate evaluations are checkpointed to
// <out>/study.checkpoint.json (atomic rename at every unit boundary), so a
// crashed or Ctrl-C'd study resumes where it left off — bit-identical to an
// uninterrupted run — simply by re-running the same command. --fresh
// discards an existing checkpoint; --no-checkpoint disables durability.
//
// --workers N runs candidate evaluations on N crash-isolated worker
// processes (re-exec'd instances of this binary in --worker-mode) with
// supervision: heartbeats, per-unit deadlines (--unit-timeout), bounded
// retries (--worker-retries), quarantine for units that keep failing, and
// graceful in-process degradation when workers cannot be spawned. Results
// stay bit-identical to --workers 0. See DESIGN.md §11.
//
// --listen host:port --workers-remote N shards the same units across
// qhdl_worker daemons on other hosts instead (README "Multi-host sweeps",
// DESIGN.md §16) — still byte-identical.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "core/config.hpp"
#include "core/report.hpp"
#include "core/study.hpp"
#include "search/checkpoint.hpp"
#include "search/worker_pool.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/interrupt.hpp"
#include "util/logging.hpp"

int main(int argc, char** argv) {
  using namespace qhdl;
  // Worker processes re-exec this binary; dispatch before any CLI parsing
  // so the protocol loop owns stdin/stdout exclusively.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--worker-mode") == 0) {
      return search::worker_main();
    }
  }
  util::Cli cli{"run_study",
                "Run the full HQNN complexity-scaling study (paper Fig. 3)"};
  cli.add_flag("paper", "Full paper protocol (5x5 runs, 100 epochs, "
                        "features 10..110) instead of the reduced one");
  cli.add_flag("quiet", "Suppress progress logging");
  cli.add_flag("fresh", "Discard any existing checkpoint and start over");
  cli.add_flag("no-checkpoint", "Disable durable execution (no resume)");
  cli.add_int("threads", 1,
              "Search concurrency (families, levels, candidate lookahead, "
              "runs, quantum batches); results are thread-count independent");
  cli.add_int("workers", 0,
              "Crash-isolated worker processes for candidate evaluation "
              "(0 = in-process); results are identical either way");
  cli.add_double("unit-timeout", 0.0,
                 "Wall-clock budget per candidate evaluation in seconds "
                 "when using --workers (0 = no deadline)");
  cli.add_int("worker-retries", 2,
              "Failed attempts allowed per unit beyond the first before it "
              "is quarantined (with --workers)");
  cli.add_string("listen", "",
                 "Listen address host:port (port 0 = ephemeral, printed at "
                 "startup) for remote qhdl_worker daemons; requires "
                 "--workers-remote");
  cli.add_int("workers-remote", 0,
              "Expected remote worker registrations; falls back to local "
              "--workers if none arrive within --handshake-timeout");
  cli.add_double("handshake-timeout", 5.0,
                 "Registration deadline in seconds (per connection, and for "
                 "the remote fleet before local fallback)");
  cli.add_double("steal-after", 0.0,
                 "Duplicate a unit onto an idle worker once it has been in "
                 "flight this many seconds (0 = off); first result wins, "
                 "results unchanged");
  cli.add_int("seed", 42, "Search seed");
  cli.add_string("out", "qhdl_results/study", "Output directory");
  try {
    if (!cli.parse(argc, argv)) return 0;
    if (!cli.flag("quiet")) util::set_log_level(util::LogLevel::Info);
    util::install_interrupt_handler();

    search::SweepConfig config =
        cli.flag("paper") ? core::paper_scale() : core::bench_scale();
    config.search.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    config.search.threads =
        static_cast<std::size_t>(cli.get_int("threads"));

    const std::string out = cli.get_string("out");
    std::filesystem::create_directories(out);

    // Durable execution: the checkpoint is keyed to the exact protocol via
    // sweep_config_hash, so a stale manifest (different seeds/scale) is
    // rejected instead of silently mixing results.
    const std::string checkpoint_path = out + "/study.checkpoint.json";
    std::unique_ptr<search::StudyCheckpoint> checkpoint;
    if (!cli.flag("no-checkpoint")) {
      if (cli.flag("fresh")) std::filesystem::remove(checkpoint_path);
      checkpoint = std::make_unique<search::StudyCheckpoint>(
          checkpoint_path, search::sweep_config_hash(config));
      const std::size_t restored = checkpoint->load();
      if (restored > 0) {
        std::printf("Resuming: %zu completed unit(s) restored from %s\n",
                    restored, checkpoint_path.c_str());
      }
    }

    // Supervised multi-process execution. The pool degrades to in-process
    // evaluation (same results, no isolation) if workers cannot spawn.
    std::unique_ptr<search::WorkerPool> pool;
    if (cli.get_int("workers") > 0 || cli.get_int("workers-remote") > 0) {
      search::WorkerPoolConfig pool_config;
      if (cli.get_int("workers") > 0) {
        pool_config.workers =
            static_cast<std::size_t>(cli.get_int("workers"));
      }
      pool_config.unit_timeout_ms = static_cast<std::uint64_t>(
          cli.get_double("unit-timeout") * 1000.0);
      pool_config.unit_retries =
          static_cast<std::size_t>(cli.get_int("worker-retries"));
      if (cli.get_int("workers-remote") > 0) {
        pool_config.remote_workers =
            static_cast<std::size_t>(cli.get_int("workers-remote"));
        pool_config.handshake_timeout_ms = static_cast<std::uint64_t>(
            cli.get_double("handshake-timeout") * 1000.0);
        if (!cli.get_string("listen").empty() &&
            !search::parse_host_port(cli.get_string("listen"),
                                     &pool_config.listen_host,
                                     &pool_config.listen_port)) {
          throw std::runtime_error(
              "--listen requires host:port (e.g. --listen 0.0.0.0:7200)");
        }
      }
      pool_config.steal_after_ms = static_cast<std::uint64_t>(
          cli.get_double("steal-after") * 1000.0);
      pool = std::make_unique<search::WorkerPool>(config, pool_config);
      if (pool->listen_port() != 0) {
        std::printf("listening for qhdl_worker daemons on %s:%u\n",
                    pool_config.listen_host.c_str(), pool->listen_port());
      }
      if (pool->degraded()) {
        std::fprintf(stderr,
                     "warning: worker pool degraded to in-process "
                     "execution: %s\n",
                     pool->degraded_reason().c_str());
      }
    }

    std::printf("Running the %s protocol; artifacts -> %s/\n\n",
                cli.flag("paper") ? "PAPER" : "reduced bench", out.c_str());
    const core::ComplexityStudy study{config};
    const core::StudyResult result = study.run(checkpoint.get(), pool.get());

    if (pool) {
      std::printf("worker pool: %s\n", pool->metrics().to_string().c_str());
    }

    // Per-family winner tables (Figs. 6-9 data).
    for (const auto* sweep :
         {&result.classical, &result.hybrid_bel, &result.hybrid_sel}) {
      const std::string stem = search::family_name(sweep->family);
      search::sweep_to_csv(*sweep).write_file(out + "/" + stem +
                                              "_winners.csv");
      search::sweep_means_to_csv(*sweep).write_file(out + "/" + stem +
                                                    "_means.csv");
    }

    // Fig. 10 growth comparison.
    std::printf("\n=== Growth comparison (paper Fig. 10) ===\n");
    std::fputs(core::growth_comparison_to_string(result.growth).c_str(),
               stdout);
    core::growth_comparison_to_csv(result.growth)
        .write_file(out + "/fig10_growth.csv");

    // Table I ablation from the winners this study actually found.
    std::printf("\n=== Hybrid FLOPs ablation from discovered winners "
                "(paper Table I) ===\n");
    std::fputs(core::ablation_to_string(result.ablation).c_str(), stdout);
    core::ablation_to_csv(result.ablation)
        .write_file(out + "/table1_ablation.csv");

    // Full manifest + human-readable report.
    result.to_json().write_file(out + "/study.json");
    util::atomic_write_file(out + "/report.md",
                            core::study_report_markdown(result, config));
    std::printf("\nmanifest: %s/study.json\nreport:   %s/report.md\n",
                out.c_str(), out.c_str());

    // The study completed: the checkpoint has served its purpose and would
    // otherwise resume-skip the whole study on the next run.
    if (checkpoint) std::filesystem::remove(checkpoint_path);
  } catch (const util::Interrupted&) {
    // Completed units were flushed at every unit boundary; nothing to save.
    std::fprintf(stderr,
                 "\ninterrupted: progress saved; re-run the same command to "
                 "resume\n");
    return 130;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

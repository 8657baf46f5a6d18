// Shared infrastructure for the figure/table bench drivers.
//
// Every driver accepts the same protocol flags (`--paper` switches from the
// reduced bench protocol to the paper's full protocol) and keeps each
// family's sweep as a search::StudyCheckpoint unit manifest under
// --results-dir, so that drivers which consume the same sweep (Figs. 6-10)
// replay each other's work instead of recomputing it (DESIGN.md §10).
#pragma once

#include <string>

#include "core/config.hpp"
#include "search/results.hpp"
#include "util/cli.hpp"

namespace qhdl::bench {

struct Protocol {
  search::SweepConfig config;
  bool paper = false;
  std::string results_dir = "qhdl_results";
};

/// Registers the shared protocol flags on a Cli.
void add_protocol_options(util::Cli& cli);

/// Builds the protocol from parsed flags.
Protocol protocol_from_cli(const util::Cli& cli);

/// Runs the family's sweep against its unit manifest
/// `<results-dir>/sweep_<family>_<sweep_config_hash>.units.json`: units
/// already recorded there replay instead of retraining, so a cached sweep,
/// a resumed one and a fresh one return the same SweepResult. A manifest
/// that fails to load is discarded with a warning; `force` deletes it first.
search::SweepResult load_or_run_sweep(search::Family family,
                                      const Protocol& protocol,
                                      bool force = false);

/// Prints the standard bench banner (what is being reproduced, protocol).
void print_banner(const std::string& experiment, const Protocol& protocol);

/// Prints the Fig. 6/7/8-style per-level table: one row per repetition's
/// winner (spec, FLOPs, params, accuracies) plus the level mean.
void print_sweep_figure(const search::SweepResult& sweep);

/// Writes the per-repetition rows and per-level means CSVs for a figure.
void write_figure_csvs(const search::SweepResult& sweep,
                       const Protocol& protocol, const std::string& stem);

}  // namespace qhdl::bench

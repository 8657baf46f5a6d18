// Study presets. `paper_scale` mirrors the paper's exact protocol
// (Section III-F / IV); `bench_scale` shrinks run counts and epochs so the
// full bench suite completes in minutes while preserving the protocol's
// structure (documented in EXPERIMENTS.md).
#pragma once

#include "search/experiment.hpp"

namespace qhdl::core {

/// Paper protocol: 5 runs x 5 repetitions, 100 epochs, batch 8, lr 1e-3,
/// features 10..110 step 10, threshold 0.90.
search::SweepConfig paper_scale();

/// Reduced protocol for CI/bench runs: 2 runs x 2 repetitions, 80 epochs,
/// feature subset {10, 60, 110}, prune margin 0.10, at most 40 candidates.
search::SweepConfig bench_scale();

/// Tiny protocol for unit tests: 1 run x 1 repetition, few epochs,
/// features {6}.
search::SweepConfig test_scale();

}  // namespace qhdl::core

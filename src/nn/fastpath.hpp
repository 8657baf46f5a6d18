// Classical-training fast-path observability.
//
// train_classifier routes classical Sequential models through the
// preallocated workspace trainer (nn/workspace.hpp): fused GEMM + bias +
// activation forward, fused softmax-cross-entropy loss, in-place backward
// and Adam step with zero steady-state heap allocations. Under the
// `reference` kernel backend (QHDL_BACKEND=reference,
// util/backend_registry.hpp) every run takes the reference
// Module::forward/backward path instead, which is how the two paths are
// compared. This header owns per-path run/step counters so tests and
// benchmarks can assert which path actually executed.
//
// Counters are process-global relaxed atomics: diagnostics, never control
// flow.
#pragma once

#include <cstdint>
#include <string>

namespace qhdl::nn::fastpath {

/// Point-in-time copy of the dispatch counters.
struct FastpathStatsSnapshot {
  std::uint64_t workspace_runs = 0;   ///< train_classifier calls on the
                                      ///< workspace path
  std::uint64_t reference_runs = 0;   ///< calls on the Module reference path
  std::uint64_t workspace_steps = 0;  ///< fused train steps executed
  std::string to_string() const;
};

// Counter bumps (relaxed; called once per run / per step).
void count_workspace_run();
void count_reference_run();
void count_workspace_steps(std::uint64_t steps);

/// Copies the current counters.
FastpathStatsSnapshot stats();

/// Zeroes all counters (tests / bench epochs).
void reset_stats();

}  // namespace qhdl::nn::fastpath

// Training fast-path observability.
//
// train_classifier routes classical Sequential models and the paper's
// hybrids through the preallocated workspace trainer (nn/workspace.hpp):
// fused GEMM + bias + activation forward, the QuantumLayer (exact, noisy
// or finite-shot) as a quantum stage, fused softmax-cross-entropy loss,
// in-place backward and Adam step with zero steady-state heap allocations.
// Amplitude-encoded quantum layers and models that are not a Sequential
// take the Module::forward/backward path. This header bumps
// per-path run/step counters so tests and benchmarks can assert which path
// actually executed.
//
// The counters live in the process-wide util::Metrics registry
// (DESIGN.md §17): fastpath.workspace_runs and fastpath.module_runs
// (train_classifier calls per path) and fastpath.workspace_steps (fused
// train steps). Diagnostics, never control flow.
#pragma once

#include <cstdint>

namespace qhdl::nn::fastpath {

// Counter bumps (relaxed; called once per run / per step).
void count_workspace_run();
void count_module_run();
void count_workspace_steps(std::uint64_t steps);

}  // namespace qhdl::nn::fastpath

// Kernel dispatch observability.
//
// The state-vector simulator routes every gate through one of a handful of
// specialized kernels (see DESIGN.md §8): diagonal phase multiplies for
// RZ/PhaseShift/S/T/Z/CZ, real-rotation updates for RX/RY, index
// permutations for X/CNOT/SWAP, and dense complex 2x2 matvecs for
// everything else. This header owns per-kernel dispatch counters, so the
// FLOPs cost model's predicted gate mix can be checked against what the
// simulator actually executed (flops::classify_circuit /
// flops::dispatch_comparison_to_string). Which path a gate takes is decided
// by the active kernel backend alone: the `reference` backend
// (QHDL_BACKEND=reference, util/backend_registry.hpp) routes every gate
// through the generic dense-matrix path and runs circuits unfused.
//
// Counters are process-global relaxed atomics: cheap, thread-safe, and
// deliberately order-free (they are diagnostics, never control flow).
#pragma once

#include <cstdint>
#include <string>

namespace qhdl::quantum {

/// Point-in-time copy of the dispatch counters.
struct KernelStatsSnapshot {
  std::uint64_t diagonal = 0;       ///< RZ / PhaseShift / S / T / Z / CZ
  std::uint64_t real_rotation = 0;  ///< RX / RY fast paths
  std::uint64_t permutation = 0;    ///< X / CNOT / SWAP
  std::uint64_t controlled = 0;     ///< CRX / CRY / CRZ (dense on half pairs)
  std::uint64_t double_flip = 0;    ///< RXX / RYY / RZZ
  std::uint64_t generic = 0;        ///< dense 2x2 matvec over all pairs
  std::uint64_t two_qubit_dense = 0;  ///< dense 4x4 matvec (fused gate pairs)
  std::uint64_t fused = 0;          ///< gate chains merged into one matrix
  std::uint64_t fused_gates = 0;    ///< gates absorbed into those chains
  std::uint64_t batched_rows = 0;   ///< row-gates executed by the SoA batch path

  /// Individual gate applications (a fused chain counts once).
  std::uint64_t total_dispatches() const {
    return diagonal + real_rotation + permutation + controlled + double_flip +
           generic + two_qubit_dense;
  }
  std::string to_string() const;
};

namespace kernels {

// Counter bumps (relaxed; called from the hot loops in statevector.cpp).
void count_diagonal();
void count_real_rotation();
void count_permutation();
void count_controlled();
void count_double_flip();
void count_generic();
void count_two_qubit_dense();
void count_fused(std::uint64_t gates_absorbed);
void count_batched_rows(std::uint64_t rows);

/// Copies the current counters.
KernelStatsSnapshot stats();

/// Zeroes all counters (tests / bench epochs).
void reset_stats();

}  // namespace kernels
}  // namespace qhdl::quantum

// Kernel dispatch observability.
//
// The state-vector simulator routes every gate through one of a handful of
// specialized kernels (see DESIGN.md §8): diagonal phase multiplies for
// RZ/PhaseShift/S/T/Z/CZ, real-rotation updates for RX/RY, index
// permutations for X/CNOT/SWAP, and dense complex 2x2 matvecs for
// everything else. This header bumps per-kernel dispatch counters, so the
// FLOPs cost model's predicted gate mix can be checked against what the
// simulator actually executed (flops::classify_circuit /
// flops::dispatch_comparison_to_string). Which path a gate takes is decided
// by the active kernel backend alone: the `reference` backend
// (QHDL_BACKEND=reference, util/backend_registry.hpp) routes every gate
// through the generic dense-matrix path and runs circuits unfused.
//
// The counters live in the process-wide util::Metrics registry
// (DESIGN.md §17) under kernel.*: diagonal, real_rotation, permutation,
// controlled, double_flip, generic, two_qubit_dense (one per gate
// application; a fused chain counts once), fused and fused_gates (chains
// merged into one matrix and the gates they absorbed), batched_rows
// (row-gates run by multi-row batches; a StateVector is a one-row batch and
// is not counted, so the counter tells batched hybrid execution from
// single-state execution). Read them with
// util::Metrics::global().snapshot(); they are diagnostics, never control
// flow.
#pragma once

#include <cstdint>

namespace qhdl::quantum::kernels {

// Counter bumps: one relaxed fetch_add each, called from the gate kernels
// in statevector_batch.cpp.
void count_diagonal();
void count_real_rotation();
void count_permutation();
void count_controlled();
void count_double_flip();
void count_generic();
void count_two_qubit_dense();
void count_fused(std::uint64_t gates_absorbed);
void count_batched_rows(std::uint64_t rows);

}  // namespace qhdl::quantum::kernels

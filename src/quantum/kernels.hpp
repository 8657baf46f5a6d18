// Kernel dispatch observability.
//
// The state-vector simulator routes every gate through one of a handful of
// kernels (see DESIGN.md §8): diagonal phase multiplies for shared-angle
// RZ/PhaseShift/S/T/Z and for CZ, index permutations for X/CNOT/SWAP,
// structure kernels for the controlled and Ising gates, and the dense
// complex 2x2 matvec for every other single-qubit gate (RX, RY, PauliY,
// Hadamard, fused chains) and for every per-row single-qubit gate. This
// header bumps per-kernel dispatch counters, so the FLOPs cost model's
// predicted gate mix can be checked against what the simulator actually
// executed (flops::classify_circuit / flops::dispatch_comparison_to_string).
// Which kernel a gate takes depends only on its type and on whether its
// angle is shared by every row; the backend only picks the ops table.
//
// A DensityMatrix runs the same kernels over ρ's columns, two calls per
// gate or Kraus operator (density_matrix.hpp), so noisy circuits bump these
// counters too.
//
// The counters live in the process-wide util::Metrics registry
// (DESIGN.md §17) under kernel.*: diagonal, permutation, controlled,
// double_flip, generic, two_qubit_dense (one per gate application; a fused
// chain counts once), fused and fused_gates (chains merged into one matrix
// and the gates they absorbed), batched_rows
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
void count_permutation();
void count_controlled();
void count_double_flip();
void count_generic();
void count_two_qubit_dense();
void count_fused(std::uint64_t gates_absorbed);
void count_batched_rows(std::uint64_t rows);

}  // namespace qhdl::quantum::kernels

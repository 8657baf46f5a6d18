// Kernel dispatch observability.
//
// The state-vector simulator routes every gate through one of a handful of
// kernels (see DESIGN.md §8): diagonal phase multiplies for shared-angle
// RZ/PhaseShift/S/T/Z and for CZ, index permutations for X/CNOT/SWAP,
// structure kernels for the controlled and Ising gates, and the dense
// complex 2x2 matvec for every other single-qubit gate (RX, RY, PauliY,
// Hadamard, fused chains) and for every per-row single-qubit gate. This
// header counts the dispatches, so the FLOPs cost model's predicted gate
// mix can be checked against what the simulator actually executed
// (flops::classify_circuit / flops::dispatch_comparison_to_string).
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
//
// Tallied per plan run. A gate is a few dozen nanoseconds at the paper's
// sizes, so two registry fetch_adds per gate were a visible share of it.
// ExecutionPlan::run_batch and the adjoint reverse sweep open a TallyScope:
// while one is open, the thread's bumps are plain increments of
// thread-local integers, and the outermost scope adds them into the
// registry when it closes (also when a kernel throws). Every value a caller
// reads after a call returns is therefore the same as with per-gate bumps;
// kernel calls outside a scope (a direct StateVectorBatch or apply_gate
// call) still bump the registry at once.
#pragma once

#include <cstddef>
#include <cstdint>

namespace qhdl::quantum::kernels {

/// The dispatch counters: kernel.<name> for each.
enum class Kernel : std::uint8_t {
  Diagonal,
  Permutation,
  Controlled,
  DoubleFlip,
  Generic,
  TwoQubitDense,
};

namespace detail {

inline constexpr std::size_t kKernelCount = 6;

/// A thread's pending kernel.* increments while a TallyScope is open.
struct Tally {
  std::uint64_t dispatch[kKernelCount] = {};
  std::uint64_t fused = 0;
  std::uint64_t fused_gates = 0;
  std::uint64_t batched_rows = 0;
  std::uint32_t open_scopes = 0;
};

inline thread_local constinit Tally tally{};

/// Registry bumps for calls outside any scope.
void add_dispatch(Kernel kernel, std::size_t rows);
void add_fused(std::uint64_t gates_absorbed);
/// Adds `t`'s pending counts into the registry and zeroes them.
void flush(Tally& t);

}  // namespace detail

/// One gate application by `kernel` on a batch of `rows` rows (a one-row
/// batch is single-state work and leaves kernel.batched_rows alone).
inline void count(Kernel kernel, std::size_t rows) {
  detail::Tally& t = detail::tally;
  if (t.open_scopes == 0) {
    detail::add_dispatch(kernel, rows);
    return;
  }
  ++t.dispatch[static_cast<std::size_t>(kernel)];
  if (rows > 1) t.batched_rows += rows;
}

/// One fused chain that absorbed `gates_absorbed` source gates.
inline void count_fused(std::uint64_t gates_absorbed) {
  detail::Tally& t = detail::tally;
  if (t.open_scopes == 0) {
    detail::add_fused(gates_absorbed);
    return;
  }
  ++t.fused;
  t.fused_gates += gates_absorbed;
}

/// Tallies this thread's counts until the outermost scope closes (see the
/// file comment). Scopes nest.
class TallyScope {
 public:
  TallyScope() { ++detail::tally.open_scopes; }
  ~TallyScope() {
    if (--detail::tally.open_scopes == 0) detail::flush(detail::tally);
  }
  TallyScope(const TallyScope&) = delete;
  TallyScope& operator=(const TallyScope&) = delete;
};

}  // namespace qhdl::quantum::kernels

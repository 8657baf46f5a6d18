// Compiled circuit execution plans (DESIGN.md §12).
//
// Every circuit execution (Circuit::run / run_batch and the adjoint sweep)
// goes through an ExecutionPlan; a single state runs as the one-row batch.
// A grid search runs thousands of candidate evaluations over a handful of
// circuit *structures*, so the compile pass lowers a Circuit once into an
// immutable plan:
//
//   * a peephole pass drops adjacent exact-involution pairs (X·X, Z·Z,
//     CNOT·CNOT, CZ·CZ, SWAP·SWAP on the same wires — pure permutations and
//     sign flips, so removal is bit-exact);
//   * adjacent single-qubit gates on one wire become fused chains: fully
//     fixed chains collapse to a precomputed dense 2×2 (or a precomputed
//     diagonal when every factor is diagonal), parameterized chains record
//     the gate sequence so run_batch() multiplies the matrices at execution
//     time (later gates from the left; when angles differ across rows, all
//     rows' products at once as an SoA matrix batch through the kernel
//     registry);
//   * adjacent angle-independent two-qubit gates on one wire pair collapse
//     to a precomputed 4×4 unitary (StateVectorBatch::apply_two_qubit);
//   * every op records the kernel class it dispatches to with a shared
//     angle, so flops::classify_plan models the compiled dispatch mix of a
//     shared-angle run exactly (a single-qubit op whose angle differs per
//     row runs the per-row dense 2x2 and is counted as generic).
//
// Each Circuit memoizes its plan per instance (Circuit::compiled_plan):
// compiled once on first use, invalidated by builder mutations, shared by
// copies of the circuit. A compile costs a few microseconds, so there is
// no process-wide cache: each circuit a grid search builds compiles once.
//
// Tests replay the flat stream unfused (tests/test_helpers.hpp) and hold
// both streams to a dense-matrix oracle that shares no code with the
// kernels (tests/quantum/oracle.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "quantum/gates.hpp"

namespace qhdl::quantum {

class Circuit;
class StateVectorBatch;

/// One op of the flat (unfused) stream: the original op order minus
/// peephole-cancelled pairs, with parameter lookup and kernel dispatch
/// resolved at compile time. Executed by the adjoint reverse sweeps, whose
/// arithmetic is per-op dispatch.
struct PlanOp {
  GateType type;
  std::size_t wire0 = 0;
  std::size_t wire1 = SIZE_MAX;  ///< SIZE_MAX for single-qubit ops
  std::int64_t param_slot = -1;  ///< runtime parameter index, -1 = fixed
  double fixed_angle = 0.0;
  KernelClass kernel = KernelClass::Generic;

  double angle(std::span<const double> params) const {
    return param_slot < 0 ? fixed_angle
                          : params[static_cast<std::size_t>(param_slot)];
  }
};

/// One gate inside a parameterized fused chain.
struct ChainGate {
  GateType type;
  std::int64_t param_slot = -1;
  double fixed_angle = 0.0;

  double angle(std::span<const double> params) const {
    return param_slot < 0 ? fixed_angle
                          : params[static_cast<std::size_t>(param_slot)];
  }
};

/// One op of the fused stream. Single-qubit gates are deferred per wire:
/// two-qubit ops flush their wires first, and trailing chains flush in
/// ascending wire order.
struct FusedOp {
  enum class Kind : std::uint8_t {
    Single,         ///< one single-qubit gate, specialized dispatch
    Chain,          ///< >=2 single-qubit gates, runtime 2x2 product
    FixedChain,     ///< >=2 fixed single-qubit gates, precomputed dense 2x2
    DiagonalChain,  ///< >=2 fixed diagonal gates, precomputed diagonal
    TwoQubit,       ///< one two-qubit gate, specialized dispatch
    FusedPair,      ///< >=2 fixed two-qubit gates on one pair, 4x4 unitary
  };

  Kind kind = Kind::Single;
  GateType type = GateType::PauliX;  ///< valid for Single / TwoQubit
  std::size_t wire0 = 0;
  std::size_t wire1 = SIZE_MAX;
  std::int64_t param_slot = -1;  ///< Single / TwoQubit; -1 = fixed
  double fixed_angle = 0.0;
  KernelClass kernel = KernelClass::Generic;
  Mat2 matrix{};         ///< FixedChain product
  Complex d0{}, d1{};    ///< DiagonalChain product diagonal
  Mat4 matrix4{};        ///< FusedPair product
  std::uint32_t chain_begin = 0;  ///< Chain slice into chain_gates()
  std::uint32_t chain_length = 0;
  std::uint32_t gate_count = 1;  ///< source gates this op covers

  double angle(std::span<const double> params) const {
    return param_slot < 0 ? fixed_angle
                          : params[static_cast<std::size_t>(param_slot)];
  }
};

/// Immutable compiled form of one circuit structure. Thread-safe to execute
/// concurrently (plans hold no mutable state).
class ExecutionPlan {
 public:
  std::size_t num_qubits() const { return num_qubits_; }
  std::size_t parameter_count() const { return parameter_count_; }
  /// Ops in the source circuit before lowering.
  std::size_t source_op_count() const { return source_op_count_; }
  /// Source ops removed by exact involution cancellation.
  std::size_t cancelled_op_count() const { return cancelled_op_count_; }

  std::span<const PlanOp> flat_ops() const { return flat_ops_; }
  std::span<const FusedOp> fused_ops() const { return fused_ops_; }
  std::span<const ChainGate> chain_gates() const { return chain_gates_; }

  /// Executes the fused stream over every row (DESIGN.md §14). Row b reads
  /// its parameters from params[b * param_stride + slot]. Fused output
  /// agrees with per-op execution to the golden-suite tolerance (1e-12);
  /// chains of one gate and two-qubit ops dispatch through apply_gate_batch
  /// and are bit-identical to it. Every row is bit-identical to running it
  /// alone (Circuit::run, the B = 1 call).
  void run_batch(StateVectorBatch& batch, std::span<const double> params,
                 std::size_t param_stride) const;

 private:
  friend std::shared_ptr<const ExecutionPlan> compile_circuit(const Circuit&);

  std::size_t num_qubits_ = 0;
  std::size_t parameter_count_ = 0;
  std::size_t source_op_count_ = 0;
  std::size_t cancelled_op_count_ = 0;
  std::vector<PlanOp> flat_ops_;
  std::vector<FusedOp> fused_ops_;
  std::vector<ChainGate> chain_gates_;
};

/// Lowers `circuit` to a fresh plan. Hot paths reach it through
/// Circuit::compiled_plan, which memoizes the result per instance.
std::shared_ptr<const ExecutionPlan> compile_circuit(const Circuit& circuit);

}  // namespace qhdl::quantum

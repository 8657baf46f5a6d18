// Parameterized quantum circuits.
//
// A Circuit is an ordered op list over `num_qubits` wires. Each op either
// carries a fixed angle or references an index into the runtime parameter
// vector (set at execution). Helper builders add common structures; the QNN
// module builds encoding + ansatz circuits on top of this.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "quantum/gates.hpp"

namespace qhdl::quantum {

class ExecutionPlan;
class StateVectorBatch;

/// One circuit operation.
struct Op {
  GateType type;
  std::size_t wire0 = 0;
  std::size_t wire1 = SIZE_MAX;  ///< SIZE_MAX for single-qubit gates
  /// Index into the runtime parameter vector, or nullopt for a fixed angle.
  std::optional<std::size_t> param_index;
  double fixed_angle = 0.0;

  /// Resolves the angle from the runtime parameters.
  double angle(std::span<const double> params) const;
};

class Circuit {
 public:
  explicit Circuit(std::size_t num_qubits);

  // Copies and moves are explicit because the plan memo holds a mutex and
  // an atomic flag; the memoized plan travels with the circuit, so copies
  // share it.
  Circuit(const Circuit& other);
  Circuit(Circuit&& other) noexcept;
  Circuit& operator=(const Circuit& other);
  Circuit& operator=(Circuit&& other) noexcept;

  std::size_t num_qubits() const { return num_qubits_; }
  std::size_t op_count() const { return ops_.size(); }
  const std::vector<Op>& ops() const { return ops_; }

  /// Number of runtime parameters the circuit expects
  /// (= 1 + max referenced index, or 0 if none).
  std::size_t parameter_count() const { return parameter_count_; }

  /// Count of ops that carry a runtime parameter.
  std::size_t parameterized_op_count() const;

  // --- builders ---------------------------------------------------------

  /// Fixed-angle / angle-free gate.
  Circuit& gate(GateType type, std::size_t wire0,
                std::size_t wire1 = SIZE_MAX, double fixed_angle = 0.0);

  /// Gate whose angle is params[param_index] at execution time.
  Circuit& parameterized_gate(GateType type, std::size_t param_index,
                              std::size_t wire0,
                              std::size_t wire1 = SIZE_MAX);

  /// PennyLane Rot(φ, θ, ω) decomposed as RZ(φ) RY(θ) RZ(ω) (applied in that
  /// order), consuming params [base, base+1, base+2].
  Circuit& rot(std::size_t param_index_base, std::size_t wire);

  // --- execution --------------------------------------------------------

  /// Applies all ops to `state` with the given runtime parameters
  /// (params.size() must equal parameter_count() exactly): the one-row
  /// run_batch, executing the circuit's memoized ExecutionPlan (compiled on
  /// first use — see exec_plan.hpp).
  void run(StateVector& state, std::span<const double> params) const;

  /// Applies all ops to every row of a SoA batch. Row b reads its
  /// parameters from params[b*param_stride, (b+1)*param_stride), and
  /// params.size() must equal batch()*param_stride exactly. Ops whose
  /// angle is identical across rows (fixed angles, shared ansatz weights)
  /// run as one shared kernel with a single sin/cos evaluation; per-row
  /// angles (data encoding) use the per-row kernel variants. Executes the
  /// same memoized plan as run(), so every row is bit-identical to it.
  void run_batch(StateVectorBatch& batch, std::span<const double> params,
                 std::size_t param_stride) const;

  /// The circuit's compiled plan (never null), memoized per instance and
  /// shared by copies. Thread-safe: the first call compiles under a
  /// per-circuit lock (racing first callers wait for that one plan), later
  /// calls read the memo without locking. Builder mutations invalidate it.
  std::shared_ptr<const ExecutionPlan> compiled_plan() const;

  /// Runs on a fresh |0...0⟩ state and returns it.
  StateVector execute(std::span<const double> params) const;

  /// "RX(p0) q0 ; CNOT q0,q1 ; ..." rendering.
  std::string to_string() const;

  /// Critical-path depth: the longest chain of ops sharing wires (each op
  /// lands at 1 + max(levels of its wires)). 0 for an empty circuit.
  std::size_t depth() const;

  /// Ops per gate type, in a stable (enum) order: pairs (type, count),
  /// only for types that appear.
  std::vector<std::pair<GateType, std::size_t>> gate_histogram() const;

  /// Count of two-qubit ops (entanglers + controlled/Ising rotations).
  std::size_t two_qubit_op_count() const;

 private:
  void check_wires(GateType type, std::size_t wire0, std::size_t wire1) const;
  /// plan_ under plan_mutex_, for copying from a circuit others may run.
  std::shared_ptr<const ExecutionPlan> memoized_plan() const;
  /// Replaces the memo; only copies, moves and builder calls use it, and
  /// none of them may race with a run of this circuit.
  void set_plan(std::shared_ptr<const ExecutionPlan> plan);

  std::size_t num_qubits_;
  std::vector<Op> ops_;
  std::size_t parameter_count_ = 0;
  /// Memoized compiled plan (nullptr until first execution or after a
  /// builder mutation). Filled once under plan_mutex_ and published by
  /// plan_ready_, so concurrent run()/run_batch() calls read it lock-free.
  mutable std::mutex plan_mutex_;
  mutable std::shared_ptr<const ExecutionPlan> plan_;
  mutable std::atomic<bool> plan_ready_{false};
};

}  // namespace qhdl::quantum

// Model FLOPs profiler: walks a model's layer descriptors and produces the
// per-stage breakdown the paper reports (Table I columns: TF, Enc+CL, CL,
// Enc, QL) plus a per-layer table.
#pragma once

#include <string>
#include <vector>

#include "flops/cost_model.hpp"
#include "nn/sequential.hpp"
#include "quantum/circuit.hpp"
#include "quantum/exec_plan.hpp"
#include "util/metrics.hpp"

namespace qhdl::flops {

struct LayerFlops {
  std::string name;
  std::string kind;
  double forward = 0.0;
  double backward = 0.0;
  double total() const { return forward + backward; }
};

/// Per-sample forward+backward FLOPs of a model, split into the paper's
/// ablation stages.
struct FlopsReport {
  std::vector<LayerFlops> layers;

  double forward_total = 0.0;
  double backward_total = 0.0;
  double total() const { return forward_total + backward_total; }

  // Stage split (forward + backward combined), matching Table I columns:
  double classical = 0.0;  ///< CL: all dense/activation layers
  double encoding = 0.0;   ///< Enc: encoding gates + their adjoint share
  double quantum = 0.0;    ///< QL: ansatz gates, measurement, adjoint sweep
  double encoding_plus_classical() const { return encoding + classical; }

  std::size_t parameter_count = 0;
};

/// Profiles from layer descriptors (per sample, batch 1).
FlopsReport profile_layers(const std::vector<nn::LayerInfo>& infos,
                           const CostModel& cost_model = CostModel{});

/// Profiles a built model.
FlopsReport profile_model(const nn::Sequential& model,
                          const CostModel& cost_model = CostModel{});

/// Renders the per-layer table plus stage summary.
std::string report_to_string(const FlopsReport& report);

// --- kernel-dispatch accounting (DESIGN.md §8) ----------------------------

/// Modeled per-kernel-class dispatch counts for ONE execution of a circuit
/// with shared angles: which statevector kernel each op routes to, by
/// quantum::kernel_class_for. classify_circuit models the un-fused per-op
/// stream; classify_plan models the compiled fused stream (chains count
/// once, like the measured counters). A single-qubit op whose angle
/// differs per row runs the per-row dense 2x2, which the measured counters
/// file as generic.
struct DispatchCounts {
  std::uint64_t diagonal = 0;       ///< RZ, PhaseShift, S, T, Z, CZ
  std::uint64_t permutation = 0;    ///< X, CNOT, SWAP
  std::uint64_t controlled = 0;     ///< CRX, CRY, CRZ
  std::uint64_t double_flip = 0;    ///< RXX, RYY, RZZ
  std::uint64_t generic = 0;        ///< RX, RY, PauliY, Hadamard (dense 2x2)
  std::uint64_t two_qubit_dense = 0;  ///< fused two-qubit pairs (dense 4x4)
  std::uint64_t fused = 0;        ///< single-qubit chains merged to one 2x2
  std::uint64_t fused_gates = 0;  ///< source gates absorbed into those chains
  std::uint64_t total() const {
    return diagonal + permutation + controlled + double_flip + generic +
           two_qubit_dense;
  }
};

/// Classifies every op of `circuit` by the kernel it dispatches to.
DispatchCounts classify_circuit(const quantum::Circuit& circuit);

/// Classifies the fused stream of a compiled plan: exactly the dispatch mix
/// one ExecutionPlan::run_batch performs, so modeled counts line up with the
/// measured process counters when the compiled path is active.
DispatchCounts classify_plan(const quantum::ExecutionPlan& plan);

/// Side-by-side table of the modeled dispatch mix for a circuit vs the
/// measured kernel.* counters of a util::Metrics::global() snapshot
/// (quantum/kernels.hpp), e.g. to confirm an experiment actually exercised
/// the specialized paths.
std::string dispatch_comparison_to_string(
    const DispatchCounts& modeled,
    const util::MetricsSnapshot& measured);

}  // namespace qhdl::flops

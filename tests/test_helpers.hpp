// Shared test utilities: finite-difference gradient checking for nn modules
// and quantum circuits, random-circuit generation for property tests, an
// uncompiled per-op circuit reference, and a scope that switches between
// the fast and the reference execution paths.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "nn/loss.hpp"
#include "nn/module.hpp"
#include "quantum/circuit.hpp"
#include "quantum/observable.hpp"
#include "util/backend_registry.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace qhdl::testing {

/// Pins the execution paths for one scope through the kernel backend.
/// ReferenceScope{true} selects the reference backend: dense 2x2 dispatch
/// for single-qubit gates, unfused circuits, and the reference Module
/// trainer. ReferenceScope{false} keeps the active backend's fast
/// paths (falling back to generic when the active backend is the reference
/// one). Restores the env/build/auto selection on exit.
class ReferenceScope {
 public:
  explicit ReferenceScope(bool reference) {
    if (reference) {
      util::simd::set_backend("reference");
    } else if (util::simd::active_backend().reference) {
      util::simd::set_backend("generic");
    }
  }
  ~ReferenceScope() { util::simd::set_backend(std::nullopt); }
  ReferenceScope(const ReferenceScope&) = delete;
  ReferenceScope& operator=(const ReferenceScope&) = delete;
};

/// Current value of a process-wide counter (util::Metrics::global()),
/// e.g. "kernel.fused" or "fastpath.workspace_runs".
inline std::uint64_t global_count(std::string_view name) {
  return util::Metrics::global().snapshot().at(name);
}

/// Uncompiled reference execution from |0...0⟩: the circuit's ops applied
/// one by one through apply_gate on the active backend — no plan, no
/// fusion, no involution cancellation.
inline quantum::StateVector run_uncompiled(const quantum::Circuit& circuit,
                                           std::span<const double> params) {
  quantum::StateVector state{circuit.num_qubits()};
  for (const quantum::Op& op : circuit.ops()) {
    quantum::apply_gate(state, op.type, op.angle(params), op.wire0,
                        op.wire1);
  }
  return state;
}

/// Central finite difference of a scalar function at x.
inline double central_difference(const std::function<double(double)>& f,
                                 double x, double eps = 1e-6) {
  return (f(x + eps) - f(x - eps)) / (2.0 * eps);
}

/// Numerically differentiates ⟨obs⟩ w.r.t. every circuit parameter.
inline std::vector<double> numerical_circuit_gradient(
    const quantum::Circuit& circuit, std::vector<double> params,
    const quantum::Observable& obs, double eps = 1e-6) {
  std::vector<double> grad(circuit.parameter_count(), 0.0);
  for (std::size_t i = 0; i < grad.size(); ++i) {
    const double saved = params[i];
    params[i] = saved + eps;
    const double plus = obs.expectation(circuit.execute(params));
    params[i] = saved - eps;
    const double minus = obs.expectation(circuit.execute(params));
    params[i] = saved;
    grad[i] = (plus - minus) / (2.0 * eps);
  }
  return grad;
}

/// Builds a random circuit mixing rotations and entanglers; every
/// parameterized op gets its own parameter index. Returns the circuit and
/// fills `params` with random angles.
inline quantum::Circuit random_circuit(std::size_t qubits, std::size_t ops,
                                       util::Rng& rng,
                                       std::vector<double>& params) {
  using quantum::GateType;
  quantum::Circuit circuit{qubits};
  params.clear();
  const GateType rotations[] = {GateType::RX, GateType::RY, GateType::RZ,
                                GateType::PhaseShift};
  const GateType entanglers[] = {GateType::CNOT, GateType::CZ};
  const GateType controlled_rotations[] = {GateType::CRX, GateType::CRY,
                                           GateType::CRZ};
  const GateType ising_rotations[] = {GateType::RXX, GateType::RYY,
                                      GateType::RZZ};
  for (std::size_t i = 0; i < ops; ++i) {
    const std::size_t choice = rng.index(qubits >= 2 ? 4 : 1);
    if (choice == 0 || qubits < 2) {
      const GateType g = rotations[rng.index(4)];
      circuit.parameterized_gate(g, params.size(), rng.index(qubits));
      params.push_back(rng.uniform(-3.0, 3.0));
    } else if (choice == 1) {
      const std::size_t a = rng.index(qubits);
      std::size_t b = rng.index(qubits);
      while (b == a) b = rng.index(qubits);
      circuit.gate(entanglers[rng.index(2)], a, b);
    } else if (choice == 2) {
      const std::size_t a = rng.index(qubits);
      std::size_t b = rng.index(qubits);
      while (b == a) b = rng.index(qubits);
      circuit.parameterized_gate(controlled_rotations[rng.index(3)],
                                 params.size(), a, b);
      params.push_back(rng.uniform(-3.0, 3.0));
    } else {
      const std::size_t a = rng.index(qubits);
      std::size_t b = rng.index(qubits);
      while (b == a) b = rng.index(qubits);
      circuit.parameterized_gate(ising_rotations[rng.index(3)],
                                 params.size(), a, b);
      params.push_back(rng.uniform(-3.0, 3.0));
    }
  }
  return circuit;
}

/// Numerically checks a module's input gradient on a batch by perturbing
/// each input element; the scalar objective is sum(output * probe) for a
/// fixed random probe. Returns the max abs error vs the module's backward.
double module_input_gradient_error(nn::Module& module,
                                   const tensor::Tensor& input,
                                   util::Rng& rng, double eps = 1e-6);

/// Same check for the module's parameter gradients.
double module_parameter_gradient_error(nn::Module& module,
                                       const tensor::Tensor& input,
                                       util::Rng& rng, double eps = 1e-6);

}  // namespace qhdl::testing

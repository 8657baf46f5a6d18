// Shared test utilities: finite-difference gradient checking for nn modules
// and quantum circuits, random-circuit generation for property tests, the
// uncompiled and unfused circuit replays, the bridge from library circuits
// to the dense-matrix oracle (quantum/oracle.hpp), a backend pin, and a
// Module adapter that keeps a model on train_classifier's Module path.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "nn/loss.hpp"
#include "nn/module.hpp"
#include "quantum/circuit.hpp"
#include "quantum/exec_plan.hpp"
#include "quantum/observable.hpp"
#include "quantum/oracle.hpp"
#include "quantum/statevector_batch.hpp"
#include "util/backend_registry.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace qhdl::testing {

/// Pins one kernel backend for the scope; restores the env/build/auto
/// selection on exit.
class BackendScope {
 public:
  explicit BackendScope(const char* name) { util::simd::set_backend(name); }
  ~BackendScope() { util::simd::set_backend(std::nullopt); }
  BackendScope(const BackendScope&) = delete;
  BackendScope& operator=(const BackendScope&) = delete;
};

/// Every registered backend this CPU can run, highest priority first.
inline std::vector<const util::simd::Backend*> supported_backends() {
  std::vector<const util::simd::Backend*> out;
  for (const util::simd::Backend* backend : util::simd::backends()) {
    if (backend->supported()) out.push_back(backend);
  }
  return out;
}

/// A Module that forwards every call to `inner`. It is not a Sequential, so
/// nn::train_classifier trains it on the Module path (forward, loss,
/// backward and optimizer step per batch) instead of a TrainWorkspace: the
/// oracle the workspace trainer is held to.
class ModulePath final : public nn::Module {
 public:
  explicit ModulePath(nn::Module& inner) : inner_(inner) {}
  tensor::Tensor forward(const tensor::Tensor& input) override {
    return inner_.forward(input);
  }
  tensor::Tensor backward(const tensor::Tensor& grad_output) override {
    return inner_.backward(grad_output);
  }
  std::vector<nn::Parameter*> parameters() override {
    return inner_.parameters();
  }
  nn::LayerInfo info() const override { return inner_.info(); }
  std::string name() const override { return inner_.name(); }

 private:
  nn::Module& inner_;
};

/// Current value of a process-wide counter (util::Metrics::global()),
/// e.g. "kernel.fused" or "fastpath.workspace_runs".
inline std::uint64_t global_count(std::string_view name) {
  return util::Metrics::global().snapshot().at(name);
}

/// Uncompiled execution from |0...0⟩: the circuit's ops applied one by one
/// through apply_gate on the active backend — no plan, no fusion, no
/// involution cancellation.
inline quantum::StateVector run_uncompiled(const quantum::Circuit& circuit,
                                           std::span<const double> params) {
  quantum::StateVector state{circuit.num_qubits()};
  for (const quantum::Op& op : circuit.ops()) {
    quantum::apply_gate(state, op.type, op.angle(params), op.wire0,
                        op.wire1);
  }
  return state;
}

/// The circuit's compiled plan run unfused: its flat stream (the source ops
/// minus cancelled pairs) applied op by op through apply_gate_batch, each op
/// with one shared angle when every row agrees, else one per row. Row b
/// reads params[b * stride + slot]; `batch` is reset to |0...0⟩ first.
inline void run_plan_unfused(const quantum::Circuit& circuit,
                             quantum::StateVectorBatch& batch,
                             std::span<const double> params,
                             std::size_t stride) {
  batch.reset();
  std::vector<double> angles(batch.batch());
  for (const quantum::PlanOp& op : circuit.compiled_plan()->flat_ops()) {
    bool shared = true;
    for (std::size_t b = 0; b < angles.size(); ++b) {
      angles[b] = op.param_slot < 0
                      ? op.fixed_angle
                      : params[b * stride +
                               static_cast<std::size_t>(op.param_slot)];
      shared = shared && angles[b] == angles[0];
    }
    quantum::apply_gate_batch(
        batch, op.type,
        std::span<const double>{angles}.first(shared ? 1 : angles.size()),
        op.wire0, op.wire1);
  }
}

/// The oracle's name for a library gate type.
inline oracle::Gate to_oracle(quantum::GateType type) {
  using quantum::GateType;
  switch (type) {
    case GateType::PauliX: return oracle::Gate::PauliX;
    case GateType::PauliY: return oracle::Gate::PauliY;
    case GateType::PauliZ: return oracle::Gate::PauliZ;
    case GateType::Hadamard: return oracle::Gate::Hadamard;
    case GateType::S: return oracle::Gate::S;
    case GateType::T: return oracle::Gate::T;
    case GateType::RX: return oracle::Gate::RX;
    case GateType::RY: return oracle::Gate::RY;
    case GateType::RZ: return oracle::Gate::RZ;
    case GateType::PhaseShift: return oracle::Gate::PhaseShift;
    case GateType::CNOT: return oracle::Gate::CNOT;
    case GateType::CZ: return oracle::Gate::CZ;
    case GateType::SWAP: return oracle::Gate::SWAP;
    case GateType::CRX: return oracle::Gate::CRX;
    case GateType::CRY: return oracle::Gate::CRY;
    case GateType::CRZ: return oracle::Gate::CRZ;
    case GateType::RXX: return oracle::Gate::RXX;
    case GateType::RYY: return oracle::Gate::RYY;
    case GateType::RZZ: return oracle::Gate::RZZ;
  }
  throw std::logic_error("to_oracle: unknown gate type");
}

/// The same op list for the oracle.
inline oracle::Circuit to_oracle(const quantum::Circuit& circuit) {
  oracle::Circuit out;
  out.qubits = circuit.num_qubits();
  out.parameters = circuit.parameter_count();
  for (const quantum::Op& op : circuit.ops()) {
    out.ops.push_back(oracle::Op{
        to_oracle(op.type), op.wire0, op.wire1,
        op.param_index.has_value()
            ? static_cast<std::int64_t>(*op.param_index)
            : std::int64_t{-1},
        op.fixed_angle});
  }
  return out;
}

inline oracle::State to_oracle(const quantum::StateVector& state) {
  return {state.amplitudes().begin(), state.amplitudes().end()};
}

/// Every amplitude of `got` within `tolerance` of `want`, real and
/// imaginary parts separately.
inline void expect_amplitudes_near(std::span<const std::complex<double>> got,
                                   std::span<const std::complex<double>> want,
                                   double tolerance,
                                   const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].real(), want[i].real(), tolerance)
        << label << " amplitude " << i << " (real)";
    EXPECT_NEAR(got[i].imag(), want[i].imag(), tolerance)
        << label << " amplitude " << i << " (imag)";
  }
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

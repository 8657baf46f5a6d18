#include "quantum/channels.hpp"

#include <cmath>
#include <stdexcept>

#include "quantum/parameter_shift.hpp"

namespace qhdl::quantum {

namespace channels {

namespace {

void check_probability(double p, const char* context) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument(std::string{context} +
                                ": probability must be in [0, 1]");
  }
}

Mat2 scaled(const Mat2& m, double factor) {
  const Complex f{factor, 0.0};
  return Mat2{f * m.m00, f * m.m01, f * m.m10, f * m.m11};
}

Mat2 identity() {
  return Mat2{Complex{1, 0}, Complex{0, 0}, Complex{0, 0}, Complex{1, 0}};
}

}  // namespace

KrausChannel depolarizing(double p) {
  check_probability(p, "depolarizing");
  KrausChannel channel;
  channel.name = "depolarizing(" + std::to_string(p) + ")";
  channel.operators = {scaled(identity(), std::sqrt(1.0 - p)),
                       scaled(gates::pauli_x(), std::sqrt(p / 3.0)),
                       scaled(gates::pauli_y(), std::sqrt(p / 3.0)),
                       scaled(gates::pauli_z(), std::sqrt(p / 3.0))};
  return channel;
}

KrausChannel amplitude_damping(double gamma) {
  check_probability(gamma, "amplitude_damping");
  KrausChannel channel;
  channel.name = "amplitude_damping(" + std::to_string(gamma) + ")";
  // K0 = diag(1, √(1-γ)), K1 = √γ |0⟩⟨1|.
  channel.operators = {
      Mat2{Complex{1, 0}, Complex{0, 0}, Complex{0, 0},
           Complex{std::sqrt(1.0 - gamma), 0}},
      Mat2{Complex{0, 0}, Complex{std::sqrt(gamma), 0}, Complex{0, 0},
           Complex{0, 0}}};
  return channel;
}

KrausChannel phase_damping(double gamma) {
  check_probability(gamma, "phase_damping");
  KrausChannel channel;
  channel.name = "phase_damping(" + std::to_string(gamma) + ")";
  // K0 = diag(1, √(1-γ)), K1 = diag(0, √γ).
  channel.operators = {
      Mat2{Complex{1, 0}, Complex{0, 0}, Complex{0, 0},
           Complex{std::sqrt(1.0 - gamma), 0}},
      Mat2{Complex{0, 0}, Complex{0, 0}, Complex{0, 0},
           Complex{std::sqrt(gamma), 0}}};
  return channel;
}

KrausChannel bit_flip(double p) {
  check_probability(p, "bit_flip");
  KrausChannel channel;
  channel.name = "bit_flip(" + std::to_string(p) + ")";
  channel.operators = {scaled(identity(), std::sqrt(1.0 - p)),
                       scaled(gates::pauli_x(), std::sqrt(p))};
  return channel;
}

KrausChannel phase_flip(double p) {
  check_probability(p, "phase_flip");
  KrausChannel channel;
  channel.name = "phase_flip(" + std::to_string(p) + ")";
  channel.operators = {scaled(identity(), std::sqrt(1.0 - p)),
                       scaled(gates::pauli_z(), std::sqrt(p))};
  return channel;
}

}  // namespace channels

NoiseModel NoiseModel::depolarizing(double p) {
  NoiseModel model;
  model.per_gate_channels.push_back(channels::depolarizing(p));
  return model;
}

NoiseModel NoiseModel::amplitude_damping(double gamma) {
  NoiseModel model;
  model.per_gate_channels.push_back(channels::amplitude_damping(gamma));
  return model;
}

namespace {

void apply_noise(DensityMatrix& rho, const NoiseModel& noise,
                 std::size_t wire0, std::size_t wire1) {
  for (const KrausChannel& channel : noise.per_gate_channels) {
    rho.apply_channel(channel, wire0);
    if (wire1 != SIZE_MAX) rho.apply_channel(channel, wire1);
  }
}

/// run_noisy with the angle of op `shifted_op` moved by `delta` (no op is
/// shifted when shifted_op is SIZE_MAX): the one noisy evolution loop.
DensityMatrix evolve(const Circuit& circuit, std::span<const double> params,
                     const NoiseModel& noise,
                     std::size_t shifted_op = SIZE_MAX, double delta = 0.0) {
  if (params.size() < circuit.parameter_count()) {
    throw std::invalid_argument("run_noisy: insufficient parameters");
  }
  const auto& ops = circuit.ops();
  DensityMatrix rho{circuit.num_qubits()};
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    double angle = op.angle(params);
    if (i == shifted_op) angle += delta;
    rho.apply_gate(op.type, angle, op.wire0, op.wire1);
    if (!noise.empty()) apply_noise(rho, noise, op.wire0, op.wire1);
  }
  return rho;
}

}  // namespace

DensityMatrix run_noisy(const Circuit& circuit,
                        std::span<const double> params,
                        const NoiseModel& noise) {
  return evolve(circuit, params, noise);
}

std::vector<double> noisy_expvals(const Circuit& circuit,
                                  std::span<const double> params,
                                  const NoiseModel& noise,
                                  std::span<const std::size_t> wires) {
  const DensityMatrix rho = run_noisy(circuit, params, noise);
  std::vector<double> values;
  values.reserve(wires.size());
  for (std::size_t wire : wires) {
    values.push_back(rho.expval_pauli_z(wire));
  }
  return values;
}

NoisyVjpResult noisy_parameter_shift_vjp(const Circuit& circuit,
                                         std::span<const double> params,
                                         const NoiseModel& noise,
                                         std::span<const std::size_t> wires,
                                         std::span<const double> upstream) {
  if (wires.size() != upstream.size()) {
    throw std::invalid_argument(
        "noisy_parameter_shift_vjp: wires/upstream size mismatch");
  }
  NoisyVjpResult result;
  result.expectations = noisy_expvals(circuit, params, noise, wires);
  result.gradient.assign(circuit.parameter_count(), 0.0);

  const auto& ops = circuit.ops();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (!op.param_index.has_value()) continue;
    // Weighted observable value of the execution with op i shifted.
    const auto weighted = [&](double delta) {
      const DensityMatrix rho = evolve(circuit, params, noise, i, delta);
      double total = 0.0;
      for (std::size_t k = 0; k < wires.size(); ++k) {
        total += upstream[k] * rho.expval_pauli_z(wires[k]);
      }
      return total;
    };
    result.gradient[*op.param_index] +=
        shift_rule_derivative(op.type, weighted);
  }
  return result;
}

}  // namespace qhdl::quantum

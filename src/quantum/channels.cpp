#include "quantum/channels.hpp"

#include <cmath>
#include <stdexcept>

#include "quantum/kernels.hpp"
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

void apply_noise(DensityMatrixBatch& rho, const NoiseModel& noise,
                 std::size_t wire0, std::size_t wire1) {
  for (const KrausChannel& channel : noise.per_gate_channels) {
    rho.apply_channel(channel, wire0);
    if (wire1 != SIZE_MAX) rho.apply_channel(channel, wire1);
  }
}

/// The one noisy evolution loop: ρ_l of `rho` runs the circuit for lane l
/// (rho.rows() == lanes.size()), every lane's gate at once.
void evolve(DensityMatrixBatch& rho, const Circuit& circuit,
            std::span<const double> params, std::size_t stride,
            std::span<const ShiftLane> lanes, const NoiseModel& noise) {
  if (stride < circuit.parameter_count()) {
    throw std::invalid_argument("run_noisy: insufficient parameters");
  }
  const kernels::TallyScope tally;  // kernel.* bumps land when it ends
  for_each_lane_op(circuit, params, stride, lanes,
                   [&](const Op& op, std::span<const double> angles) {
                     rho.apply_gate(op.type, angles, op.wire0, op.wire1);
                     if (!noise.empty()) {
                       apply_noise(rho, noise, op.wire0, op.wire1);
                     }
                   });
}

}  // namespace

DensityMatrix run_noisy(const Circuit& circuit,
                        std::span<const double> params,
                        const NoiseModel& noise) {
  DensityMatrix rho{circuit.num_qubits()};
  const ShiftLane lane{};
  evolve(rho, circuit, params, params.size(), {&lane, 1}, noise);
  return rho;
}

std::vector<double> noisy_expvals(const Circuit& circuit,
                                  std::span<const double> params,
                                  const NoiseModel& noise,
                                  std::span<const std::size_t> wires) {
  std::vector<double> values(wires.size());
  noisy_expvals_batch(circuit, params, params.size(), 1, noise, wires,
                      values);
  return values;
}

void noisy_expvals_batch(const Circuit& circuit,
                         std::span<const double> params, std::size_t stride,
                         std::size_t rows, const NoiseModel& noise,
                         std::span<const std::size_t> wires,
                         std::span<double> out) {
  if (out.size() != rows * wires.size()) {
    throw std::invalid_argument(
        "noisy_expvals_batch: out size must be rows * wires");
  }
  if (rows == 0) return;
  std::vector<ShiftLane> lanes(rows);
  for (std::size_t r = 0; r < rows; ++r) lanes[r].row = r;
  DensityMatrixBatch rho{circuit.num_qubits(), rows};
  evolve(rho, circuit, params, stride, lanes, noise);
  std::vector<double> column(rows);
  for (std::size_t k = 0; k < wires.size(); ++k) {
    rho.expval_pauli_z(wires[k], column);
    for (std::size_t r = 0; r < rows; ++r) {
      out[r * wires.size() + k] = column[r];
    }
  }
}

NoisyVjpResult noisy_parameter_shift_vjp(const Circuit& circuit,
                                         std::span<const double> params,
                                         const NoiseModel& noise,
                                         std::span<const std::size_t> wires,
                                         std::span<const double> upstream) {
  NoisyVjpResult result;
  result.gradient.resize(circuit.parameter_count());
  noisy_parameter_shift_vjp_batch(circuit, params, params.size(), 1, noise,
                                  wires, upstream, result.gradient);
  result.expectations = noisy_expvals(circuit, params, noise, wires);
  return result;
}

void noisy_parameter_shift_vjp_batch(const Circuit& circuit,
                                     std::span<const double> params,
                                     std::size_t stride, std::size_t rows,
                                     const NoiseModel& noise,
                                     std::span<const std::size_t> wires,
                                     std::span<const double> upstream,
                                     std::span<double> gradient) {
  const std::size_t width = wires.size();
  if (upstream.size() != rows * width) {
    throw std::invalid_argument(
        "noisy_parameter_shift_vjp: wires/upstream size mismatch");
  }
  // Each lane's value is its upstream-weighted observable sum.
  shift_rule_rows(
      circuit, rows, 1,
      [&](std::span<const ShiftLane> lanes, std::span<double> values) {
        DensityMatrixBatch rho{circuit.num_qubits(), lanes.size()};
        evolve(rho, circuit, params, stride, lanes, noise);
        std::vector<double> expvals(lanes.size());
        std::fill(values.begin(), values.end(), 0.0);
        for (std::size_t k = 0; k < width; ++k) {
          rho.expval_pauli_z(wires[k], expvals);
          for (std::size_t l = 0; l < lanes.size(); ++l) {
            values[l] += upstream[lanes[l].row * width + k] * expvals[l];
          }
        }
      },
      gradient);
}

}  // namespace qhdl::quantum

#include "quantum/parameter_shift.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "quantum/statevector_batch.hpp"

namespace qhdl::quantum {

std::span<const double> shift_rule_shifts(GateType type) {
  constexpr double kHalfPi = std::numbers::pi / 2.0;
  static constexpr double kShifts[] = {kHalfPi, -kHalfPi, 3.0 * kHalfPi,
                                       -3.0 * kHalfPi};
  switch (type) {
    case GateType::RX:
    case GateType::RY:
    case GateType::RZ:
    case GateType::PhaseShift:
    case GateType::RXX:
    case GateType::RYY:
    case GateType::RZZ:
      // Generators P (or P⊗P) with eigenvalues ±1.
      return {kShifts, 2};
    case GateType::CRX:
    case GateType::CRY:
    case GateType::CRZ:
      return {kShifts, 4};
    default:
      throw std::logic_error("parameter shift: no rule for " +
                             gate_name(type));
  }
}

double shift_rule_derivative(GateType type, std::span<const double> values) {
  if (values.size() != shift_rule_shifts(type).size()) {
    throw std::invalid_argument("shift_rule_derivative: " +
                                std::to_string(values.size()) +
                                " values for " + gate_name(type));
  }
  const double term1 = values[0] - values[1];
  if (values.size() == 2) return 0.5 * term1;
  const double sqrt2 = std::numbers::sqrt2;
  const double c_plus = (sqrt2 + 1.0) / (4.0 * sqrt2);
  const double c_minus = (sqrt2 - 1.0) / (4.0 * sqrt2);
  const double term2 = values[2] - values[3];
  return c_plus * term1 - c_minus * term2;
}

void for_each_lane_op(
    const Circuit& circuit, std::span<const double> params,
    std::size_t stride, std::span<const ShiftLane> lanes,
    const std::function<void(const Op&, std::span<const double>)>& apply) {
  for (const ShiftLane& lane : lanes) {
    if ((lane.row + 1) * stride > params.size()) {
      throw std::out_of_range("for_each_lane_op: row " +
                              std::to_string(lane.row) + " past " +
                              std::to_string(params.size()) +
                              " params at stride " + std::to_string(stride));
    }
  }
  std::vector<double> angles(lanes.size());
  const auto& ops = circuit.ops();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    bool shared = true;
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      const ShiftLane& lane = lanes[l];
      angles[l] = ops[i].angle(params.subspan(lane.row * stride, stride));
      if (lane.op == i) angles[l] += lane.delta;
      shared = shared && std::bit_cast<std::uint64_t>(angles[l]) ==
                             std::bit_cast<std::uint64_t>(angles[0]);
    }
    apply(ops[i], shared ? std::span<const double>{angles}.first(1)
                         : std::span<const double>{angles});
  }
}

void shift_rule_rows(
    const Circuit& circuit, std::size_t rows, std::size_t width,
    const std::function<void(std::span<const ShiftLane>, std::span<double>)>&
        evaluate,
    std::span<double> gradient) {
  const std::size_t parameter_count = circuit.parameter_count();
  if (gradient.size() != rows * width * parameter_count) {
    throw std::invalid_argument(
        "shift_rule_rows: gradient size must be rows * width * parameters");
  }
  const auto& ops = circuit.ops();
  std::vector<ShiftLane> lanes;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (!ops[i].param_index.has_value()) continue;
      for (const double delta : shift_rule_shifts(ops[i].type)) {
        lanes.push_back({r, i, delta});
      }
    }
  }
  std::fill(gradient.begin(), gradient.end(), 0.0);
  if (lanes.empty()) return;
  std::vector<double> values(width * lanes.size());
  evaluate(lanes, values);

  for (std::size_t l = 0; l < lanes.size();) {
    const Op& op = ops[lanes[l].op];
    const std::size_t count = shift_rule_shifts(op.type).size();
    for (std::size_t k = 0; k < width; ++k) {
      gradient[(lanes[l].row * width + k) * parameter_count +
               *op.param_index] += shift_rule_derivative(
          op.type,
          std::span<const double>{values}.subspan(k * lanes.size() + l,
                                                  count));
    }
    l += count;
  }
}

void parameter_shift_jacobian_batch(const Circuit& circuit,
                                    std::span<const double> params,
                                    std::size_t stride, std::size_t rows,
                                    std::span<const Observable> observables,
                                    std::span<double> jacobian) {
  const std::size_t width = observables.size();
  shift_rule_rows(
      circuit, rows, width,
      [&](std::span<const ShiftLane> lanes, std::span<double> values) {
        StateVectorBatch state{circuit.num_qubits(), lanes.size()};
        for_each_lane_op(circuit, params, stride, lanes,
                         [&](const Op& op, std::span<const double> angles) {
                           apply_gate_batch(state, op.type, angles, op.wire0,
                                            op.wire1);
                         });
        for (std::size_t l = 0; l < lanes.size(); ++l) {
          const StateVector psi = state.extract_row(l);
          for (std::size_t k = 0; k < width; ++k) {
            values[k * lanes.size() + l] = observables[k].expectation(psi);
          }
        }
      },
      jacobian);
}

std::vector<double> parameter_shift_gradient(const Circuit& circuit,
                                             std::span<const double> params,
                                             const Observable& observable) {
  std::vector<double> gradient(circuit.parameter_count());
  parameter_shift_jacobian_batch(circuit, params, params.size(), 1,
                                 {&observable, 1}, gradient);
  return gradient;
}

std::size_t parameter_shift_evaluation_count(const Circuit& circuit) {
  std::size_t count = 0;
  for (const Op& op : circuit.ops()) {
    if (op.param_index.has_value()) {
      count += shift_rule_shifts(op.type).size();
    }
  }
  return count;
}

}  // namespace qhdl::quantum

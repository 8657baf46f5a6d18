#include "quantum/parameter_shift.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace qhdl::quantum {

double expectation_with_op_shift(const Circuit& circuit,
                                 std::span<const double> params,
                                 const Observable& observable,
                                 std::size_t op_index, double delta) {
  const auto& ops = circuit.ops();
  if (op_index >= ops.size()) {
    throw std::out_of_range("expectation_with_op_shift: op index");
  }
  StateVector state{circuit.num_qubits()};
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    double angle = op.angle(params);
    if (i == op_index) angle += delta;
    apply_gate(state, op.type, angle, op.wire0, op.wire1);
  }
  return observable.expectation(state);
}

namespace {

/// Number of ± shift pairs in the op's rule: 1 for the two-term rule, 2 for
/// the four-term rule.
std::size_t shift_rule_pairs(GateType type) {
  switch (type) {
    case GateType::RX:
    case GateType::RY:
    case GateType::RZ:
    case GateType::PhaseShift:
    case GateType::RXX:
    case GateType::RYY:
    case GateType::RZZ:
      // Generators P (or P⊗P) with eigenvalues ±1.
      return 1;
    case GateType::CRX:
    case GateType::CRY:
    case GateType::CRZ:
      return 2;
    default:
      throw std::logic_error("parameter shift: no rule for " +
                             gate_name(type));
  }
}

}  // namespace

double shift_rule_derivative(GateType type,
                             const std::function<double(double)>& shifted) {
  const std::size_t pairs = shift_rule_pairs(type);
  const double half_pi = std::numbers::pi / 2.0;
  const double term1 = shifted(half_pi) - shifted(-half_pi);
  if (pairs == 1) return 0.5 * term1;
  const double sqrt2 = std::numbers::sqrt2;
  const double c_plus = (sqrt2 + 1.0) / (4.0 * sqrt2);
  const double c_minus = (sqrt2 - 1.0) / (4.0 * sqrt2);
  const double term2 = shifted(3.0 * half_pi) - shifted(-3.0 * half_pi);
  return c_plus * term1 - c_minus * term2;
}

std::vector<double> parameter_shift_gradient(const Circuit& circuit,
                                             std::span<const double> params,
                                             const Observable& observable) {
  std::vector<double> gradient(circuit.parameter_count(), 0.0);
  const auto& ops = circuit.ops();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (!op.param_index.has_value()) continue;
    gradient[*op.param_index] +=
        shift_rule_derivative(op.type, [&](double delta) {
          return expectation_with_op_shift(circuit, params, observable, i,
                                           delta);
        });
  }
  return gradient;
}

std::size_t parameter_shift_evaluation_count(const Circuit& circuit) {
  std::size_t count = 0;
  for (const Op& op : circuit.ops()) {
    if (op.param_index.has_value()) count += 2 * shift_rule_pairs(op.type);
  }
  return count;
}

}  // namespace qhdl::quantum

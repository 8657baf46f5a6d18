// Parameter-shift gradients — hardware-compatible exact gradients: the
// Executor's ParameterShift method and the noisy QuantumLayer's backward
// (channels.hpp) use them, and tests cross-validate adjoint
// differentiation against them.
//
// The gate → rule table lives once, in shift_rule_shifts and
// shift_rule_derivative:
// Two-term rule (RX/RY/RZ/PhaseShift/RXX/RYY/RZZ, generator eigenvalue
// gap 1):
//   dE/dθ = [E(θ+π/2) − E(θ−π/2)] / 2.
// Four-term rule (CRX/CRY/CRZ, generator spectrum {0, ±1/2}):
//   dE/dθ = c₊[E(θ+π/2) − E(θ−π/2)] − c₋[E(θ+3π/2) − E(θ−3π/2)],
//   c± = (√2 ± 1) / (4√2).
//
// Shifted circuits are batch lanes. A ShiftLane is one circuit evaluation:
// a parameter row with at most one op's angle moved by δ. shift_rule_rows,
// the one shift-row helper, lists every (row, parameterized op, δ) as a
// lane, has the caller evaluate them all at once, and reduces the values by
// row. for_each_lane_op walks the circuit once for all lanes, so the
// pure-state rules evolve one StateVectorBatch and the noisy ones one
// DensityMatrixBatch.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "quantum/circuit.hpp"
#include "quantum/observable.hpp"

namespace qhdl::quantum {

/// The shifts δ at which `type`'s rule evaluates E(θ + δ): ±π/2 for the
/// two-term rule, then ±3π/2 for the four-term rule. Throws
/// std::logic_error for a gate with no rule.
std::span<const double> shift_rule_shifts(GateType type);

/// dE/dθ of one parameterized op of type `type` from
/// values[j] = E(θ + shift_rule_shifts(type)[j]).
double shift_rule_derivative(GateType type, std::span<const double> values);

/// One circuit evaluation in a batch: parameter row `row`, with the angle of
/// op `op` moved by `delta` (op == SIZE_MAX: nothing shifted).
struct ShiftLane {
  std::size_t row = 0;
  std::size_t op = SIZE_MAX;
  double delta = 0.0;
};

/// Calls apply(op, angles) for every op of `circuit` in order. `angles`
/// holds the op's angle in each lane (row r reads params[r * stride, …),
/// plus the lane's delta on its shifted op), or a single angle when every
/// lane's is bitwise the same, so the gate runs its shared kernel.
void for_each_lane_op(
    const Circuit& circuit, std::span<const double> params,
    std::size_t stride, std::span<const ShiftLane> lanes,
    const std::function<void(const Op&, std::span<const double>)>& apply);

/// The one shift-row helper. Lists every (row, parameterized op, δ) of
/// `rows` parameter rows as one lane (rows, then ops ascending, δ in
/// shift_rule_shifts order), has `evaluate(lanes, values)` compute `width`
/// values per lane at once (value k of lane l at values[k * L + l], L lanes),
/// then reduces by row:
/// gradient[(r * width + k) * P + p] (P = parameter_count, overwritten) sums
/// shift_rule_derivative over row r's ops on parameter p, ascending.
void shift_rule_rows(
    const Circuit& circuit, std::size_t rows, std::size_t width,
    const std::function<void(std::span<const ShiftLane>, std::span<double>)>&
        evaluate,
    std::span<double> gradient);

/// d⟨O_k⟩/dθ_p for `rows` parameter rows (row r at params[r * stride, …))
/// via shift rules, every shifted circuit a lane of one StateVectorBatch:
/// jacobian[(r * K + k) * P + p], exactly rows * K * P entries.
void parameter_shift_jacobian_batch(const Circuit& circuit,
                                    std::span<const double> params,
                                    std::size_t stride, std::size_t rows,
                                    std::span<const Observable> observables,
                                    std::span<double> jacobian);

/// Gradient of ⟨observable⟩ w.r.t. every runtime parameter via shift rules.
/// Handles parameters shared by several ops (contributions accumulate).
std::vector<double> parameter_shift_gradient(const Circuit& circuit,
                                             std::span<const double> params,
                                             const Observable& observable);

/// Count of circuit executions the shift rules need for this circuit
/// (2 per two-term op, 4 per four-term op) — the cost the paper's NISQ
/// narrative contrasts with classical backprop.
std::size_t parameter_shift_evaluation_count(const Circuit& circuit);

}  // namespace qhdl::quantum

// Parameter-shift gradients — hardware-compatible exact gradients used here
// to cross-validate adjoint differentiation (tests) and as a reference
// implementation of the rules HQNN training would use on real devices.
//
// The gate → rule table lives once, in shift_rule_derivative: the pure-state
// gradient below, the noisy VJP (channels.hpp) and the evaluation count all
// read it.
//
// Two-term rule (RX/RY/RZ/PhaseShift/RXX/RYY/RZZ, generator eigenvalue
// gap 1):
//   dE/dθ = [E(θ+π/2) − E(θ−π/2)] / 2.
// Four-term rule (CRX/CRY/CRZ, generator spectrum {0, ±1/2}):
//   dE/dθ = c₊[E(θ+π/2) − E(θ−π/2)] − c₋[E(θ+3π/2) − E(θ−3π/2)],
//   c± = (√2 ± 1) / (4√2).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "quantum/circuit.hpp"
#include "quantum/observable.hpp"

namespace qhdl::quantum {

/// dE/dθ of one parameterized op of type `type` by its shift rule, where
/// `shifted(δ)` is the expectation with that op's angle moved by δ (two or
/// four calls). Throws std::logic_error for a gate with no rule.
double shift_rule_derivative(GateType type,
                             const std::function<double(double)>& shifted);

/// Expectation with the angle of op `op_index` shifted by `delta` (all other
/// ops use their normal angles). Helper for shift rules; exposed for tests.
double expectation_with_op_shift(const Circuit& circuit,
                                 std::span<const double> params,
                                 const Observable& observable,
                                 std::size_t op_index, double delta);

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

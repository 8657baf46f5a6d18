#include "quantum/gates.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "quantum/statevector_batch.hpp"

namespace qhdl::quantum {

std::string gate_name(GateType type) {
  switch (type) {
    case GateType::PauliX: return "X";
    case GateType::PauliY: return "Y";
    case GateType::PauliZ: return "Z";
    case GateType::Hadamard: return "H";
    case GateType::S: return "S";
    case GateType::T: return "T";
    case GateType::RX: return "RX";
    case GateType::RY: return "RY";
    case GateType::RZ: return "RZ";
    case GateType::PhaseShift: return "PhaseShift";
    case GateType::CNOT: return "CNOT";
    case GateType::CZ: return "CZ";
    case GateType::SWAP: return "SWAP";
    case GateType::CRX: return "CRX";
    case GateType::CRY: return "CRY";
    case GateType::CRZ: return "CRZ";
    case GateType::RXX: return "RXX";
    case GateType::RYY: return "RYY";
    case GateType::RZZ: return "RZZ";
  }
  return "?";
}

namespace gates {

namespace {
constexpr Complex kI{0.0, 1.0};
constexpr Complex kZero{0.0, 0.0};
constexpr Complex kOne{1.0, 0.0};
}  // namespace

Mat2 pauli_x() { return {kZero, kOne, kOne, kZero}; }
Mat2 pauli_y() { return {kZero, -kI, kI, kZero}; }
Mat2 pauli_z() { return {kOne, kZero, kZero, -kOne}; }

Mat2 hadamard() {
  const double inv_sqrt2 = 1.0 / std::numbers::sqrt2;
  return {Complex{inv_sqrt2, 0}, Complex{inv_sqrt2, 0}, Complex{inv_sqrt2, 0},
          Complex{-inv_sqrt2, 0}};
}

Mat2 s() { return {kOne, kZero, kZero, kI}; }

Mat2 t() {
  return {kOne, kZero, kZero, std::exp(kI * (std::numbers::pi / 4.0))};
}

namespace {

/// cos and sin of the angle a rotation's entries are built from: θ for
/// PhaseShift, θ/2 for RX/RY/RZ and their controlled forms.
struct Trig {
  double c;
  double s;
};

Trig rotation_trig(GateType type, double theta) {
  const double x = type == GateType::PhaseShift ? theta : theta / 2.0;
  return {std::cos(x), std::sin(x)};
}

bool is_rotation(GateType type) {
  return gate_is_parameterized(type) && type != GateType::RXX &&
         type != GateType::RYY && type != GateType::RZZ;
}

/// The rotation (or its controlled form's target factor) with entries from
/// `t`; {t.c, -t.s} gives the rotation at −θ.
Mat2 rotation(GateType type, Trig t) {
  switch (type) {
    case GateType::RX:
    case GateType::CRX:
      return {Complex{t.c, 0}, Complex{0, -t.s}, Complex{0, -t.s},
              Complex{t.c, 0}};
    case GateType::RY:
    case GateType::CRY:
      return {Complex{t.c, 0}, Complex{-t.s, 0}, Complex{t.s, 0},
              Complex{t.c, 0}};
    case GateType::RZ:
    case GateType::CRZ:
      return {Complex{t.c, -t.s}, kZero, kZero, Complex{t.c, t.s}};
    case GateType::PhaseShift:
      return {kOne, kZero, kZero, Complex{t.c, t.s}};
    default:
      throw std::invalid_argument("rotation: not a rotation: " +
                                  gate_name(type));
  }
}

/// dU/dθ of the rotation whose entries come from `t` (at +θ).
Mat2 rotation_derivative(GateType type, Trig t) {
  const double c = 0.5 * t.c;
  const double sn = 0.5 * t.s;
  switch (type) {
    case GateType::RX:
    case GateType::CRX:
      return {Complex{-sn, 0}, Complex{0, -c}, Complex{0, -c},
              Complex{-sn, 0}};
    case GateType::RY:
    case GateType::CRY:
      return {Complex{-sn, 0}, Complex{-c, 0}, Complex{c, 0},
              Complex{-sn, 0}};
    case GateType::RZ:
    case GateType::CRZ:
      return {Complex{-sn, -c}, kZero, kZero, Complex{-sn, c}};
    case GateType::PhaseShift:
      return {kZero, kZero, kZero, kI * Complex{t.c, t.s}};
    default:
      throw std::invalid_argument("derivative_for: gate is not parameterized: " +
                                  gate_name(type));
  }
}

}  // namespace

Mat2 rx(double theta) {
  return rotation(GateType::RX, rotation_trig(GateType::RX, theta));
}

Mat2 ry(double theta) {
  return rotation(GateType::RY, rotation_trig(GateType::RY, theta));
}

Mat2 rz(double theta) {
  return rotation(GateType::RZ, rotation_trig(GateType::RZ, theta));
}

Mat2 phase_shift(double theta) {
  return rotation(GateType::PhaseShift,
                  rotation_trig(GateType::PhaseShift, theta));
}

Mat2 rx_derivative(double theta) { return derivative_for(GateType::RX, theta); }

Mat2 ry_derivative(double theta) { return derivative_for(GateType::RY, theta); }

Mat2 rz_derivative(double theta) { return derivative_for(GateType::RZ, theta); }

Mat2 phase_shift_derivative(double theta) {
  return derivative_for(GateType::PhaseShift, theta);
}

IsingPair ising_pair(GateType type, double theta) {
  const double c = std::cos(theta / 2.0);
  const double s = std::sin(theta / 2.0);
  switch (type) {
    case GateType::RXX: {
      // exp(-i θ XX/2): both parity blocks mix with -i sin.
      const Mat2 block{Complex{c, 0}, Complex{0, -s}, Complex{0, -s},
                       Complex{c, 0}};
      return IsingPair{block, block};
    }
    case GateType::RYY: {
      // YY|00⟩ = -|11⟩ (even block mixes with +i sin); YY|01⟩ = +|10⟩.
      const Mat2 even{Complex{c, 0}, Complex{0, s}, Complex{0, s},
                      Complex{c, 0}};
      const Mat2 odd{Complex{c, 0}, Complex{0, -s}, Complex{0, -s},
                     Complex{c, 0}};
      return IsingPair{even, odd};
    }
    case GateType::RZZ: {
      // Diagonal: e^{-iθ/2} on even parity, e^{+iθ/2} on odd parity.
      const Mat2 even{std::exp(kI * (-theta / 2.0)), Complex{0, 0},
                      Complex{0, 0}, std::exp(kI * (-theta / 2.0))};
      const Mat2 odd{std::exp(kI * (theta / 2.0)), Complex{0, 0},
                     Complex{0, 0}, std::exp(kI * (theta / 2.0))};
      return IsingPair{even, odd};
    }
    default:
      throw std::invalid_argument("ising_pair: not an Ising gate: " +
                                  gate_name(type));
  }
}

IsingPair ising_pair_derivative(GateType type, double theta) {
  const double c = 0.5 * std::cos(theta / 2.0);
  const double s = 0.5 * std::sin(theta / 2.0);
  switch (type) {
    case GateType::RXX: {
      const Mat2 block{Complex{-s, 0}, Complex{0, -c}, Complex{0, -c},
                       Complex{-s, 0}};
      return IsingPair{block, block};
    }
    case GateType::RYY: {
      const Mat2 even{Complex{-s, 0}, Complex{0, c}, Complex{0, c},
                      Complex{-s, 0}};
      const Mat2 odd{Complex{-s, 0}, Complex{0, -c}, Complex{0, -c},
                     Complex{-s, 0}};
      return IsingPair{even, odd};
    }
    case GateType::RZZ: {
      const Mat2 even{-kI * 0.5 * std::exp(kI * (-theta / 2.0)),
                      Complex{0, 0}, Complex{0, 0},
                      -kI * 0.5 * std::exp(kI * (-theta / 2.0))};
      const Mat2 odd{kI * 0.5 * std::exp(kI * (theta / 2.0)), Complex{0, 0},
                     Complex{0, 0},
                     kI * 0.5 * std::exp(kI * (theta / 2.0))};
      return IsingPair{even, odd};
    }
    default:
      throw std::invalid_argument(
          "ising_pair_derivative: not an Ising gate: " + gate_name(type));
  }
}

Mat2 matrix_for(GateType type, double theta) {
  switch (type) {
    case GateType::PauliX: return pauli_x();
    case GateType::PauliY: return pauli_y();
    case GateType::PauliZ: return pauli_z();
    case GateType::Hadamard: return hadamard();
    case GateType::S: return s();
    case GateType::T: return t();
    default:
      if (!is_rotation(type)) {
        throw std::invalid_argument(
            "matrix_for: gate has no 2x2 target matrix: " + gate_name(type));
      }
      return rotation(type, rotation_trig(type, theta));
  }
}

Mat2 derivative_for(GateType type, double theta) {
  if (!is_rotation(type)) {
    throw std::invalid_argument("derivative_for: gate is not parameterized: " +
                                gate_name(type));
  }
  return rotation_derivative(type, rotation_trig(type, theta));
}

}  // namespace gates

namespace {

void require_second_wire(GateType type, std::size_t wire1) {
  if (wire1 == SIZE_MAX) {
    throw std::invalid_argument("apply_gate_batch: " + gate_name(type) +
                                " needs two wires");
  }
}

void check_angles_span(const StateVectorBatch& batch, GateType type,
                       std::span<const double> angles) {
  if (angles.size() != 1 && angles.size() != batch.batch()) {
    throw std::invalid_argument(
        "apply_gate_batch: " + gate_name(type) + " got " +
        std::to_string(angles.size()) + " angles for batch " +
        std::to_string(batch.batch()) + " (need 1 or batch)");
  }
}

bool is_ising(GateType type) {
  return type == GateType::RXX || type == GateType::RYY ||
         type == GateType::RZZ;
}

}  // namespace

void BatchGate::start(GateType type, GateForm form, std::size_t rows,
                      std::size_t lane_repeat) {
  if (rows == 0 || lane_repeat == 0) {
    throw std::invalid_argument("BatchGate: needs at least one angle");
  }
  type_ = type;
  form_ = form;
  shared_ = rows == 1;
  lane_repeat_ = lane_repeat;
  lanes_ = rows * lane_repeat;
  if (shared_) return;
  if (gate_arity(type) == 1) {
    lane_soa_.resize(4 * lanes_);
  } else {
    lane_matrix_.resize(lanes_);
    if (is_ising(type)) lane_odd_.resize(lanes_);
  }
}

void BatchGate::set(std::size_t row, const Mat2& matrix) {
  if (shared_) {
    matrix_ = matrix;
    return;
  }
  const std::size_t end = (row + 1) * lane_repeat_;
  for (std::size_t lane = row * lane_repeat_; lane < end; ++lane) {
    if (gate_arity(type_) == 1) {
      store_lane(matrix, lane_soa_.data(), lanes_, lane);
    } else {
      lane_matrix_[lane] = matrix;
    }
  }
}

void BatchGate::set(std::size_t row, const gates::IsingPair& pair) {
  if (shared_) {
    matrix_ = pair.even;
    odd_ = pair.odd;
    return;
  }
  const std::size_t end = (row + 1) * lane_repeat_;
  for (std::size_t lane = row * lane_repeat_; lane < end; ++lane) {
    lane_matrix_[lane] = pair.even;
    lane_odd_[lane] = pair.odd;
  }
}

void BatchGate::build(GateType type, GateForm form,
                      std::span<const double> angles,
                      std::size_t lane_repeat) {
  if (!gate_is_parameterized(type)) {
    if (form == GateForm::Derivative) {
      throw std::invalid_argument("apply_gate_derivative_batch: " +
                                  gate_name(type) + " has no parameter");
    }
    // Fixed gates cannot vary per row; their angle is ignored anyway.
    start(type, form, 1, 1);
    // A fixed single-qubit gate inverts as its conjugate transpose; CNOT,
    // CZ and SWAP are their own inverses and carry no matrix.
    if (gate_arity(type) == 1) {
      const Mat2 m = gates::matrix_for(type, 0.0);
      set(0, form == GateForm::Inverse ? m.dagger() : m);
    }
    return;
  }
  start(type, form, angles.size(), lane_repeat);
  for (std::size_t r = 0; r < angles.size(); ++r) {
    const double theta = angles[r];
    if (is_ising(type)) {
      set(r, form == GateForm::Derivative
                 ? gates::ising_pair_derivative(type, theta)
                 : gates::ising_pair(
                       type, form == GateForm::Inverse ? -theta : theta));
      continue;
    }
    const gates::Trig t = gates::rotation_trig(type, theta);
    if (form == GateForm::Derivative) {
      set(r, gates::rotation_derivative(type, t));
    } else {
      set(r, gates::rotation(
                 type, form == GateForm::Inverse ? gates::Trig{t.c, -t.s}
                                                 : t));
    }
  }
}

void BatchGate::build_adjoint(GateType type, std::span<const double> angles,
                              BatchGate& inverse, BatchGate& derivative) {
  if (is_ising(type) || !gate_is_parameterized(type)) {
    inverse.build(type, GateForm::Inverse, angles);
    derivative.build(type, GateForm::Derivative, angles);
    return;
  }
  inverse.start(type, GateForm::Inverse, angles.size(), 1);
  derivative.start(type, GateForm::Derivative, angles.size(), 1);
  for (std::size_t r = 0; r < angles.size(); ++r) {
    const gates::Trig t = gates::rotation_trig(type, angles[r]);
    inverse.set(r, gates::rotation(type, gates::Trig{t.c, -t.s}));
    derivative.set(r, gates::rotation_derivative(type, t));
  }
}

void BatchGate::apply(StateVectorBatch& batch, std::size_t wire0,
                      std::size_t wire1) const {
  if (!shared_ && lanes_ != batch.batch()) {
    throw std::invalid_argument(
        "apply_gate_batch: " + gate_name(type_) + " built for " +
        std::to_string(lanes_) + " lanes, batch has " +
        std::to_string(batch.batch()));
  }
  if (gate_arity(type_) == 1) {
    if (!shared_) {
      batch.apply_single_qubit_per_row(lane_soa_, wire0);
      return;
    }
    // One shared matrix takes the kernel kernel_class_for names: the phase
    // multiply by a diagonal matrix's m00/m11, the PauliX swap, or the
    // dense 2x2.
    switch (kernel_class_for(type_)) {
      case KernelClass::Permutation:
        batch.apply_pauli_x(wire0);
        return;
      case KernelClass::Diagonal:
        batch.apply_diagonal(matrix_.m00, matrix_.m11, wire0);
        return;
      default:
        batch.apply_single_qubit(matrix_, wire0);
        return;
    }
  }
  require_second_wire(type_, wire1);
  switch (type_) {
    case GateType::CNOT:
      batch.apply_cnot(wire0, wire1);
      return;
    case GateType::CZ:
      batch.apply_cz(wire0, wire1);
      return;
    case GateType::SWAP:
      batch.apply_swap(wire0, wire1);
      return;
    case GateType::CRX:
    case GateType::CRY:
    case GateType::CRZ:
      if (form_ == GateForm::Derivative) {
        if (shared_) {
          batch.apply_controlled_derivative(matrix_, wire0, wire1);
        } else {
          batch.apply_controlled_derivative_per_row(lane_matrix_, wire0,
                                                    wire1);
        }
      } else if (shared_) {
        batch.apply_controlled(matrix_, wire0, wire1);
      } else {
        batch.apply_controlled_per_row(lane_matrix_, wire0, wire1);
      }
      return;
    case GateType::RXX:
    case GateType::RYY:
    case GateType::RZZ:
      if (shared_) {
        batch.apply_double_flip_pairs(matrix_, odd_, wire0, wire1);
      } else {
        batch.apply_double_flip_pairs_per_row(lane_matrix_, lane_odd_, wire0,
                                              wire1);
      }
      return;
    default:
      throw std::logic_error("apply_gate_batch: unreachable");
  }
}

namespace {

/// The three public dispatch entry points: build `form` once, apply it.
void apply_form(StateVectorBatch& batch, GateType type, GateForm form,
                std::span<const double> angles, std::size_t wire0,
                std::size_t wire1) {
  check_angles_span(batch, type, angles);
  thread_local BatchGate gate;
  gate.build(type, form, angles);
  gate.apply(batch, wire0, wire1);
}

}  // namespace

void apply_gate_batch(StateVectorBatch& batch, GateType type,
                      std::span<const double> angles, std::size_t wire0,
                      std::size_t wire1) {
  apply_form(batch, type, GateForm::Gate, angles, wire0, wire1);
}

void apply_gate_inverse_batch(StateVectorBatch& batch, GateType type,
                              std::span<const double> angles,
                              std::size_t wire0, std::size_t wire1) {
  apply_form(batch, type, GateForm::Inverse, angles, wire0, wire1);
}

void apply_gate_derivative_batch(StateVectorBatch& batch, GateType type,
                                 std::span<const double> angles,
                                 std::size_t wire0, std::size_t wire1) {
  apply_form(batch, type, GateForm::Derivative, angles, wire0, wire1);
}

}  // namespace qhdl::quantum

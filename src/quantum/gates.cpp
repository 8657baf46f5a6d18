#include "quantum/gates.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "quantum/exec_plan.hpp"
#include "quantum/statevector_batch.hpp"

namespace qhdl::quantum {

std::size_t gate_arity(GateType type) {
  switch (type) {
    case GateType::PauliX:
    case GateType::PauliY:
    case GateType::PauliZ:
    case GateType::Hadamard:
    case GateType::S:
    case GateType::T:
    case GateType::RX:
    case GateType::RY:
    case GateType::RZ:
    case GateType::PhaseShift:
      return 1;
    case GateType::CNOT:
    case GateType::CZ:
    case GateType::SWAP:
    case GateType::CRX:
    case GateType::CRY:
    case GateType::CRZ:
    case GateType::RXX:
    case GateType::RYY:
    case GateType::RZZ:
      return 2;
  }
  throw std::logic_error("gate_arity: unknown gate");
}

bool gate_is_parameterized(GateType type) {
  switch (type) {
    case GateType::RX:
    case GateType::RY:
    case GateType::RZ:
    case GateType::PhaseShift:
    case GateType::CRX:
    case GateType::CRY:
    case GateType::CRZ:
    case GateType::RXX:
    case GateType::RYY:
    case GateType::RZZ:
      return true;
    default:
      return false;
  }
}

bool gate_is_controlled(GateType type) {
  switch (type) {
    case GateType::CNOT:
    case GateType::CZ:
    case GateType::CRX:
    case GateType::CRY:
    case GateType::CRZ:
      return true;
    default:
      return false;
  }
}

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

Mat2 rx(double theta) {
  const double c = std::cos(theta / 2.0);
  const double sn = std::sin(theta / 2.0);
  return {Complex{c, 0}, Complex{0, -sn}, Complex{0, -sn}, Complex{c, 0}};
}

Mat2 ry(double theta) {
  const double c = std::cos(theta / 2.0);
  const double sn = std::sin(theta / 2.0);
  return {Complex{c, 0}, Complex{-sn, 0}, Complex{sn, 0}, Complex{c, 0}};
}

Mat2 rz(double theta) {
  const double c = std::cos(theta / 2.0);
  const double sn = std::sin(theta / 2.0);
  return {Complex{c, -sn}, kZero, kZero, Complex{c, sn}};
}

Mat2 phase_shift(double theta) {
  return {kOne, kZero, kZero, Complex{std::cos(theta), std::sin(theta)}};
}

Mat2 rx_derivative(double theta) {
  const double c = 0.5 * std::cos(theta / 2.0);
  const double sn = 0.5 * std::sin(theta / 2.0);
  return {Complex{-sn, 0}, Complex{0, -c}, Complex{0, -c}, Complex{-sn, 0}};
}

Mat2 ry_derivative(double theta) {
  const double c = 0.5 * std::cos(theta / 2.0);
  const double sn = 0.5 * std::sin(theta / 2.0);
  return {Complex{-sn, 0}, Complex{-c, 0}, Complex{c, 0}, Complex{-sn, 0}};
}

Mat2 rz_derivative(double theta) {
  const double c = 0.5 * std::cos(theta / 2.0);
  const double sn = 0.5 * std::sin(theta / 2.0);
  return {Complex{-sn, -c}, kZero, kZero, Complex{-sn, c}};
}

Mat2 phase_shift_derivative(double theta) {
  return {kZero, kZero, kZero, kI * phase_shift(theta).m11};
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
    case GateType::RX:
    case GateType::CRX:
      return rx(theta);
    case GateType::RY:
    case GateType::CRY:
      return ry(theta);
    case GateType::RZ:
    case GateType::CRZ:
      return rz(theta);
    case GateType::PhaseShift: return phase_shift(theta);
    default:
      throw std::invalid_argument("matrix_for: gate has no 2x2 target matrix: " +
                                  gate_name(type));
  }
}

Mat2 derivative_for(GateType type, double theta) {
  switch (type) {
    case GateType::RX:
    case GateType::CRX:
      return rx_derivative(theta);
    case GateType::RY:
    case GateType::CRY:
      return ry_derivative(theta);
    case GateType::RZ:
    case GateType::CRZ:
      return rz_derivative(theta);
    case GateType::PhaseShift:
      return phase_shift_derivative(theta);
    default:
      throw std::invalid_argument("derivative_for: gate is not parameterized: " +
                                  gate_name(type));
  }
}

}  // namespace gates

namespace {

/// Per-call scratch for per-row batched dispatch. thread_local so the batch
/// path allocates at most once per thread, not once per gate.
struct BatchScratch {
  std::vector<double> negated;
  std::vector<Mat2> m_even, m_odd;
  std::vector<Complex> soa;  // per-row 2x2s, SoA (store_lane)
};

BatchScratch& batch_scratch() {
  thread_local BatchScratch scratch;
  return scratch;
}

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

/// Single-qubit dispatch (DESIGN.md §8) of `matrix(θ)` on `wire`: the gate,
/// its inverse or its derivative. One shared angle takes the kernel
/// kernel_class_for names — the phase multiply by a diagonal matrix's
/// m00/m11, the PauliX swap, or the dense 2x2. Per-row angles take the
/// per-row dense 2x2, one matrix per row written SoA.
template <typename MatrixFn>
void apply_single(StateVectorBatch& batch, GateType type,
                  std::span<const double> angles, std::size_t wire,
                  const MatrixFn& matrix) {
  if (angles.size() == 1) {
    switch (kernel_class_for(type)) {
      case KernelClass::Permutation:
        batch.apply_pauli_x(wire);
        return;
      case KernelClass::Diagonal: {
        const Mat2 m = matrix(angles[0]);
        batch.apply_diagonal(m.m00, m.m11, wire);
        return;
      }
      default:
        batch.apply_single_qubit(matrix(angles[0]), wire);
        return;
    }
  }
  const std::size_t rows = angles.size();
  std::vector<Complex>& soa = batch_scratch().soa;
  soa.resize(4 * rows);
  for (std::size_t b = 0; b < rows; ++b) {
    store_lane(matrix(angles[b]), soa.data(), rows, b);
  }
  batch.apply_single_qubit_per_row(soa, wire);
}

/// Two-qubit dispatch with one shared angle: every gate has a structure
/// kernel (DESIGN.md §8).
void apply_two_qubit_shared(StateVectorBatch& batch, GateType type,
                            double theta, std::size_t wire0,
                            std::size_t wire1) {
  require_second_wire(type, wire1);
  switch (type) {
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
      batch.apply_controlled(gates::matrix_for(type, theta), wire0, wire1);
      return;
    case GateType::RXX:
    case GateType::RYY:
    case GateType::RZZ: {
      const gates::IsingPair pair = gates::ising_pair(type, theta);
      batch.apply_double_flip_pairs(pair.even, pair.odd, wire0, wire1);
      return;
    }
    default:
      throw std::logic_error("apply_gate_batch: unreachable");
  }
}

/// Two-qubit dispatch with per-row angles. Only parameterized gates can
/// differ per row.
void apply_two_qubit_per_row(StateVectorBatch& batch, GateType type,
                             std::span<const double> angles,
                             std::size_t wire0, std::size_t wire1) {
  require_second_wire(type, wire1);
  BatchScratch& scratch = batch_scratch();
  const std::size_t rows = batch.batch();
  switch (type) {
    case GateType::CRX:
    case GateType::CRY:
    case GateType::CRZ: {
      scratch.m_even.resize(rows);
      for (std::size_t b = 0; b < rows; ++b) {
        scratch.m_even[b] = gates::matrix_for(type, angles[b]);
      }
      batch.apply_controlled_per_row(scratch.m_even, wire0, wire1);
      return;
    }
    case GateType::RXX:
    case GateType::RYY:
    case GateType::RZZ: {
      scratch.m_even.resize(rows);
      scratch.m_odd.resize(rows);
      for (std::size_t b = 0; b < rows; ++b) {
        const gates::IsingPair pair = gates::ising_pair(type, angles[b]);
        scratch.m_even[b] = pair.even;
        scratch.m_odd[b] = pair.odd;
      }
      batch.apply_double_flip_pairs_per_row(scratch.m_even, scratch.m_odd,
                                            wire0, wire1);
      return;
    }
    default:
      // apply_gate_batch sends fixed gates to the shared dispatch.
      throw std::logic_error("apply_gate_batch: unreachable");
  }
}

}  // namespace

void apply_gate_batch(StateVectorBatch& batch, GateType type,
                      std::span<const double> angles, std::size_t wire0,
                      std::size_t wire1) {
  check_angles_span(batch, type, angles);
  // Fixed gates cannot vary per row; their angle is ignored anyway.
  if (!gate_is_parameterized(type)) angles = angles.first(1);
  if (gate_arity(type) == 1) {
    apply_single(batch, type, angles, wire0,
                 [type](double t) { return gates::matrix_for(type, t); });
  } else if (angles.size() == 1) {
    apply_two_qubit_shared(batch, type, angles[0], wire0, wire1);
  } else {
    apply_two_qubit_per_row(batch, type, angles, wire0, wire1);
  }
}

void apply_gate_inverse_batch(StateVectorBatch& batch, GateType type,
                              std::span<const double> angles,
                              std::size_t wire0, std::size_t wire1) {
  check_angles_span(batch, type, angles);
  if (!gate_is_parameterized(type)) {
    if (gate_arity(type) == 1) {
      // A fixed single-qubit gate inverts as its conjugate transpose.
      const Mat2 inverse = gates::matrix_for(type, 0.0).dagger();
      apply_single(batch, type, angles.first(1), wire0,
                   [&inverse](double) { return inverse; });
    } else {
      // CNOT, CZ and SWAP are their own inverses.
      apply_gate_batch(batch, type, angles, wire0, wire1);
    }
    return;
  }
  // Parameterized gates invert by negating the angle.
  std::vector<double>& negated = batch_scratch().negated;
  negated.resize(angles.size());
  for (std::size_t b = 0; b < angles.size(); ++b) negated[b] = -angles[b];
  apply_gate_batch(batch, type, negated, wire0, wire1);
}

void apply_gate_derivative_batch(StateVectorBatch& batch, GateType type,
                                 std::span<const double> angles,
                                 std::size_t wire0, std::size_t wire1) {
  if (!gate_is_parameterized(type)) {
    throw std::invalid_argument("apply_gate_derivative_batch: " +
                                gate_name(type) + " has no parameter");
  }
  check_angles_span(batch, type, angles);
  if (gate_arity(type) == 1) {
    apply_single(batch, type, angles, wire0,
                 [type](double t) { return gates::derivative_for(type, t); });
    return;
  }
  require_second_wire(type, wire1);
  const bool controlled = gate_is_controlled(type);
  if (angles.size() == 1) {
    if (controlled) {
      batch.apply_controlled_derivative(
          gates::derivative_for(type, angles[0]), wire0, wire1);
    } else {
      const gates::IsingPair pair =
          gates::ising_pair_derivative(type, angles[0]);
      batch.apply_double_flip_pairs(pair.even, pair.odd, wire0, wire1);
    }
    return;
  }
  BatchScratch& scratch = batch_scratch();
  const std::size_t rows = batch.batch();
  scratch.m_even.resize(rows);
  if (controlled) {
    for (std::size_t b = 0; b < rows; ++b) {
      scratch.m_even[b] = gates::derivative_for(type, angles[b]);
    }
    batch.apply_controlled_derivative_per_row(scratch.m_even, wire0, wire1);
    return;
  }
  scratch.m_odd.resize(rows);
  for (std::size_t b = 0; b < rows; ++b) {
    const gates::IsingPair pair = gates::ising_pair_derivative(type, angles[b]);
    scratch.m_even[b] = pair.even;
    scratch.m_odd[b] = pair.odd;
  }
  batch.apply_double_flip_pairs_per_row(scratch.m_even, scratch.m_odd, wire0,
                                        wire1);
}

}  // namespace qhdl::quantum

#include "quantum/gates.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "quantum/statevector_batch.hpp"
#include "util/backend_registry.hpp"

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
  return {std::exp(-kI * (theta / 2.0)), kZero, kZero,
          std::exp(kI * (theta / 2.0))};
}

Mat2 phase_shift(double theta) {
  return {kOne, kZero, kZero, std::exp(kI * theta)};
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
  return {-kI * 0.5 * std::exp(-kI * (theta / 2.0)), kZero, kZero,
          kI * 0.5 * std::exp(kI * (theta / 2.0))};
}

Mat2 phase_shift_derivative(double theta) {
  return {kZero, kZero, kZero, kI * std::exp(kI * theta)};
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

constexpr Complex kIu{0.0, 1.0};
constexpr Complex kOneu{1.0, 0.0};

void require_second_wire(GateType type, std::size_t wire1) {
  if (wire1 == SIZE_MAX) {
    throw std::invalid_argument("apply_gate: " + gate_name(type) +
                                " needs two wires");
  }
}

/// Generic path: every single-qubit gate as a dense 2x2 matvec (the
/// pre-specialization behavior, kept verbatim for the reference backend).
void apply_gate_generic(StateVector& state, GateType type, double theta,
                        std::size_t wire0, std::size_t wire1) {
  switch (type) {
    case GateType::CNOT:
      require_second_wire(type, wire1);
      state.apply_cnot(wire0, wire1);
      return;
    case GateType::CZ:
      require_second_wire(type, wire1);
      state.apply_cz(wire0, wire1);
      return;
    case GateType::SWAP:
      require_second_wire(type, wire1);
      state.apply_swap(wire0, wire1);
      return;
    case GateType::CRX:
    case GateType::CRY:
    case GateType::CRZ:
      require_second_wire(type, wire1);
      state.apply_controlled(gates::matrix_for(type, theta), wire0, wire1);
      return;
    case GateType::RXX:
    case GateType::RYY:
    case GateType::RZZ: {
      require_second_wire(type, wire1);
      const gates::IsingPair pair = gates::ising_pair(type, theta);
      state.apply_double_flip_pairs(pair.even, pair.odd, wire0, wire1);
      return;
    }
    default:
      state.apply_single_qubit(gates::matrix_for(type, theta), wire0);
      return;
  }
}

/// Specialized dispatch (DESIGN.md §8): diagonal / real-rotation /
/// permutation kernels where the gate structure allows, dense 2x2 otherwise.
void apply_gate_specialized(StateVector& state, GateType type, double theta,
                            std::size_t wire0, std::size_t wire1) {
  switch (type) {
    case GateType::PauliX:
      state.apply_pauli_x(wire0);
      return;
    case GateType::PauliZ:
      state.apply_diagonal(kOneu, -kOneu, wire0);
      return;
    case GateType::S:
      state.apply_diagonal(kOneu, kIu, wire0);
      return;
    case GateType::T:
      state.apply_diagonal(kOneu, std::exp(kIu * (std::numbers::pi / 4.0)),
                           wire0);
      return;
    case GateType::RZ: {
      const double c = std::cos(theta / 2.0);
      const double s = std::sin(theta / 2.0);
      state.apply_diagonal(Complex{c, -s}, Complex{c, s}, wire0);
      return;
    }
    case GateType::PhaseShift:
      state.apply_diagonal(kOneu, Complex{std::cos(theta), std::sin(theta)},
                           wire0);
      return;
    case GateType::RX:
      state.apply_rx_fast(std::cos(theta / 2.0), std::sin(theta / 2.0),
                          wire0);
      return;
    case GateType::RY:
      state.apply_ry_fast(std::cos(theta / 2.0), std::sin(theta / 2.0),
                          wire0);
      return;
    default:
      // PauliY / Hadamard keep the dense matvec; two-qubit gates already
      // dispatch to their structure-specific kernels.
      apply_gate_generic(state, type, theta, wire0, wire1);
      return;
  }
}

}  // namespace

void apply_gate(StateVector& state, GateType type, double theta,
                std::size_t wire0, std::size_t wire1) {
  if (util::simd::active_backend().reference) {
    apply_gate_generic(state, type, theta, wire0, wire1);
  } else {
    apply_gate_specialized(state, type, theta, wire0, wire1);
  }
}

void apply_gate_inverse(StateVector& state, GateType type, double theta,
                        std::size_t wire0, std::size_t wire1) {
  if (util::simd::active_backend().reference) {
    switch (type) {
      case GateType::CNOT:
      case GateType::CZ:
      case GateType::SWAP:
        // Self-inverse.
        apply_gate_generic(state, type, theta, wire0, wire1);
        return;
      case GateType::CRX:
      case GateType::CRY:
      case GateType::CRZ:
        require_second_wire(type, wire1);
        state.apply_controlled(gates::matrix_for(type, -theta), wire0, wire1);
        return;
      case GateType::RXX:
      case GateType::RYY:
      case GateType::RZZ: {
        require_second_wire(type, wire1);
        const gates::IsingPair pair = gates::ising_pair(type, -theta);
        state.apply_double_flip_pairs(pair.even, pair.odd, wire0, wire1);
        return;
      }
      case GateType::RX:
      case GateType::RY:
      case GateType::RZ:
        state.apply_single_qubit(gates::matrix_for(type, -theta), wire0);
        return;
      case GateType::PhaseShift:
        state.apply_single_qubit(gates::phase_shift(-theta), wire0);
        return;
      default:
        // Fixed gates: apply the conjugate transpose.
        state.apply_single_qubit(gates::matrix_for(type, theta).dagger(),
                                 wire0);
        return;
    }
  }
  switch (type) {
    case GateType::S:
      state.apply_diagonal(kOneu, -kIu, wire0);
      return;
    case GateType::T:
      state.apply_diagonal(kOneu, std::exp(-kIu * (std::numbers::pi / 4.0)),
                           wire0);
      return;
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
      // Every parameterized gate inverts by negating its angle.
      apply_gate_specialized(state, type, -theta, wire0, wire1);
      return;
    default:
      // X, Y, Z, H, CNOT, CZ, SWAP are self-inverse (U† = U).
      apply_gate_specialized(state, type, theta, wire0, wire1);
      return;
  }
}

void apply_gate_derivative(StateVector& state, GateType type, double theta,
                           std::size_t wire0, std::size_t wire1) {
  if (!gate_is_parameterized(type)) {
    throw std::invalid_argument("apply_gate_derivative: " + gate_name(type) +
                                " has no parameter");
  }
  switch (type) {
    case GateType::CRX:
    case GateType::CRY:
    case GateType::CRZ:
      require_second_wire(type, wire1);
      state.apply_controlled_derivative(gates::derivative_for(type, theta),
                                        wire0, wire1);
      return;
    case GateType::RXX:
    case GateType::RYY:
    case GateType::RZZ: {
      require_second_wire(type, wire1);
      const gates::IsingPair pair = gates::ising_pair_derivative(type, theta);
      state.apply_double_flip_pairs(pair.even, pair.odd, wire0, wire1);
      return;
    }
    case GateType::RZ:
      if (!util::simd::active_backend().reference) {
        // dRZ/dθ = diag(-i/2·e^{-iθ/2}, i/2·e^{iθ/2}) — still diagonal.
        const double c = 0.5 * std::cos(theta / 2.0);
        const double s = 0.5 * std::sin(theta / 2.0);
        state.apply_diagonal(Complex{-s, -c}, Complex{-s, c}, wire0);
        return;
      }
      state.apply_single_qubit(gates::derivative_for(type, theta), wire0);
      return;
    case GateType::PhaseShift:
      if (!util::simd::active_backend().reference) {
        // d/dθ diag(1, e^{iθ}) = diag(0, i·e^{iθ}).
        state.apply_diagonal(Complex{0.0, 0.0},
                             kIu * Complex{std::cos(theta), std::sin(theta)},
                             wire0);
        return;
      }
      state.apply_single_qubit(gates::derivative_for(type, theta), wire0);
      return;
    case GateType::RX:
      if (!util::simd::active_backend().reference) {
        // dRX/dθ = [[-s', -ic'], [-ic', -s']] with c' = cos(θ/2)/2,
        // s' = sin(θ/2)/2 — the RX kernel shape with (c, s) = (-s', c').
        state.apply_rx_fast(-0.5 * std::sin(theta / 2.0),
                            0.5 * std::cos(theta / 2.0), wire0);
        return;
      }
      state.apply_single_qubit(gates::derivative_for(type, theta), wire0);
      return;
    case GateType::RY:
      if (!util::simd::active_backend().reference) {
        // dRY/dθ = [[-s', -c'], [c', -s']] — RY kernel with (-s', c').
        state.apply_ry_fast(-0.5 * std::sin(theta / 2.0),
                            0.5 * std::cos(theta / 2.0), wire0);
        return;
      }
      state.apply_single_qubit(gates::derivative_for(type, theta), wire0);
      return;
    default:
      state.apply_single_qubit(gates::derivative_for(type, theta), wire0);
      return;
  }
}

namespace {

/// Per-call scratch for per-row batched dispatch. thread_local so the batch
/// path allocates at most once per thread, not once per gate.
struct BatchScratch {
  std::vector<double> c, s;
  std::vector<Complex> d0, d1;
  std::vector<Mat2> m_even, m_odd;
};

BatchScratch& batch_scratch() {
  thread_local BatchScratch scratch;
  return scratch;
}

void require_second_wire_batch(GateType type, std::size_t wire1) {
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

/// Shared-angle dispatch: mirror of apply_gate_specialized over the batch.
void apply_gate_batch_shared(StateVectorBatch& batch, GateType type,
                             double theta, std::size_t wire0,
                             std::size_t wire1) {
  switch (type) {
    case GateType::PauliX:
      batch.apply_pauli_x(wire0);
      return;
    case GateType::PauliZ:
      batch.apply_diagonal(kOneu, -kOneu, wire0);
      return;
    case GateType::S:
      batch.apply_diagonal(kOneu, kIu, wire0);
      return;
    case GateType::T:
      batch.apply_diagonal(kOneu, std::exp(kIu * (std::numbers::pi / 4.0)),
                           wire0);
      return;
    case GateType::RZ: {
      const double c = std::cos(theta / 2.0);
      const double s = std::sin(theta / 2.0);
      batch.apply_diagonal(Complex{c, -s}, Complex{c, s}, wire0);
      return;
    }
    case GateType::PhaseShift:
      batch.apply_diagonal(kOneu, Complex{std::cos(theta), std::sin(theta)},
                           wire0);
      return;
    case GateType::RX:
      batch.apply_rx_fast(std::cos(theta / 2.0), std::sin(theta / 2.0),
                          wire0);
      return;
    case GateType::RY:
      batch.apply_ry_fast(std::cos(theta / 2.0), std::sin(theta / 2.0),
                          wire0);
      return;
    case GateType::CNOT:
      require_second_wire_batch(type, wire1);
      batch.apply_cnot(wire0, wire1);
      return;
    case GateType::CZ:
      require_second_wire_batch(type, wire1);
      batch.apply_cz(wire0, wire1);
      return;
    case GateType::SWAP:
      require_second_wire_batch(type, wire1);
      batch.apply_swap(wire0, wire1);
      return;
    case GateType::CRX:
    case GateType::CRY:
    case GateType::CRZ:
      require_second_wire_batch(type, wire1);
      batch.apply_controlled(gates::matrix_for(type, theta), wire0, wire1);
      return;
    case GateType::RXX:
    case GateType::RYY:
    case GateType::RZZ: {
      require_second_wire_batch(type, wire1);
      const gates::IsingPair pair = gates::ising_pair(type, theta);
      batch.apply_double_flip_pairs(pair.even, pair.odd, wire0, wire1);
      return;
    }
    default:
      // PauliY / Hadamard: dense 2x2 over the batch.
      batch.apply_single_qubit(gates::matrix_for(type, theta), wire0);
      return;
  }
}

/// Per-row-angle dispatch. Only parameterized gates can differ per row.
void apply_gate_batch_per_row(StateVectorBatch& batch, GateType type,
                              std::span<const double> angles,
                              std::size_t wire0, std::size_t wire1) {
  BatchScratch& scratch = batch_scratch();
  const std::size_t rows = batch.batch();
  switch (type) {
    case GateType::RX:
    case GateType::RY: {
      scratch.c.resize(rows);
      scratch.s.resize(rows);
      for (std::size_t b = 0; b < rows; ++b) {
        scratch.c[b] = std::cos(angles[b] / 2.0);
        scratch.s[b] = std::sin(angles[b] / 2.0);
      }
      if (type == GateType::RX) {
        batch.apply_rx_fast_per_row(scratch.c, scratch.s, wire0);
      } else {
        batch.apply_ry_fast_per_row(scratch.c, scratch.s, wire0);
      }
      return;
    }
    case GateType::RZ: {
      scratch.d0.resize(rows);
      scratch.d1.resize(rows);
      for (std::size_t b = 0; b < rows; ++b) {
        const double c = std::cos(angles[b] / 2.0);
        const double s = std::sin(angles[b] / 2.0);
        scratch.d0[b] = Complex{c, -s};
        scratch.d1[b] = Complex{c, s};
      }
      batch.apply_diagonal_per_row(scratch.d0, scratch.d1, wire0);
      return;
    }
    case GateType::PhaseShift: {
      scratch.d0.assign(rows, kOneu);
      scratch.d1.resize(rows);
      for (std::size_t b = 0; b < rows; ++b) {
        scratch.d1[b] = Complex{std::cos(angles[b]), std::sin(angles[b])};
      }
      batch.apply_diagonal_per_row(scratch.d0, scratch.d1, wire0);
      return;
    }
    case GateType::CRX:
    case GateType::CRY:
    case GateType::CRZ: {
      require_second_wire_batch(type, wire1);
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
      require_second_wire_batch(type, wire1);
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
      // Fixed gates cannot vary per row; the angle is ignored anyway.
      apply_gate_batch_shared(batch, type, angles[0], wire0, wire1);
      return;
  }
}

}  // namespace

void apply_gate_batch(StateVectorBatch& batch, GateType type,
                      std::span<const double> angles, std::size_t wire0,
                      std::size_t wire1) {
  check_angles_span(batch, type, angles);
  if (angles.size() == 1 || !gate_is_parameterized(type)) {
    apply_gate_batch_shared(batch, type, angles[0], wire0, wire1);
  } else {
    apply_gate_batch_per_row(batch, type, angles, wire0, wire1);
  }
}

void apply_gate_inverse_batch(StateVectorBatch& batch, GateType type,
                              std::span<const double> angles,
                              std::size_t wire0, std::size_t wire1) {
  check_angles_span(batch, type, angles);
  if (!gate_is_parameterized(type)) {
    // S and T are the only non-self-inverse fixed gates in the library.
    if (type == GateType::S) {
      batch.apply_diagonal(kOneu, -kIu, wire0);
    } else if (type == GateType::T) {
      batch.apply_diagonal(kOneu, std::exp(-kIu * (std::numbers::pi / 4.0)),
                           wire0);
    } else {
      apply_gate_batch_shared(batch, type, 0.0, wire0, wire1);
    }
    return;
  }
  // Parameterized gates invert by negating the angle.
  if (angles.size() == 1) {
    apply_gate_batch_shared(batch, type, -angles[0], wire0, wire1);
    return;
  }
  thread_local std::vector<double> negated;
  negated.resize(angles.size());
  for (std::size_t b = 0; b < angles.size(); ++b) negated[b] = -angles[b];
  apply_gate_batch_per_row(batch, type, negated, wire0, wire1);
}

void apply_gate_derivative_batch(StateVectorBatch& batch, GateType type,
                                 std::span<const double> angles,
                                 std::size_t wire0, std::size_t wire1) {
  if (!gate_is_parameterized(type)) {
    throw std::invalid_argument("apply_gate_derivative_batch: " +
                                gate_name(type) + " has no parameter");
  }
  check_angles_span(batch, type, angles);
  BatchScratch& scratch = batch_scratch();
  const bool shared = angles.size() == 1;
  const std::size_t rows = batch.batch();
  switch (type) {
    case GateType::RX:
    case GateType::RY: {
      // dU/dθ is the rotation-kernel shape with (c, s) = (-s', c') where
      // c' = cos(θ/2)/2, s' = sin(θ/2)/2 (see apply_gate_derivative).
      if (shared) {
        const double c = -0.5 * std::sin(angles[0] / 2.0);
        const double s = 0.5 * std::cos(angles[0] / 2.0);
        if (type == GateType::RX) {
          batch.apply_rx_fast(c, s, wire0);
        } else {
          batch.apply_ry_fast(c, s, wire0);
        }
        return;
      }
      scratch.c.resize(rows);
      scratch.s.resize(rows);
      for (std::size_t b = 0; b < rows; ++b) {
        scratch.c[b] = -0.5 * std::sin(angles[b] / 2.0);
        scratch.s[b] = 0.5 * std::cos(angles[b] / 2.0);
      }
      if (type == GateType::RX) {
        batch.apply_rx_fast_per_row(scratch.c, scratch.s, wire0);
      } else {
        batch.apply_ry_fast_per_row(scratch.c, scratch.s, wire0);
      }
      return;
    }
    case GateType::RZ: {
      if (shared) {
        const double c = 0.5 * std::cos(angles[0] / 2.0);
        const double s = 0.5 * std::sin(angles[0] / 2.0);
        batch.apply_diagonal(Complex{-s, -c}, Complex{-s, c}, wire0);
        return;
      }
      scratch.d0.resize(rows);
      scratch.d1.resize(rows);
      for (std::size_t b = 0; b < rows; ++b) {
        const double c = 0.5 * std::cos(angles[b] / 2.0);
        const double s = 0.5 * std::sin(angles[b] / 2.0);
        scratch.d0[b] = Complex{-s, -c};
        scratch.d1[b] = Complex{-s, c};
      }
      batch.apply_diagonal_per_row(scratch.d0, scratch.d1, wire0);
      return;
    }
    case GateType::PhaseShift: {
      if (shared) {
        batch.apply_diagonal(
            Complex{0.0, 0.0},
            kIu * Complex{std::cos(angles[0]), std::sin(angles[0])}, wire0);
        return;
      }
      scratch.d0.assign(rows, Complex{0.0, 0.0});
      scratch.d1.resize(rows);
      for (std::size_t b = 0; b < rows; ++b) {
        scratch.d1[b] =
            kIu * Complex{std::cos(angles[b]), std::sin(angles[b])};
      }
      batch.apply_diagonal_per_row(scratch.d0, scratch.d1, wire0);
      return;
    }
    case GateType::CRX:
    case GateType::CRY:
    case GateType::CRZ: {
      require_second_wire_batch(type, wire1);
      if (shared) {
        batch.apply_controlled_derivative(
            gates::derivative_for(type, angles[0]), wire0, wire1);
        return;
      }
      scratch.m_even.resize(rows);
      for (std::size_t b = 0; b < rows; ++b) {
        scratch.m_even[b] = gates::derivative_for(type, angles[b]);
      }
      batch.apply_controlled_derivative_per_row(scratch.m_even, wire0, wire1);
      return;
    }
    case GateType::RXX:
    case GateType::RYY:
    case GateType::RZZ: {
      require_second_wire_batch(type, wire1);
      if (shared) {
        const gates::IsingPair pair =
            gates::ising_pair_derivative(type, angles[0]);
        batch.apply_double_flip_pairs(pair.even, pair.odd, wire0, wire1);
        return;
      }
      scratch.m_even.resize(rows);
      scratch.m_odd.resize(rows);
      for (std::size_t b = 0; b < rows; ++b) {
        const gates::IsingPair pair =
            gates::ising_pair_derivative(type, angles[b]);
        scratch.m_even[b] = pair.even;
        scratch.m_odd[b] = pair.odd;
      }
      batch.apply_double_flip_pairs_per_row(scratch.m_even, scratch.m_odd,
                                            wire0, wire1);
      return;
    }
    default:
      throw std::logic_error("apply_gate_derivative_batch: unreachable");
  }
}

}  // namespace qhdl::quantum

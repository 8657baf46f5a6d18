// A dense-matrix quantum simulator that shares no code with the library's
// kernels: the test oracle for the state-vector and density-matrix paths
// (DESIGN.md §8).
//
// Every gate's 2x2 or 4x4 matrix is written here from its closed form
// (PennyLane conventions, as in quantum/gates.hpp), and its 2^q x 2^q
// unitary on a q-qubit register is a sum of Kronecker products with one
// 2x2 factor per wire (wire 0 is the most significant bit). A state is
// evolved by dense matvec, a density matrix as U ρ U† and Σ K ρ K†, and
// gradients come from exact derivative matrices:
//   dE/dθ_p = Σ_{ops k reading θ_p} 2·Re⟨ψ| O · U_n…(∂U_k)…U_1 |0⟩.
// Nothing here includes the library, so a wrong matrix entry, dispatch
// choice or kernel in the library cannot also be wrong here.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <numbers>
#include <span>
#include <stdexcept>
#include <vector>

namespace qhdl::oracle {

using Complex = std::complex<double>;

inline constexpr std::size_t kNoWire = SIZE_MAX;

/// Dense square complex matrix, row-major.
struct Matrix {
  std::size_t dim = 0;
  std::vector<Complex> entries;

  explicit Matrix(std::size_t dimension)
      : dim(dimension), entries(dimension * dimension) {}
  Matrix(std::size_t dimension, std::vector<Complex> row_major)
      : dim(dimension), entries(std::move(row_major)) {}

  Complex& operator()(std::size_t r, std::size_t c) {
    return entries[r * dim + c];
  }
  Complex operator()(std::size_t r, std::size_t c) const {
    return entries[r * dim + c];
  }
};

inline Matrix identity(std::size_t dim) {
  Matrix m{dim};
  for (std::size_t i = 0; i < dim; ++i) m(i, i) = 1.0;
  return m;
}

inline Matrix operator+(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  for (std::size_t i = 0; i < out.entries.size(); ++i) {
    out.entries[i] += b.entries[i];
  }
  return out;
}

inline Matrix operator*(Complex factor, const Matrix& a) {
  Matrix out = a;
  for (Complex& e : out.entries) e *= factor;
  return out;
}

/// Dense product. Zero entries of `a` are skipped: the embedded gates are
/// sparse, and a skipped term only ever adds an exact zero.
inline Matrix operator*(const Matrix& a, const Matrix& b) {
  Matrix out{a.dim};
  for (std::size_t r = 0; r < a.dim; ++r) {
    for (std::size_t k = 0; k < a.dim; ++k) {
      const Complex x = a(r, k);
      if (x == Complex{}) continue;
      for (std::size_t c = 0; c < a.dim; ++c) out(r, c) += x * b(k, c);
    }
  }
  return out;
}

inline Matrix dagger(const Matrix& a) {
  Matrix out{a.dim};
  for (std::size_t r = 0; r < a.dim; ++r) {
    for (std::size_t c = 0; c < a.dim; ++c) out(c, r) = std::conj(a(r, c));
  }
  return out;
}

/// a ⊗ b.
inline Matrix kron(const Matrix& a, const Matrix& b) {
  Matrix out{a.dim * b.dim};
  for (std::size_t ar = 0; ar < a.dim; ++ar) {
    for (std::size_t ac = 0; ac < a.dim; ++ac) {
      for (std::size_t br = 0; br < b.dim; ++br) {
        for (std::size_t bc = 0; bc < b.dim; ++bc) {
          out(ar * b.dim + br, ac * b.dim + bc) = a(ar, ac) * b(br, bc);
        }
      }
    }
  }
  return out;
}

inline Matrix mat2(Complex m00, Complex m01, Complex m10, Complex m11) {
  return Matrix{2, {m00, m01, m10, m11}};
}

// --- gates -------------------------------------------------------------------

/// The library's gate set, named independently of quantum::GateType.
enum class Gate {
  PauliX, PauliY, PauliZ, Hadamard, S, T,
  RX, RY, RZ, PhaseShift,
  CNOT, CZ, SWAP,
  CRX, CRY, CRZ,
  RXX, RYY, RZZ,
};

inline constexpr Gate kAllGates[] = {
    Gate::PauliX, Gate::PauliY, Gate::PauliZ, Gate::Hadamard, Gate::S,
    Gate::T,      Gate::RX,     Gate::RY,     Gate::RZ,       Gate::PhaseShift,
    Gate::CNOT,   Gate::CZ,     Gate::SWAP,   Gate::CRX,      Gate::CRY,
    Gate::CRZ,    Gate::RXX,    Gate::RYY,    Gate::RZZ,
};

inline std::size_t arity(Gate gate) {
  return gate >= Gate::CNOT ? 2 : 1;
}

inline bool parameterized(Gate gate) {
  switch (gate) {
    case Gate::RX: case Gate::RY: case Gate::RZ: case Gate::PhaseShift:
    case Gate::CRX: case Gate::CRY: case Gate::CRZ:
    case Gate::RXX: case Gate::RYY: case Gate::RZZ:
      return true;
    default:
      return false;
  }
}

namespace detail {

inline const Complex kI{0.0, 1.0};

inline Matrix pauli_x() { return mat2(0.0, 1.0, 1.0, 0.0); }
inline Matrix pauli_y() { return mat2(0.0, -kI, kI, 0.0); }
inline Matrix pauli_z() { return mat2(1.0, 0.0, 0.0, -1.0); }
/// |0⟩⟨0| and |1⟩⟨1|.
inline Matrix projector(int bit) {
  return bit == 0 ? mat2(1.0, 0.0, 0.0, 0.0) : mat2(0.0, 0.0, 0.0, 1.0);
}

/// exp(-iθP/2) = cos(θ/2) I - i sin(θ/2) P for a Pauli (or Pauli product)
/// P, or its θ-derivative -sin(θ/2)/2 I - i cos(θ/2)/2 P.
inline Matrix pauli_rotation(const Matrix& p, double theta, bool derivative) {
  const double c = std::cos(theta / 2.0);
  const double s = std::sin(theta / 2.0);
  if (derivative) {
    return Complex{-s / 2.0} * identity(p.dim) + (-kI * (c / 2.0)) * p;
  }
  return Complex{c} * identity(p.dim) + (-kI * s) * p;
}

/// The one-qubit target factor of RX/RY/RZ/PhaseShift (and of the
/// controlled rotations) or its derivative.
inline Matrix rotation(Gate gate, double theta, bool derivative) {
  switch (gate) {
    case Gate::RX: case Gate::CRX:
      return pauli_rotation(pauli_x(), theta, derivative);
    case Gate::RY: case Gate::CRY:
      return pauli_rotation(pauli_y(), theta, derivative);
    case Gate::RZ: case Gate::CRZ:
      return pauli_rotation(pauli_z(), theta, derivative);
    case Gate::PhaseShift: {
      const Complex phase = std::exp(kI * theta);
      return derivative ? mat2(0.0, 0.0, 0.0, kI * phase)
                        : mat2(1.0, 0.0, 0.0, phase);
    }
    default:
      throw std::logic_error("oracle::rotation: not a rotation");
  }
}

inline Matrix local(Gate gate, double theta, bool derivative) {
  if (derivative && !parameterized(gate)) {
    throw std::invalid_argument("oracle: fixed gates have no derivative");
  }
  const double r = 1.0 / std::sqrt(2.0);
  switch (gate) {
    case Gate::PauliX: return pauli_x();
    case Gate::PauliY: return pauli_y();
    case Gate::PauliZ: return pauli_z();
    case Gate::Hadamard: return mat2(r, r, r, -r);
    case Gate::S: return mat2(1.0, 0.0, 0.0, kI);
    case Gate::T:
      return mat2(1.0, 0.0, 0.0, std::exp(kI * (std::numbers::pi / 4.0)));
    case Gate::RX: case Gate::RY: case Gate::RZ: case Gate::PhaseShift:
      return rotation(gate, theta, derivative);
    case Gate::CNOT:
      return kron(projector(0), identity(2)) + kron(projector(1), pauli_x());
    case Gate::CZ:
      return kron(projector(0), identity(2)) + kron(projector(1), pauli_z());
    case Gate::SWAP: {
      // (I + XX + YY + ZZ) / 2.
      const Matrix sum = identity(4) + kron(pauli_x(), pauli_x()) +
                         kron(pauli_y(), pauli_y()) +
                         kron(pauli_z(), pauli_z());
      return Complex{0.5} * sum;
    }
    case Gate::CRX: case Gate::CRY: case Gate::CRZ: {
      // |0⟩⟨0| ⊗ I + |1⟩⟨1| ⊗ R(θ); the derivative drops the constant term.
      const Matrix target = kron(projector(1), rotation(gate, theta,
                                                        derivative));
      return derivative ? target
                        : kron(projector(0), identity(2)) + target;
    }
    case Gate::RXX:
      return pauli_rotation(kron(pauli_x(), pauli_x()), theta, derivative);
    case Gate::RYY:
      return pauli_rotation(kron(pauli_y(), pauli_y()), theta, derivative);
    case Gate::RZZ:
      return pauli_rotation(kron(pauli_z(), pauli_z()), theta, derivative);
  }
  throw std::logic_error("oracle: unknown gate");
}

}  // namespace detail

/// The gate's own 2x2 (one wire) or 4x4 (first wire = high bit) matrix.
inline Matrix local_unitary(Gate gate, double theta) {
  return detail::local(gate, theta, false);
}

/// d/dθ of local_unitary; throws std::invalid_argument for fixed gates.
inline Matrix local_derivative(Gate gate, double theta) {
  return detail::local(gate, theta, true);
}

/// A 2x2 (`wire1` == kNoWire) or 4x4 local matrix on a `qubits`-qubit
/// register: ⊗ over the wires of the identity except the local factor at
/// `wire0`. A 4x4 is split into its 2x2 blocks, M = Σ_ij |i⟩⟨j| ⊗ M_ij, and
/// each term places |i⟩⟨j| at `wire0` and M_ij at `wire1`.
inline Matrix embed(const Matrix& local, std::size_t qubits, std::size_t wire0,
                    std::size_t wire1 = kNoWire) {
  if (wire0 >= qubits || (wire1 != kNoWire &&
                          (wire1 >= qubits || wire1 == wire0))) {
    throw std::invalid_argument("oracle::embed: bad wires");
  }
  const auto chain = [qubits](const std::vector<std::pair<std::size_t,
                                                          Matrix>>& at) {
    Matrix out = identity(1);
    for (std::size_t w = 0; w < qubits; ++w) {
      Matrix factor = identity(2);
      for (const auto& [wire, m] : at) {
        if (wire == w) factor = m;
      }
      out = kron(out, factor);
    }
    return out;
  };
  if (wire1 == kNoWire) {
    if (local.dim != 2) throw std::invalid_argument("oracle::embed: not 2x2");
    return chain({{wire0, local}});
  }
  if (local.dim != 4) throw std::invalid_argument("oracle::embed: not 4x4");
  Matrix out{std::size_t{1} << qubits};
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      Matrix unit{2};
      unit(i, j) = 1.0;
      const Matrix block =
          mat2(local(2 * i, 2 * j), local(2 * i, 2 * j + 1),
               local(2 * i + 1, 2 * j), local(2 * i + 1, 2 * j + 1));
      out = out + chain({{wire0, unit}, {wire1, block}});
    }
  }
  return out;
}

// --- pure states -------------------------------------------------------------

using State = std::vector<Complex>;

inline State zero_state(std::size_t qubits) {
  State state(std::size_t{1} << qubits);
  state[0] = 1.0;
  return state;
}

/// m · v, zero entries of m skipped (as in operator*).
inline State matvec(const Matrix& m, const State& v) {
  State out(m.dim);
  for (std::size_t r = 0; r < m.dim; ++r) {
    for (std::size_t c = 0; c < m.dim; ++c) {
      const Complex x = m(r, c);
      if (x != Complex{}) out[r] += x * v[c];
    }
  }
  return out;
}

/// Sign of Z on `wire` for basis state `index` of a `qubits`-qubit register.
inline double z_sign(std::size_t index, std::size_t qubits, std::size_t wire) {
  return ((index >> (qubits - 1 - wire)) & 1u) ? -1.0 : 1.0;
}

/// ⟨Z_wire⟩ = Σ_i ±|a_i|², one running sum in ascending i with
/// |a|² = re² + im².
inline double expval_z(std::span<const Complex> state, std::size_t qubits,
                       std::size_t wire) {
  double sum = 0.0;
  for (std::size_t i = 0; i < state.size(); ++i) {
    const double p =
        state[i].real() * state[i].real() + state[i].imag() * state[i].imag();
    if (z_sign(i, qubits, wire) > 0) {
      sum += p;
    } else {
      sum -= p;
    }
  }
  return sum;
}

// --- circuits ----------------------------------------------------------------

struct Op {
  Gate gate;
  std::size_t wire0 = 0;
  std::size_t wire1 = kNoWire;
  std::int64_t param = -1;  ///< runtime parameter index, -1 = fixed angle
  double fixed_angle = 0.0;

  double angle(std::span<const double> params) const {
    return param < 0 ? fixed_angle : params[static_cast<std::size_t>(param)];
  }
};

struct Circuit {
  std::size_t qubits = 0;
  std::size_t parameters = 0;
  std::vector<Op> ops;
};

inline Matrix op_unitary(const Circuit& circuit, const Op& op,
                         std::span<const double> params) {
  return embed(local_unitary(op.gate, op.angle(params)), circuit.qubits,
               op.wire0, op.wire1);
}

inline Matrix op_derivative(const Circuit& circuit, const Op& op,
                            std::span<const double> params) {
  return embed(local_derivative(op.gate, op.angle(params)), circuit.qubits,
               op.wire0, op.wire1);
}

/// U_n…U_1 |0…0⟩, with op `derivative_op` (if any) replaced by its ∂U.
inline State run(const Circuit& circuit, std::span<const double> params,
                 std::size_t derivative_op = SIZE_MAX) {
  State state = zero_state(circuit.qubits);
  for (std::size_t k = 0; k < circuit.ops.size(); ++k) {
    const Op& op = circuit.ops[k];
    state = matvec(k == derivative_op ? op_derivative(circuit, op, params)
                                      : op_unitary(circuit, op, params),
                   state);
  }
  return state;
}

/// Σ_k upstream[k] · d⟨Z_{wires[k]}⟩/dθ_p for every parameter p: the sum
/// over ops k that read θ_p of 2·Re⟨ψ|O|∂_kψ⟩ with O = Σ upstream·Z.
inline std::vector<double> vjp(const Circuit& circuit,
                               std::span<const double> params,
                               std::span<const std::size_t> wires,
                               std::span<const double> upstream) {
  const State psi = run(circuit, params);
  std::vector<double> gradient(circuit.parameters, 0.0);
  for (std::size_t k = 0; k < circuit.ops.size(); ++k) {
    const Op& op = circuit.ops[k];
    if (op.param < 0) continue;
    const State d_psi = run(circuit, params, k);
    double value = 0.0;
    for (std::size_t i = 0; i < psi.size(); ++i) {
      double weight = 0.0;
      for (std::size_t w = 0; w < wires.size(); ++w) {
        weight += upstream[w] * z_sign(i, circuit.qubits, wires[w]);
      }
      value += 2.0 * weight * std::real(std::conj(psi[i]) * d_psi[i]);
    }
    gradient[static_cast<std::size_t>(op.param)] += value;
  }
  return gradient;
}

// --- mixed states ------------------------------------------------------------

/// The library's five single-qubit noise channels, named independently of
/// quantum::channels.
enum class Channel { Depolarizing, AmplitudeDamping, PhaseDamping, BitFlip,
                     PhaseFlip };

inline constexpr Channel kAllChannels[] = {
    Channel::Depolarizing, Channel::AmplitudeDamping, Channel::PhaseDamping,
    Channel::BitFlip, Channel::PhaseFlip};

/// The channel's 2x2 Kraus operators from their closed forms.
inline std::vector<Matrix> kraus(Channel channel, double p) {
  const Complex keep{std::sqrt(1.0 - p)};
  switch (channel) {
    case Channel::Depolarizing: {
      const Complex flip{std::sqrt(p / 3.0)};
      return {keep * identity(2), flip * detail::pauli_x(),
              flip * detail::pauli_y(), flip * detail::pauli_z()};
    }
    case Channel::AmplitudeDamping:
      return {mat2(1.0, 0.0, 0.0, keep), mat2(0.0, std::sqrt(p), 0.0, 0.0)};
    case Channel::PhaseDamping:
      return {mat2(1.0, 0.0, 0.0, keep), mat2(0.0, 0.0, 0.0, std::sqrt(p))};
    case Channel::BitFlip:
      return {keep * identity(2), Complex{std::sqrt(p)} * detail::pauli_x()};
    case Channel::PhaseFlip:
      return {keep * identity(2), Complex{std::sqrt(p)} * detail::pauli_z()};
  }
  throw std::logic_error("oracle::kraus: unknown channel");
}

/// |ψ⟩⟨ψ|.
inline Matrix projector(const State& psi) {
  Matrix rho{psi.size()};
  for (std::size_t r = 0; r < psi.size(); ++r) {
    for (std::size_t c = 0; c < psi.size(); ++c) {
      rho(r, c) = psi[r] * std::conj(psi[c]);
    }
  }
  return rho;
}

/// ρ U† = (U ρ†)†, so only the sparse U ever multiplies from the left.
inline Matrix times_dagger(const Matrix& rho, const Matrix& u) {
  return dagger(u * dagger(rho));
}

/// U ρ U†.
inline Matrix conjugate(const Matrix& u, const Matrix& rho) {
  return u * times_dagger(rho, u);
}

/// Σ_k K_k ρ K_k† with each 2x2 K_k on `wire`.
inline Matrix apply_kraus(const std::vector<Matrix>& operators,
                          std::size_t qubits, std::size_t wire,
                          const Matrix& rho) {
  Matrix out{rho.dim};
  for (const Matrix& k : operators) {
    out = out + conjugate(embed(k, qubits, wire), rho);
  }
  return out;
}

/// Tr(Z_wire ρ) = Σ_i ±Re ρ_ii.
inline double expval_z(const Matrix& rho, std::size_t qubits,
                       std::size_t wire) {
  double sum = 0.0;
  for (std::size_t i = 0; i < rho.dim; ++i) {
    sum += z_sign(i, qubits, wire) * rho(i, i).real();
  }
  return sum;
}

/// Noisy run from |0…0⟩⟨0…0|: after every op, each Kraus set in `noise`
/// acts on the op's first wire and then on its second. With
/// `derivative_op` set, that op maps ρ to ∂U ρ U† instead (the linear
/// evolution then carries the non-Hermitian term to the end).
inline Matrix run_noisy(const Circuit& circuit, std::span<const double> params,
                        const std::vector<std::vector<Matrix>>& noise,
                        std::size_t derivative_op = SIZE_MAX) {
  Matrix rho = projector(zero_state(circuit.qubits));
  for (std::size_t k = 0; k < circuit.ops.size(); ++k) {
    const Op& op = circuit.ops[k];
    const Matrix u = op_unitary(circuit, op, params);
    rho = k == derivative_op
              ? op_derivative(circuit, op, params) * times_dagger(rho, u)
              : conjugate(u, rho);
    for (const auto& operators : noise) {
      rho = apply_kraus(operators, circuit.qubits, op.wire0, rho);
      if (op.wire1 != kNoWire) {
        rho = apply_kraus(operators, circuit.qubits, op.wire1, rho);
      }
    }
  }
  return rho;
}

/// Noisy counterpart of vjp: d Tr(O Φ(ρ))/dθ_k = 2·Re Tr(O Φ_k(∂U ρ U†)),
/// since every channel maps X† to its image's adjoint.
inline std::vector<double> noisy_vjp(
    const Circuit& circuit, std::span<const double> params,
    const std::vector<std::vector<Matrix>>& noise,
    std::span<const std::size_t> wires, std::span<const double> upstream) {
  std::vector<double> gradient(circuit.parameters, 0.0);
  for (std::size_t k = 0; k < circuit.ops.size(); ++k) {
    const Op& op = circuit.ops[k];
    if (op.param < 0) continue;
    const Matrix sigma = run_noisy(circuit, params, noise, k);
    double value = 0.0;
    for (std::size_t i = 0; i < sigma.dim; ++i) {
      double weight = 0.0;
      for (std::size_t w = 0; w < wires.size(); ++w) {
        weight += upstream[w] * z_sign(i, circuit.qubits, wires[w]);
      }
      value += 2.0 * weight * sigma(i, i).real();
    }
    gradient[static_cast<std::size_t>(op.param)] += value;
  }
  return gradient;
}

}  // namespace qhdl::oracle

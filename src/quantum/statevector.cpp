#include "quantum/statevector.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "quantum/kernels.hpp"
#include "util/backend_registry.hpp"

namespace qhdl::quantum {

Mat2 Mat2::dagger() const {
  return Mat2{std::conj(m00), std::conj(m10), std::conj(m01), std::conj(m11)};
}

Mat2 Mat2::operator*(const Mat2& other) const {
  return Mat2{m00 * other.m00 + m01 * other.m10,
              m00 * other.m01 + m01 * other.m11,
              m10 * other.m00 + m11 * other.m10,
              m10 * other.m01 + m11 * other.m11};
}

bool Mat2::is_unitary(double tolerance) const {
  const Mat2 product = *this * dagger();
  return std::abs(product.m00 - Complex{1.0, 0.0}) < tolerance &&
         std::abs(product.m01) < tolerance &&
         std::abs(product.m10) < tolerance &&
         std::abs(product.m11 - Complex{1.0, 0.0}) < tolerance;
}

Mat4 Mat4::dagger() const {
  Mat4 out;
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) out.m[r][c] = std::conj(m[c][r]);
  }
  return out;
}

Mat4 Mat4::operator*(const Mat4& other) const {
  Mat4 out;
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      Complex sum{0.0, 0.0};
      for (int k = 0; k < 4; ++k) sum += m[r][k] * other.m[k][c];
      out.m[r][c] = sum;
    }
  }
  return out;
}

bool Mat4::is_unitary(double tolerance) const {
  const Mat4 product = *this * dagger();
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      const Complex expected = r == c ? Complex{1.0, 0.0} : Complex{0.0, 0.0};
      if (std::abs(product.m[r][c] - expected) >= tolerance) return false;
    }
  }
  return true;
}

namespace {

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t log2_size(std::size_t n) {
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  return bits;
}

/// Spreads compact index `i` into a basis index with a 0 bit at both mask
/// positions (masks must satisfy lo_mask < hi_mask). Lets two-qubit kernels
/// visit exactly the n/4 relevant base indices branch-free instead of
/// scanning all n amplitudes.
inline std::size_t expand_two_zero_bits(std::size_t i, std::size_t lo_mask,
                                        std::size_t hi_mask) {
  std::size_t j = ((i & ~(lo_mask - 1)) << 1) | (i & (lo_mask - 1));
  return ((j & ~(hi_mask - 1)) << 1) | (j & (hi_mask - 1));
}

/// One-bit version: a 0 bit at the mask position.
inline std::size_t expand_one_zero_bit(std::size_t i, std::size_t mask) {
  return ((i & ~(mask - 1)) << 1) | (i & (mask - 1));
}

}  // namespace

StateVector::StateVector(std::size_t num_qubits) : num_qubits_(num_qubits) {
  if (num_qubits == 0 || num_qubits > 28) {
    throw std::invalid_argument("StateVector: qubit count must be in [1,28]");
  }
  amplitudes_.assign(std::size_t{1} << num_qubits, Complex{0.0, 0.0});
  amplitudes_[0] = Complex{1.0, 0.0};
}

StateVector::StateVector(std::vector<Complex> amplitudes)
    : amplitudes_(std::move(amplitudes)) {
  if (!is_power_of_two(amplitudes_.size()) || amplitudes_.size() < 2) {
    throw std::invalid_argument(
        "StateVector: amplitude count must be a power of two >= 2");
  }
  num_qubits_ = log2_size(amplitudes_.size());
}

void StateVector::reset() {
  for (auto& a : amplitudes_) a = Complex{0.0, 0.0};
  amplitudes_[0] = Complex{1.0, 0.0};
}

void StateVector::set_basis_state(std::size_t basis_index) {
  if (basis_index >= amplitudes_.size()) {
    throw std::out_of_range("StateVector::set_basis_state: index out of range");
  }
  for (auto& a : amplitudes_) a = Complex{0.0, 0.0};
  amplitudes_[basis_index] = Complex{1.0, 0.0};
}

void StateVector::check_wire(std::size_t wire, const char* context) const {
  if (wire >= num_qubits_) {
    throw std::out_of_range(std::string{context} + ": wire " +
                            std::to_string(wire) + " out of range for " +
                            std::to_string(num_qubits_) + " qubits");
  }
}

void StateVector::apply_single_qubit(const Mat2& gate, std::size_t wire) {
  check_wire(wire, "apply_single_qubit");
  kernels::count_generic();
  const std::size_t stride = std::size_t{1} << (num_qubits_ - 1 - wire);
  // Inner loop is registry-dispatched (DESIGN.md §13): the active backend's
  // dense 2x2 kernel runs a0' = m00*a0 + m01*a1, a1' = m10*a0 + m11*a1 over
  // every (i, i+stride) pair, bit-identically across backends.
  const Complex m[4] = {gate.m00, gate.m01, gate.m10, gate.m11};
  util::simd::ops().apply_single_qubit(amplitudes_.data(), amplitudes_.size(),
                                       stride, m);
}

void StateVector::apply_diagonal(Complex d0, Complex d1, std::size_t wire) {
  check_wire(wire, "apply_diagonal");
  kernels::count_diagonal();
  const std::size_t stride = std::size_t{1} << (num_qubits_ - 1 - wire);
  // Registry-dispatched; the d0 == 1 phase-gate fast path (only the wire=1
  // half moves) lives inside the backend op.
  util::simd::ops().apply_diagonal(amplitudes_.data(), amplitudes_.size(),
                                   stride, d0, d1);
}

void StateVector::apply_rx_fast(double c, double s, std::size_t wire) {
  check_wire(wire, "apply_rx_fast");
  kernels::count_real_rotation();
  const std::size_t stride = std::size_t{1} << (num_qubits_ - 1 - wire);
  const std::size_t n = amplitudes_.size();
  Complex* amps = amplitudes_.data();
  for (std::size_t block = 0; block < n; block += 2 * stride) {
    for (std::size_t offset = 0; offset < stride; ++offset) {
      Complex& a0 = amps[block + offset];
      Complex& a1 = amps[block + stride + offset];
      const double r0 = a0.real(), i0 = a0.imag();
      const double r1 = a1.real(), i1 = a1.imag();
      // [[c, -is], [-is, c]] expanded over real/imag components, in the
      // same operation order as the dense complex matvec.
      a0 = Complex{c * r0 + s * i1, c * i0 - s * r1};
      a1 = Complex{s * i0 + c * r1, -s * r0 + c * i1};
    }
  }
}

void StateVector::apply_ry_fast(double c, double s, std::size_t wire) {
  check_wire(wire, "apply_ry_fast");
  kernels::count_real_rotation();
  const std::size_t stride = std::size_t{1} << (num_qubits_ - 1 - wire);
  const std::size_t n = amplitudes_.size();
  Complex* amps = amplitudes_.data();
  for (std::size_t block = 0; block < n; block += 2 * stride) {
    for (std::size_t offset = 0; offset < stride; ++offset) {
      Complex& a0 = amps[block + offset];
      Complex& a1 = amps[block + stride + offset];
      const double r0 = a0.real(), i0 = a0.imag();
      const double r1 = a1.real(), i1 = a1.imag();
      // Real rotation [[c, -s], [s, c]] applied to both components.
      a0 = Complex{c * r0 - s * r1, c * i0 - s * i1};
      a1 = Complex{s * r0 + c * r1, s * i0 + c * i1};
    }
  }
}

void StateVector::apply_pauli_x(std::size_t wire) {
  check_wire(wire, "apply_pauli_x");
  kernels::count_permutation();
  const std::size_t stride = std::size_t{1} << (num_qubits_ - 1 - wire);
  const std::size_t n = amplitudes_.size();
  Complex* amps = amplitudes_.data();
  for (std::size_t block = 0; block < n; block += 2 * stride) {
    for (std::size_t offset = 0; offset < stride; ++offset) {
      std::swap(amps[block + offset], amps[block + stride + offset]);
    }
  }
}

void StateVector::apply_controlled(const Mat2& gate, std::size_t control,
                                   std::size_t target) {
  check_wire(control, "apply_controlled");
  check_wire(target, "apply_controlled");
  if (control == target) {
    throw std::invalid_argument("apply_controlled: control == target");
  }
  kernels::count_controlled();
  const std::size_t cmask = std::size_t{1} << (num_qubits_ - 1 - control);
  const std::size_t tmask = std::size_t{1} << (num_qubits_ - 1 - target);
  const std::size_t lo = cmask < tmask ? cmask : tmask;
  const std::size_t hi = cmask < tmask ? tmask : cmask;
  const std::size_t quarter = amplitudes_.size() / 4;
  Complex* amps = amplitudes_.data();
  // Visit each control-1, target-0 amplitude once; pair with target-1.
  for (std::size_t k = 0; k < quarter; ++k) {
    const std::size_t i = expand_two_zero_bits(k, lo, hi) | cmask;
    const std::size_t j = i | tmask;
    const Complex a0 = amps[i];
    const Complex a1 = amps[j];
    amps[i] = gate.m00 * a0 + gate.m01 * a1;
    amps[j] = gate.m10 * a0 + gate.m11 * a1;
  }
}

void StateVector::apply_controlled_derivative(const Mat2& gate,
                                              std::size_t control,
                                              std::size_t target) {
  check_wire(control, "apply_controlled_derivative");
  check_wire(target, "apply_controlled_derivative");
  if (control == target) {
    throw std::invalid_argument(
        "apply_controlled_derivative: control == target");
  }
  kernels::count_controlled();
  const std::size_t cmask = std::size_t{1} << (num_qubits_ - 1 - control);
  const std::size_t tmask = std::size_t{1} << (num_qubits_ - 1 - target);
  const std::size_t lo = cmask < tmask ? cmask : tmask;
  const std::size_t hi = cmask < tmask ? tmask : cmask;
  const std::size_t half = amplitudes_.size() / 2;
  const std::size_t quarter = amplitudes_.size() / 4;
  Complex* amps = amplitudes_.data();
  // d(CU)/dθ annihilates the control-0 subspace.
  for (std::size_t k = 0; k < half; ++k) {
    amps[expand_one_zero_bit(k, cmask)] = Complex{0.0, 0.0};
  }
  for (std::size_t k = 0; k < quarter; ++k) {
    const std::size_t i = expand_two_zero_bits(k, lo, hi) | cmask;
    const std::size_t j = i | tmask;
    const Complex a0 = amps[i];
    const Complex a1 = amps[j];
    amps[i] = gate.m00 * a0 + gate.m01 * a1;
    amps[j] = gate.m10 * a0 + gate.m11 * a1;
  }
}

void StateVector::apply_cnot(std::size_t control, std::size_t target) {
  check_wire(control, "apply_cnot");
  check_wire(target, "apply_cnot");
  if (control == target) {
    throw std::invalid_argument("apply_cnot: control == target");
  }
  kernels::count_permutation();
  const std::size_t cmask = std::size_t{1} << (num_qubits_ - 1 - control);
  const std::size_t tmask = std::size_t{1} << (num_qubits_ - 1 - target);
  const std::size_t lo = cmask < tmask ? cmask : tmask;
  const std::size_t hi = cmask < tmask ? tmask : cmask;
  // Registry-dispatched pure permutation: swap amplitudes at
  // expand_two_zero_bits(k, lo, hi) | cmask and its | tmask partner.
  util::simd::ops().apply_cnot_pairs(amplitudes_.data(),
                                     amplitudes_.size() / 4, lo, hi, cmask,
                                     tmask);
}

void StateVector::apply_cz(std::size_t control, std::size_t target) {
  check_wire(control, "apply_cz");
  check_wire(target, "apply_cz");
  if (control == target) {
    throw std::invalid_argument("apply_cz: control == target");
  }
  kernels::count_diagonal();
  const std::size_t cmask = std::size_t{1} << (num_qubits_ - 1 - control);
  const std::size_t tmask = std::size_t{1} << (num_qubits_ - 1 - target);
  const std::size_t lo = cmask < tmask ? cmask : tmask;
  const std::size_t hi = cmask < tmask ? tmask : cmask;
  const std::size_t quarter = amplitudes_.size() / 4;
  Complex* amps = amplitudes_.data();
  for (std::size_t k = 0; k < quarter; ++k) {
    const std::size_t i = expand_two_zero_bits(k, lo, hi) | cmask | tmask;
    amps[i] = -amps[i];
  }
}

void StateVector::apply_swap(std::size_t wire_a, std::size_t wire_b) {
  check_wire(wire_a, "apply_swap");
  check_wire(wire_b, "apply_swap");
  if (wire_a == wire_b) return;
  kernels::count_permutation();
  const std::size_t amask = std::size_t{1} << (num_qubits_ - 1 - wire_a);
  const std::size_t bmask = std::size_t{1} << (num_qubits_ - 1 - wire_b);
  const std::size_t lo = amask < bmask ? amask : bmask;
  const std::size_t hi = amask < bmask ? bmask : amask;
  const std::size_t quarter = amplitudes_.size() / 4;
  Complex* amps = amplitudes_.data();
  // Swap |..a=1..b=0..⟩ with |..a=0..b=1..⟩; visit each pair once.
  for (std::size_t k = 0; k < quarter; ++k) {
    const std::size_t base = expand_two_zero_bits(k, lo, hi);
    std::swap(amps[base | amask], amps[base | bmask]);
  }
}

void StateVector::apply_two_qubit(const Mat4& gate, std::size_t wire_a,
                                  std::size_t wire_b) {
  check_wire(wire_a, "apply_two_qubit");
  check_wire(wire_b, "apply_two_qubit");
  if (wire_a == wire_b) {
    throw std::invalid_argument("apply_two_qubit: wires must differ");
  }
  kernels::count_two_qubit_dense();
  const std::size_t amask = std::size_t{1} << (num_qubits_ - 1 - wire_a);
  const std::size_t bmask = std::size_t{1} << (num_qubits_ - 1 - wire_b);
  const std::size_t lo = amask < bmask ? amask : bmask;
  const std::size_t hi = amask < bmask ? bmask : amask;
  const std::size_t quarter = amplitudes_.size() / 4;
  Complex* amps = amplitudes_.data();
  for (std::size_t k = 0; k < quarter; ++k) {
    const std::size_t base = expand_two_zero_bits(k, lo, hi);
    const std::size_t idx[4] = {base, base | bmask, base | amask,
                                base | amask | bmask};
    const Complex a[4] = {amps[idx[0]], amps[idx[1]], amps[idx[2]],
                          amps[idx[3]]};
    for (int r = 0; r < 4; ++r) {
      amps[idx[r]] = gate.m[r][0] * a[0] + gate.m[r][1] * a[1] +
                     gate.m[r][2] * a[2] + gate.m[r][3] * a[3];
    }
  }
}

void StateVector::apply_double_flip_pairs(const Mat2& even_pair,
                                          const Mat2& odd_pair,
                                          std::size_t wire_a,
                                          std::size_t wire_b) {
  check_wire(wire_a, "apply_double_flip_pairs");
  check_wire(wire_b, "apply_double_flip_pairs");
  if (wire_a == wire_b) {
    throw std::invalid_argument("apply_double_flip_pairs: wires must differ");
  }
  kernels::count_double_flip();
  const std::size_t amask = std::size_t{1} << (num_qubits_ - 1 - wire_a);
  const std::size_t bmask = std::size_t{1} << (num_qubits_ - 1 - wire_b);
  const std::size_t flip = amask | bmask;
  const std::size_t lo = amask < bmask ? amask : bmask;
  const std::size_t hi = amask < bmask ? bmask : amask;
  const std::size_t quarter = amplitudes_.size() / 4;
  Complex* amps = amplitudes_.data();
  // Visit each pair from its a=0 member: even block from |a=0,b=0⟩, odd
  // block from |a=0,b=1⟩.
  for (std::size_t k = 0; k < quarter; ++k) {
    const std::size_t base = expand_two_zero_bits(k, lo, hi);
    {
      const std::size_t i = base, j = base ^ flip;
      const Complex a0 = amps[i];
      const Complex a1 = amps[j];
      amps[i] = even_pair.m00 * a0 + even_pair.m01 * a1;
      amps[j] = even_pair.m10 * a0 + even_pair.m11 * a1;
    }
    {
      const std::size_t i = base | bmask, j = (base | bmask) ^ flip;
      const Complex a0 = amps[i];
      const Complex a1 = amps[j];
      amps[i] = odd_pair.m00 * a0 + odd_pair.m01 * a1;
      amps[j] = odd_pair.m10 * a0 + odd_pair.m11 * a1;
    }
  }
}

void StateVector::scale(Complex factor) {
  for (auto& a : amplitudes_) a *= factor;
}

double StateVector::expval_pauli_z(std::size_t wire) const {
  check_wire(wire, "expval_pauli_z");
  const std::size_t mask = std::size_t{1} << (num_qubits_ - 1 - wire);
  // Registry-dispatched reduction. generic and avx2 share the
  // canonical mod-8 lane order (bit-identical to each other); the reference
  // backend keeps the historical strictly sequential sum, which may differ
  // from the lane order by ~1 ulp per reassociation.
  return util::simd::ops().expval_z(amplitudes_.data(), amplitudes_.size(),
                                    mask);
}

double StateVector::probability(std::size_t basis_index) const {
  if (basis_index >= amplitudes_.size()) {
    throw std::out_of_range("StateVector::probability: index out of range");
  }
  return std::norm(amplitudes_[basis_index]);
}

std::vector<double> StateVector::probabilities() const {
  std::vector<double> probs(amplitudes_.size());
  for (std::size_t i = 0; i < amplitudes_.size(); ++i) {
    probs[i] = std::norm(amplitudes_[i]);
  }
  return probs;
}

double StateVector::norm_squared() const {
  double total = 0.0;
  for (const auto& a : amplitudes_) total += std::norm(a);
  return total;
}

Complex StateVector::inner_product(const StateVector& other) const {
  if (other.amplitudes_.size() != amplitudes_.size()) {
    throw std::invalid_argument("inner_product: dimension mismatch");
  }
  Complex total{0.0, 0.0};
  for (std::size_t i = 0; i < amplitudes_.size(); ++i) {
    total += std::conj(amplitudes_[i]) * other.amplitudes_[i];
  }
  return total;
}

std::string StateVector::to_string() const {
  std::ostringstream oss;
  bool first = true;
  for (std::size_t i = 0; i < amplitudes_.size(); ++i) {
    if (std::abs(amplitudes_[i]) < 1e-12) continue;
    if (!first) oss << " + ";
    first = false;
    oss.precision(4);
    oss << std::fixed << "(" << amplitudes_[i].real() << (amplitudes_[i].imag() >= 0 ? "+" : "")
        << amplitudes_[i].imag() << "i)|";
    for (std::size_t b = 0; b < num_qubits_; ++b) {
      oss << (((i >> (num_qubits_ - 1 - b)) & 1) ? '1' : '0');
    }
    oss << "⟩";
  }
  if (first) oss << "0";
  return oss.str();
}

}  // namespace qhdl::quantum

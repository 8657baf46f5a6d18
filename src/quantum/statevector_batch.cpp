#include "quantum/statevector_batch.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "quantum/kernels.hpp"
#include "quantum/statevector.hpp"
#include "util/backend_registry.hpp"

namespace qhdl::quantum {

namespace {

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

/// a0' = m00*a0 + m01*a1, a1' = m10*a0 + m11*a1 elementwise over two runs
/// of `n` complexes.
inline void mix_runs(const Mat2& gate, Complex* a0, Complex* a1,
                     std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const Complex v0 = a0[j];
    const Complex v1 = a1[j];
    a0[j] = gate.m00 * v0 + gate.m01 * v1;
    a1[j] = gate.m10 * v0 + gate.m11 * v1;
  }
}

/// mix_runs with a matrix per lane: lane b of the two `batch`-complex
/// amplitude rows a0, a1 gets gates[b].
inline void mix_rows(const Mat2* gates, Complex* a0, Complex* a1,
                     std::size_t batch) {
  for (std::size_t b = 0; b < batch; ++b) {
    const Complex v0 = a0[b];
    const Complex v1 = a1[b];
    a0[b] = gates[b].m00 * v0 + gates[b].m01 * v1;
    a1[b] = gates[b].m10 * v0 + gates[b].m11 * v1;
  }
}

}  // namespace

StateVectorBatch::StateVectorBatch(std::size_t num_qubits, std::size_t batch)
    : num_qubits_(num_qubits), batch_(batch) {
  if (num_qubits == 0 || num_qubits > 28) {
    throw std::invalid_argument(
        "StateVectorBatch: qubit count must be in [1,28]");
  }
  if (batch == 0) {
    throw std::invalid_argument("StateVectorBatch: batch must be >= 1");
  }
  dimension_ = std::size_t{1} << num_qubits;
  amplitudes_.assign(dimension_ * batch_, Complex{0.0, 0.0});
  for (std::size_t b = 0; b < batch_; ++b) {
    amplitudes_[b] = Complex{1.0, 0.0};
  }
}

StateVectorBatch::StateVectorBatch(std::vector<Complex> amplitudes)
    : num_qubits_(0), batch_(1), dimension_(amplitudes.size()),
      amplitudes_(std::move(amplitudes)) {
  if (dimension_ < 2 || (dimension_ & (dimension_ - 1)) != 0) {
    throw std::invalid_argument(
        "StateVector: amplitude count must be a power of two >= 2");
  }
  while ((std::size_t{1} << num_qubits_) < dimension_) ++num_qubits_;
}

void StateVectorBatch::reset() {
  for (auto& a : amplitudes_) a = Complex{0.0, 0.0};
  for (std::size_t b = 0; b < batch_; ++b) {
    amplitudes_[b] = Complex{1.0, 0.0};
  }
}

void StateVectorBatch::resize(std::size_t batch) {
  if (batch == 0) {
    throw std::invalid_argument("StateVectorBatch::resize: batch must be >= 1");
  }
  batch_ = batch;
  amplitudes_.resize(dimension_ * batch_);
  reset();
}

void StateVectorBatch::assign_from(const StateVectorBatch& other) {
  if (other.num_qubits_ != num_qubits_ || other.batch_ != batch_) {
    throw std::invalid_argument("StateVectorBatch::assign_from: shape");
  }
  // std::copy into the existing storage: same-shape batches have equal
  // sizes, so this never reallocates on the hot path (the adjoint sweep
  // calls assign_from once per parameterized op).
  std::copy(other.amplitudes_.begin(), other.amplitudes_.end(),
            amplitudes_.begin());
}

namespace {

/// Transpose block for the AoS<->SoA row bridges: enough amplitudes that
/// each strided pass streams ~a cache line per lane run without the whole
/// pass evicting the contiguous side (256 complexes = 4 KiB contiguous).
constexpr std::size_t kRowCopyBlock = 256;

}  // namespace

StateVector StateVectorBatch::extract_row(std::size_t row) const {
  if (row >= batch_) {
    throw std::out_of_range("StateVectorBatch::extract_row: row");
  }
  std::vector<Complex> amps(dimension_);
  const Complex* src = amplitudes_.data() + row;
  for (std::size_t i0 = 0; i0 < dimension_; i0 += kRowCopyBlock) {
    const std::size_t end = std::min(dimension_, i0 + kRowCopyBlock);
    for (std::size_t i = i0; i < end; ++i) {
      amps[i] = src[i * batch_];
    }
  }
  return StateVector{std::move(amps)};
}

void StateVectorBatch::set_row(std::size_t row, const StateVector& state) {
  if (row >= batch_) {
    throw std::out_of_range("StateVectorBatch::set_row: row");
  }
  if (state.dimension() != dimension_) {
    throw std::invalid_argument("StateVectorBatch::set_row: dimension");
  }
  const auto amps = state.amplitudes();
  Complex* dst = amplitudes_.data() + row;
  for (std::size_t i0 = 0; i0 < dimension_; i0 += kRowCopyBlock) {
    const std::size_t end = std::min(dimension_, i0 + kRowCopyBlock);
    for (std::size_t i = i0; i < end; ++i) {
      dst[i * batch_] = amps[i];
    }
  }
}

void StateVectorBatch::check_wire(std::size_t wire,
                                  const char* context) const {
  if (wire >= num_qubits_) {
    throw std::out_of_range(std::string{context} + ": wire " +
                            std::to_string(wire) + " out of range for " +
                            std::to_string(num_qubits_) + " qubits");
  }
}

void StateVectorBatch::check_rows(std::size_t span_size,
                                  const char* context) const {
  if (span_size != batch_) {
    throw std::invalid_argument(std::string{context} +
                                ": per-row span size " +
                                std::to_string(span_size) + " != batch " +
                                std::to_string(batch_));
  }
}

// --- shared-matrix kernels -------------------------------------------------
//
// Every row gets the same operation, so the kernels walk contiguous runs:
// a one-wire gate's rows block+offset for offset in [0, stride) are
// consecutive, one run of stride * batch complexes per half, and a two-wire
// gate's compact indices k .. k+lo-1 (k a multiple of lo) expand to
// consecutive rows, one run of lo * batch complexes per row group. Each
// element still gets exactly the per-row formula.

void StateVectorBatch::apply_single_qubit(const Mat2& gate,
                                          std::size_t wire) {
  check_wire(wire, "StateVectorBatch::apply_single_qubit");
  kernels::count(kernels::Kernel::Generic, batch_);
  const std::size_t stride = std::size_t{1} << (num_qubits_ - 1 - wire);
  // Registry-dispatched (DESIGN.md §14): the active backend vectorizes
  // across the contiguous batch lanes; per-lane arithmetic is the scalar
  // a0' = m00*a0 + m01*a1, a1' = m10*a0 + m11*a1 formula unchanged.
  const Complex m[4] = {gate.m00, gate.m01, gate.m10, gate.m11};
  util::simd::ops().apply_single_qubit_batch(amplitudes_.data(), dimension_,
                                             stride, batch_, m);
}

void StateVectorBatch::apply_diagonal(Complex d0, Complex d1,
                                      std::size_t wire) {
  check_wire(wire, "StateVectorBatch::apply_diagonal");
  kernels::count(kernels::Kernel::Diagonal, batch_);
  const std::size_t stride = std::size_t{1} << (num_qubits_ - 1 - wire);
  // Registry-dispatched; the d0 == 1 phase-gate fast path (only the
  // wire=1 half moves) lives inside the backend op.
  util::simd::ops().apply_diagonal_batch(amplitudes_.data(), dimension_,
                                         stride, batch_, d0, d1);
}

void StateVectorBatch::apply_pauli_x(std::size_t wire) {
  check_wire(wire, "StateVectorBatch::apply_pauli_x");
  kernels::count(kernels::Kernel::Permutation, batch_);
  const std::size_t stride = std::size_t{1} << (num_qubits_ - 1 - wire);
  const std::size_t run = stride * batch_;
  for (std::size_t block = 0; block < dimension_; block += 2 * stride) {
    Complex* a0 = amplitudes_.data() + block * batch_;
    std::swap_ranges(a0, a0 + run, a0 + run);
  }
}

void StateVectorBatch::apply_cnot(std::size_t control, std::size_t target) {
  check_wire(control, "StateVectorBatch::apply_cnot");
  check_wire(target, "StateVectorBatch::apply_cnot");
  if (control == target) {
    throw std::invalid_argument("StateVectorBatch::apply_cnot: wires equal");
  }
  kernels::count(kernels::Kernel::Permutation, batch_);
  const std::size_t cmask = std::size_t{1} << (num_qubits_ - 1 - control);
  const std::size_t tmask = std::size_t{1} << (num_qubits_ - 1 - target);
  const std::size_t lo = cmask < tmask ? cmask : tmask;
  const std::size_t hi = cmask < tmask ? tmask : cmask;
  // Registry-dispatched pure permutation: each swap moves a run of batch_
  // complexes.
  util::simd::ops().apply_cnot_pairs_batch(amplitudes_.data(), dimension_ / 4,
                                           lo, hi, cmask, tmask, batch_);
}

void StateVectorBatch::apply_two_qubit(const Mat4& gate, std::size_t wire_a,
                                       std::size_t wire_b) {
  check_wire(wire_a, "StateVectorBatch::apply_two_qubit");
  check_wire(wire_b, "StateVectorBatch::apply_two_qubit");
  if (wire_a == wire_b) {
    throw std::invalid_argument(
        "StateVectorBatch::apply_two_qubit: wires must differ");
  }
  kernels::count(kernels::Kernel::TwoQubitDense, batch_);
  const std::size_t amask = std::size_t{1} << (num_qubits_ - 1 - wire_a);
  const std::size_t bmask = std::size_t{1} << (num_qubits_ - 1 - wire_b);
  const std::size_t lo = amask < bmask ? amask : bmask;
  const std::size_t hi = amask < bmask ? bmask : amask;
  // |wire_a wire_b⟩ rows {base, base|bmask, base|amask, base|amask|bmask}.
  util::simd::ops().apply_two_qubit_batch(amplitudes_.data(), dimension_ / 4,
                                          lo, hi, amask, bmask, batch_,
                                          &gate.m[0][0]);
}

void StateVectorBatch::apply_cz(std::size_t control, std::size_t target) {
  check_wire(control, "StateVectorBatch::apply_cz");
  check_wire(target, "StateVectorBatch::apply_cz");
  if (control == target) {
    throw std::invalid_argument("StateVectorBatch::apply_cz: wires equal");
  }
  kernels::count(kernels::Kernel::Diagonal, batch_);
  const std::size_t cmask = std::size_t{1} << (num_qubits_ - 1 - control);
  const std::size_t tmask = std::size_t{1} << (num_qubits_ - 1 - target);
  const std::size_t lo = cmask < tmask ? cmask : tmask;
  const std::size_t hi = cmask < tmask ? tmask : cmask;
  const std::size_t run = lo * batch_;
  for (std::size_t k = 0; k < dimension_ / 4; k += lo) {
    Complex* a = amplitudes_.data() +
                 (expand_two_zero_bits(k, lo, hi) | cmask | tmask) * batch_;
    for (std::size_t j = 0; j < run; ++j) a[j] = -a[j];
  }
}

void StateVectorBatch::apply_swap(std::size_t wire_a, std::size_t wire_b) {
  check_wire(wire_a, "StateVectorBatch::apply_swap");
  check_wire(wire_b, "StateVectorBatch::apply_swap");
  if (wire_a == wire_b) return;
  kernels::count(kernels::Kernel::Permutation, batch_);
  const std::size_t amask = std::size_t{1} << (num_qubits_ - 1 - wire_a);
  const std::size_t bmask = std::size_t{1} << (num_qubits_ - 1 - wire_b);
  const std::size_t lo = amask < bmask ? amask : bmask;
  const std::size_t hi = amask < bmask ? bmask : amask;
  const std::size_t run = lo * batch_;
  Complex* amps = amplitudes_.data();
  // Swap |..a=1..b=0..⟩ with |..a=0..b=1..⟩; visit each pair once.
  for (std::size_t k = 0; k < dimension_ / 4; k += lo) {
    const std::size_t base = expand_two_zero_bits(k, lo, hi);
    Complex* a0 = amps + (base | amask) * batch_;
    std::swap_ranges(a0, a0 + run, amps + (base | bmask) * batch_);
  }
}

void StateVectorBatch::apply_controlled(const Mat2& gate, std::size_t control,
                                        std::size_t target) {
  check_wire(control, "StateVectorBatch::apply_controlled");
  check_wire(target, "StateVectorBatch::apply_controlled");
  if (control == target) {
    throw std::invalid_argument(
        "StateVectorBatch::apply_controlled: wires equal");
  }
  kernels::count(kernels::Kernel::Controlled, batch_);
  const std::size_t cmask = std::size_t{1} << (num_qubits_ - 1 - control);
  const std::size_t tmask = std::size_t{1} << (num_qubits_ - 1 - target);
  const std::size_t lo = cmask < tmask ? cmask : tmask;
  const std::size_t hi = cmask < tmask ? tmask : cmask;
  Complex* amps = amplitudes_.data();
  // Visit each control-1, target-0 row once; pair it with target-1.
  for (std::size_t k = 0; k < dimension_ / 4; k += lo) {
    const std::size_t i = expand_two_zero_bits(k, lo, hi) | cmask;
    mix_runs(gate, amps + i * batch_, amps + (i | tmask) * batch_,
             lo * batch_);
  }
}

void StateVectorBatch::apply_controlled_derivative(const Mat2& gate,
                                                   std::size_t control,
                                                   std::size_t target) {
  check_wire(control, "StateVectorBatch::apply_controlled_derivative");
  check_wire(target, "StateVectorBatch::apply_controlled_derivative");
  if (control == target) {
    throw std::invalid_argument(
        "StateVectorBatch::apply_controlled_derivative: wires equal");
  }
  kernels::count(kernels::Kernel::Controlled, batch_);
  const std::size_t cmask = std::size_t{1} << (num_qubits_ - 1 - control);
  Complex* amps = amplitudes_.data();
  // d(CU)/dθ annihilates the control-0 subspace: runs of cmask rows.
  for (std::size_t k = 0; k < dimension_ / 2; k += cmask) {
    Complex* a = amps + expand_one_zero_bit(k, cmask) * batch_;
    std::fill(a, a + cmask * batch_, Complex{0.0, 0.0});
  }
  const std::size_t tmask = std::size_t{1} << (num_qubits_ - 1 - target);
  const std::size_t lo = cmask < tmask ? cmask : tmask;
  const std::size_t hi = cmask < tmask ? tmask : cmask;
  for (std::size_t k = 0; k < dimension_ / 4; k += lo) {
    const std::size_t i = expand_two_zero_bits(k, lo, hi) | cmask;
    mix_runs(gate, amps + i * batch_, amps + (i | tmask) * batch_,
             lo * batch_);
  }
}

void StateVectorBatch::apply_double_flip_pairs(const Mat2& even_pair,
                                               const Mat2& odd_pair,
                                               std::size_t wire_a,
                                               std::size_t wire_b) {
  check_wire(wire_a, "StateVectorBatch::apply_double_flip_pairs");
  check_wire(wire_b, "StateVectorBatch::apply_double_flip_pairs");
  if (wire_a == wire_b) {
    throw std::invalid_argument(
        "StateVectorBatch::apply_double_flip_pairs: wires must differ");
  }
  kernels::count(kernels::Kernel::DoubleFlip, batch_);
  const std::size_t amask = std::size_t{1} << (num_qubits_ - 1 - wire_a);
  const std::size_t bmask = std::size_t{1} << (num_qubits_ - 1 - wire_b);
  const std::size_t flip = amask | bmask;
  const std::size_t lo = amask < bmask ? amask : bmask;
  const std::size_t hi = amask < bmask ? bmask : amask;
  Complex* amps = amplitudes_.data();
  const std::size_t run = lo * batch_;
  // Visit each pair from its a=0 member: even block from |a=0,b=0⟩, odd
  // block from |a=0,b=1⟩.
  for (std::size_t k = 0; k < dimension_ / 4; k += lo) {
    const std::size_t base = expand_two_zero_bits(k, lo, hi);
    mix_runs(even_pair, amps + base * batch_, amps + (base ^ flip) * batch_,
             run);
    mix_runs(odd_pair, amps + (base | bmask) * batch_,
             amps + ((base | bmask) ^ flip) * batch_, run);
  }
}

// --- per-row kernels -------------------------------------------------------

void StateVectorBatch::apply_single_qubit_per_row(std::span<const Complex> m,
                                                  std::size_t wire) {
  check_wire(wire, "StateVectorBatch::apply_single_qubit_per_row");
  if (m.size() != 4 * batch_) {
    throw std::invalid_argument(
        "StateVectorBatch::apply_single_qubit_per_row: matrix span size " +
        std::to_string(m.size()) + " != 4 * batch " + std::to_string(batch_));
  }
  kernels::count(kernels::Kernel::Generic, batch_);
  const std::size_t stride = std::size_t{1} << (num_qubits_ - 1 - wire);
  // Registry-dispatched: the backend vectorizes across the batch lanes,
  // each lane running the scalar 2x2 formula with its own row's matrix.
  util::simd::ops().apply_single_qubit_rows_batch(
      amplitudes_.data(), dimension_, stride, batch_, m.data());
}

void StateVectorBatch::apply_controlled_per_row(std::span<const Mat2> gates,
                                                std::size_t control,
                                                std::size_t target) {
  check_wire(control, "StateVectorBatch::apply_controlled_per_row");
  check_wire(target, "StateVectorBatch::apply_controlled_per_row");
  check_rows(gates.size(), "StateVectorBatch::apply_controlled_per_row");
  if (control == target) {
    throw std::invalid_argument(
        "StateVectorBatch::apply_controlled_per_row: wires equal");
  }
  kernels::count(kernels::Kernel::Controlled, batch_);
  const std::size_t cmask = std::size_t{1} << (num_qubits_ - 1 - control);
  const std::size_t tmask = std::size_t{1} << (num_qubits_ - 1 - target);
  const std::size_t lo = cmask < tmask ? cmask : tmask;
  const std::size_t hi = cmask < tmask ? tmask : cmask;
  Complex* amps = amplitudes_.data();
  for (std::size_t k = 0; k < dimension_ / 4; ++k) {
    const std::size_t i = expand_two_zero_bits(k, lo, hi) | cmask;
    mix_rows(gates.data(), amps + i * batch_, amps + (i | tmask) * batch_,
             batch_);
  }
}

void StateVectorBatch::apply_controlled_derivative_per_row(
    std::span<const Mat2> gates, std::size_t control, std::size_t target) {
  check_wire(control, "StateVectorBatch::apply_controlled_derivative_per_row");
  check_wire(target, "StateVectorBatch::apply_controlled_derivative_per_row");
  check_rows(gates.size(),
             "StateVectorBatch::apply_controlled_derivative_per_row");
  if (control == target) {
    throw std::invalid_argument(
        "StateVectorBatch::apply_controlled_derivative_per_row: wires equal");
  }
  kernels::count(kernels::Kernel::Controlled, batch_);
  const std::size_t cmask = std::size_t{1} << (num_qubits_ - 1 - control);
  Complex* amps = amplitudes_.data();
  // d(CU)/dθ annihilates the control-0 subspace: runs of cmask rows.
  for (std::size_t k = 0; k < dimension_ / 2; k += cmask) {
    Complex* a = amps + expand_one_zero_bit(k, cmask) * batch_;
    std::fill(a, a + cmask * batch_, Complex{0.0, 0.0});
  }
  const std::size_t tmask = std::size_t{1} << (num_qubits_ - 1 - target);
  const std::size_t lo = cmask < tmask ? cmask : tmask;
  const std::size_t hi = cmask < tmask ? tmask : cmask;
  for (std::size_t k = 0; k < dimension_ / 4; ++k) {
    const std::size_t i = expand_two_zero_bits(k, lo, hi) | cmask;
    mix_rows(gates.data(), amps + i * batch_, amps + (i | tmask) * batch_,
             batch_);
  }
}

void StateVectorBatch::apply_double_flip_pairs_per_row(
    std::span<const Mat2> even_pairs, std::span<const Mat2> odd_pairs,
    std::size_t wire_a, std::size_t wire_b) {
  check_wire(wire_a, "StateVectorBatch::apply_double_flip_pairs_per_row");
  check_wire(wire_b, "StateVectorBatch::apply_double_flip_pairs_per_row");
  check_rows(even_pairs.size(),
             "StateVectorBatch::apply_double_flip_pairs_per_row");
  check_rows(odd_pairs.size(),
             "StateVectorBatch::apply_double_flip_pairs_per_row");
  if (wire_a == wire_b) {
    throw std::invalid_argument(
        "StateVectorBatch::apply_double_flip_pairs_per_row: wires differ");
  }
  kernels::count(kernels::Kernel::DoubleFlip, batch_);
  const std::size_t amask = std::size_t{1} << (num_qubits_ - 1 - wire_a);
  const std::size_t bmask = std::size_t{1} << (num_qubits_ - 1 - wire_b);
  const std::size_t flip = amask | bmask;
  const std::size_t lo = amask < bmask ? amask : bmask;
  const std::size_t hi = amask < bmask ? bmask : amask;
  Complex* amps = amplitudes_.data();
  for (std::size_t k = 0; k < dimension_ / 4; ++k) {
    const std::size_t base = expand_two_zero_bits(k, lo, hi);
    mix_rows(even_pairs.data(), amps + base * batch_,
             amps + (base ^ flip) * batch_, batch_);
    mix_rows(odd_pairs.data(), amps + (base | bmask) * batch_,
             amps + ((base | bmask) ^ flip) * batch_, batch_);
  }
}

// --- reductions ------------------------------------------------------------

void StateVectorBatch::expval_pauli_z(std::size_t wire,
                                      std::span<double> out) const {
  check_wire(wire, "StateVectorBatch::expval_pauli_z");
  check_rows(out.size(), "StateVectorBatch::expval_pauli_z");
  const std::size_t mask = std::size_t{1} << (num_qubits_ - 1 - wire);
  // Registry-dispatched per-row sequential reduction (the batched canon —
  // backend_registry.hpp), one independent running sum per lane.
  util::simd::ops().expval_z_batch(amplitudes_.data(), dimension_, mask,
                                   batch_, out.data());
}

void StateVectorBatch::inner_products_real(const StateVectorBatch& other,
                                           std::span<double> out) const {
  if (other.num_qubits_ != num_qubits_ || other.batch_ != batch_) {
    throw std::invalid_argument(
        "StateVectorBatch::inner_products_real: shape mismatch");
  }
  check_rows(out.size(), "StateVectorBatch::inner_products_real");
  // Re(conj(l)·r) per row, accumulated in index order (the batched
  // reduction canon), registry-dispatched.
  util::simd::ops().inner_products_real_batch(amplitudes_.data(),
                                              other.amplitudes_.data(),
                                              dimension_, batch_, out.data());
}

}  // namespace qhdl::quantum

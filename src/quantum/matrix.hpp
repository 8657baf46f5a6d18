// Small dense gate matrices shared by the state-vector kernels, the gate
// library and the compile pass.
#pragma once

#include <complex>
#include <cstddef>

namespace qhdl::quantum {

using Complex = std::complex<double>;

/// Column-major-free 2x2 complex matrix [[m00, m01], [m10, m11]].
struct Mat2 {
  Complex m00, m01, m10, m11;

  /// Conjugate transpose.
  Mat2 dagger() const;
  /// Matrix product this * other.
  Mat2 operator*(const Mat2& other) const;
  bool is_unitary(double tolerance = 1e-12) const;
};

/// Writes `m` into lane `lane` of an SoA batch of 2x2 matrices with `lanes`
/// lanes: entry k of {m00, m01, m10, m11} goes to out[k * lanes + lane]
/// (the layout StateVectorBatch::apply_single_qubit_per_row reads).
inline void store_lane(const Mat2& m, Complex* out, std::size_t lanes,
                       std::size_t lane) {
  out[lane] = m.m00;
  out[lanes + lane] = m.m01;
  out[2 * lanes + lane] = m.m10;
  out[3 * lanes + lane] = m.m11;
}

/// Dense 4x4 complex matrix, row-major m[row][col]. Acts on a wire pair
/// (a, b) with local basis index (bit_a << 1) | bit_b. Used by the compile
/// pass to collapse adjacent fixed two-qubit gates into one unitary.
struct Mat4 {
  Complex m[4][4];

  /// Conjugate transpose.
  Mat4 dagger() const;
  /// Matrix product this * other.
  Mat4 operator*(const Mat4& other) const;
  bool is_unitary(double tolerance = 1e-12) const;
};

}  // namespace qhdl::quantum

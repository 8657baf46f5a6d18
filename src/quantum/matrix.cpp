#include "quantum/matrix.hpp"

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

}  // namespace qhdl::quantum

// Dense row-major double tensor with value semantics.
//
// The Tensor class itself favors clarity and strict checking; the dense
// matmul hot paths in ops.cpp route through the one row-blocked GEMM
// kernel in gemm.cpp, and the training loop avoids per-op Tensor allocation
// entirely via the workspace trainer (nn/workspace.hpp).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "tensor/shape.hpp"

namespace qhdl::tensor {

/// Owning dense tensor of doubles. Copy = deep copy (value semantics).
class Tensor {
 public:
  /// Scalar zero.
  Tensor();

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor with explicit data; data.size() must equal shape.size().
  Tensor(Shape shape, std::vector<double> data);

  /// Convenience factories -------------------------------------------------
  static Tensor zeros(Shape shape);
  static Tensor ones(Shape shape);
  static Tensor full(Shape shape, double value);
  static Tensor scalar(double value);
  /// Row vector [1, n] from values.
  static Tensor row(std::vector<double> values);
  /// Matrix [rows, cols] from row-major values.
  static Tensor matrix(std::size_t rows, std::size_t cols,
                       std::vector<double> values);
  /// Identity matrix [n, n].
  static Tensor identity(std::size_t n);

  const Shape& shape() const { return shape_; }
  std::size_t rank() const { return shape_.rank(); }
  std::size_t size() const { return data_.size(); }

  /// Rank-agnostic flat access.
  double& at(std::size_t flat_index);
  double at(std::size_t flat_index) const;

  /// Rank-2 access (checked).
  double& at(std::size_t row, std::size_t col);
  double at(std::size_t row, std::size_t col) const;

  /// Unchecked flat access for hot loops.
  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }

  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  /// Rank-2 helpers (throw std::logic_error if rank != 2).
  std::size_t rows() const;
  std::size_t cols() const;

  /// Reshapes in place; element count must be preserved.
  void reshape(Shape new_shape);

  /// Returns a reshaped copy.
  Tensor reshaped(Shape new_shape) const;

  void fill(double value);

  /// Debug rendering (full contents for small tensors, truncated otherwise).
  std::string to_string() const;

 private:
  Shape shape_;
  std::vector<double> data_;
};

}  // namespace qhdl::tensor

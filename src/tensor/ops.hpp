// Tensor operations used by the NN stack. All functions validate shapes and
// throw std::invalid_argument with a contextual message on mismatch.
#pragma once

#include <functional>

#include "tensor/tensor.hpp"

namespace qhdl::tensor {

/// C = A·B for rank-2 operands ([m,k]·[k,n] -> [m,n]).
/// All matmul variants run on the one row-blocked GEMM kernel
/// (tensor/gemm.hpp); results are deterministic and identical between the
/// allocating and `_into` forms.
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = Aᵀ·B without materializing Aᵀ ([k,m]ᵀ·[k,n] -> [m,n]).
Tensor matmul_transpose_a(const Tensor& a, const Tensor& b);

/// C = A·Bᵀ without materializing Bᵀ ([m,k]·[n,k]ᵀ -> [m,n]).
Tensor matmul_transpose_b(const Tensor& a, const Tensor& b);

/// Out-parameter variants for preallocated hot paths (the training
/// workspace). `out` must already have the result shape; no allocation is
/// performed. When `accumulate` is true the product is added into `out`
/// (gradient accumulation) instead of overwriting it.
void matmul_into(const Tensor& a, const Tensor& b, Tensor& out);
void matmul_transpose_a_into(const Tensor& a, const Tensor& b, Tensor& out,
                             bool accumulate = false);
void matmul_transpose_b_into(const Tensor& a, const Tensor& b, Tensor& out);

/// Rank-2 transpose.
Tensor transpose(const Tensor& a);

/// Elementwise binary ops (same shape required).
Tensor add(const Tensor& a, const Tensor& b);
Tensor subtract(const Tensor& a, const Tensor& b);
Tensor multiply(const Tensor& a, const Tensor& b);

/// a += b in place.
void add_inplace(Tensor& a, const Tensor& b);

/// Scalar ops.
Tensor scale(const Tensor& a, double factor);
void scale_inplace(Tensor& a, double factor);

/// Adds a row vector [1,n] (or [n]) to every row of a [m,n] matrix.
Tensor add_row_broadcast(const Tensor& matrix, const Tensor& row);

/// out = matrix with `row` added to every row; out must be pre-shaped
/// [m,n]. `out` may alias `matrix` for an in-place update.
void add_row_broadcast_into(const Tensor& matrix, const Tensor& row,
                            Tensor& out);

/// Applies fn to every element (returns a new tensor).
Tensor map(const Tensor& a, const std::function<double(double)>& fn);

/// Reductions.
double sum(const Tensor& a);
double mean_value(const Tensor& a);
/// Column sums of a [m,n] matrix -> [1,n] (used for bias gradients).
Tensor sum_rows(const Tensor& a);

/// Column sums accumulated into a preallocated [1,n] (or [n]) tensor.
/// When `accumulate` is true the sums are added to the existing contents.
void sum_rows_into(const Tensor& a, Tensor& out, bool accumulate = false);

/// Index of the maximum element in row `row` of a rank-2 tensor.
std::size_t argmax_row(const Tensor& a, std::size_t row);

/// Max |a - b| over elements (shapes must match).
double max_abs_difference(const Tensor& a, const Tensor& b);

/// Frobenius / L2 norm of all elements.
double norm(const Tensor& a);

/// True if every element satisfies |a-b| <= atol + rtol*|b|.
bool allclose(const Tensor& a, const Tensor& b, double rtol = 1e-9,
              double atol = 1e-12);

}  // namespace qhdl::tensor

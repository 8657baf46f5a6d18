// The double GEMM every dense matmul in the library runs on
// (tensor::matmul and friends, the NN workspace trainer): one
// registry-dispatched small-GEMM op (KernelOps::gemm_rows, DESIGN.md §9 and
// §13) that register-blocks four rows of C at a time and streams k.
//
// Each output element has its own accumulator that starts at +0.0 and adds
// A(i,p)*B(p,j) in strictly ascending p, then is stored to C (or added to
// it) once. The kernel is single-threaded and every backend keeps that
// order, so results are deterministic, bit-identical across backends and —
// because every caller (reference trainer, workspace trainer, Dense module)
// routes through this same code — bit-identical across the training paths
// that must agree.
#pragma once

#include <cstddef>

namespace qhdl::tensor::gemm {

/// C[m,n] (+)= A[m,k] · B[k,n], all row-major.
///
/// `a_transposed`: A is stored as [k,m] with leading dimension `lda`
/// (logical element A(i,p) read from a[p*lda + i]) — the Xᵀ·dY case.
/// `b_transposed`: B is stored as [n,k] with leading dimension `ldb`
/// (logical element B(p,j) read from b[j*ldb + p]) — the dY·Wᵀ case.
/// `accumulate`: false overwrites C, true adds the product into C
/// (used to accumulate parameter gradients without a temporary); with
/// k == 0 it leaves C untouched.
void dgemm(std::size_t m, std::size_t n, std::size_t k,
           const double* a, std::size_t lda, bool a_transposed,
           const double* b, std::size_t ldb, bool b_transposed,
           double* c, std::size_t ldc, bool accumulate);

}  // namespace qhdl::tensor::gemm

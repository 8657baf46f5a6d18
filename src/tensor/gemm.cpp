#include "tensor/gemm.hpp"

#include <algorithm>
#include <vector>

#include "util/backend_registry.hpp"

namespace qhdl::tensor::gemm {

void dgemm(std::size_t m, std::size_t n, std::size_t k, const double* a,
           std::size_t lda, bool a_transposed, const double* b,
           std::size_t ldb, bool b_transposed, double* c, std::size_t ldc,
           bool accumulate) {
  if (m == 0 || n == 0) return;
  // An empty sum: C = +0.0, and accumulating leaves C untouched (C += +0.0
  // would turn a -0.0 entry into +0.0). A and B may be empty here.
  if (k == 0) {
    if (!accumulate) {
      for (std::size_t i = 0; i < m; ++i) {
        std::fill(c + i * ldc, c + i * ldc + n, 0.0);
      }
    }
    return;
  }
  // A transposed A is read in place through its strides; a transposed B
  // is packed row-major first, so the kernel always streams B's rows.
  if (b_transposed) {
    thread_local std::vector<double> packed;
    if (packed.size() < k * n) packed.resize(k * n);
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t j = 0; j < n; ++j) packed[p * n + j] = b[j * ldb + p];
    }
    b = packed.data();
    ldb = n;
  }
  util::simd::ops().gemm_rows(m, n, k, a, a_transposed ? 1 : lda,
                              a_transposed ? lda : 1, b, ldb, c, ldc,
                              accumulate);
}

}  // namespace qhdl::tensor::gemm

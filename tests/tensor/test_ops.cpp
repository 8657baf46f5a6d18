#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/init.hpp"
#include "util/rng.hpp"

namespace qhdl::tensor {
namespace {

TEST(Ops, MatmulKnownValues) {
  const Tensor a = Tensor::matrix(2, 3, {1, 2, 3, 4, 5, 6});
  const Tensor b = Tensor::matrix(3, 2, {7, 8, 9, 10, 11, 12});
  const Tensor c = matmul(a, b);
  EXPECT_EQ(c.shape(), Shape({2, 2}));
  EXPECT_DOUBLE_EQ(c.at(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 154.0);
}

TEST(Ops, MatmulShapeMismatchThrows) {
  const Tensor a = Tensor::matrix(2, 3, {1, 2, 3, 4, 5, 6});
  const Tensor b = Tensor::matrix(2, 2, {1, 2, 3, 4});
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Ops, MatmulIdentity) {
  util::Rng rng{1};
  const Tensor a = uniform(Shape{4, 4}, -1, 1, rng);
  EXPECT_TRUE(allclose(matmul(a, Tensor::identity(4)), a));
  EXPECT_TRUE(allclose(matmul(Tensor::identity(4), a), a));
}

TEST(Ops, TransposedVariantsMatchExplicitTranspose) {
  util::Rng rng{2};
  const Tensor a = uniform(Shape{3, 5}, -1, 1, rng);
  const Tensor b = uniform(Shape{3, 4}, -1, 1, rng);
  // Aᵀ·B via matmul_transpose_a must equal transpose(A)·B.
  EXPECT_TRUE(allclose(matmul_transpose_a(a, b), matmul(transpose(a), b)));

  const Tensor c = uniform(Shape{5, 3}, -1, 1, rng);
  const Tensor d = uniform(Shape{4, 3}, -1, 1, rng);
  // C·Dᵀ via matmul_transpose_b must equal C·transpose(D).
  EXPECT_TRUE(allclose(matmul_transpose_b(c, d), matmul(c, transpose(d))));
}

// Naive j-inner triple loop with ascending-k accumulation — the arithmetic
// order the GEMM must reproduce exactly (per element, contributions
// arrive in ascending k).
Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  Tensor c{Shape{a.rows(), b.cols()}};
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aval = a.at(i, k);
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c.at(i, j) += aval * b.at(k, j);
      }
    }
  }
  return c;
}

TEST(Ops, MatmulZeroHeavyInputs) {
  // The old kernel skipped a == 0.0 contributions with a data-dependent
  // branch; the blocked kernel must handle zero-heavy inputs (e.g. ReLU
  // activations) with no special casing and no wrong results.
  util::Rng rng{7};
  Tensor a = uniform(Shape{9, 13}, -1, 1, rng);
  for (std::size_t i = 0; i < a.size(); i += 2) a[i] = 0.0;  // ~half zeros
  const Tensor b = uniform(Shape{13, 6}, -1, 1, rng);
  const Tensor c = matmul(a, b);
  const Tensor expected = naive_matmul(a, b);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_EQ(c[i], expected[i]);

  const Tensor all_zero = Tensor::zeros(Shape{9, 13});
  const Tensor zc = matmul(all_zero, b);
  for (std::size_t i = 0; i < zc.size(); ++i) EXPECT_EQ(zc[i], 0.0);
}

TEST(Ops, BlockedMatmulBitIdenticalToNaiveOrder) {
  // Shapes that exercise full tiles, edge tiles, and the search-space
  // extremes; every C element is one ascending-k sum from 0.0.
  const struct { std::size_t m, k, n; } shapes[] = {
      {1, 1, 1}, {4, 4, 4}, {5, 3, 7}, {8, 110, 10},
      {37, 29, 11}, {70, 2, 130}, {3, 256, 5},
  };
  util::Rng rng{11};
  for (const auto& s : shapes) {
    const Tensor a = uniform(Shape{s.m, s.k}, -1, 1, rng);
    const Tensor b = uniform(Shape{s.k, s.n}, -1, 1, rng);
    const Tensor c = matmul(a, b);
    const Tensor expected = naive_matmul(a, b);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_EQ(c[i], expected[i])
          << "m=" << s.m << " k=" << s.k << " n=" << s.n << " flat=" << i;
    }
  }
}

TEST(Ops, MatmulLargeKMatchesNaiveClosely) {
  // k > 256 is one ascending sum too, so the naive loop's order is matched
  // exactly.
  util::Rng rng{13};
  const Tensor a = uniform(Shape{6, 300}, -1, 1, rng);
  const Tensor b = uniform(Shape{300, 5}, -1, 1, rng);
  const Tensor c = matmul(a, b);
  const Tensor expected = naive_matmul(a, b);
  EXPECT_TRUE(allclose(c, expected, 1e-12, 1e-12));
  for (std::size_t i = 0; i < c.size(); ++i) ASSERT_EQ(c[i], expected[i]);
}

TEST(Ops, MatmulIntoMatchesMatmul) {
  util::Rng rng{17};
  const Tensor a = uniform(Shape{6, 9}, -1, 1, rng);
  const Tensor b = uniform(Shape{9, 4}, -1, 1, rng);
  Tensor out{Shape{6, 4}};
  matmul_into(a, b, out);
  const Tensor expected = matmul(a, b);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], expected[i]);

  Tensor bad{Shape{4, 6}};
  EXPECT_THROW(matmul_into(a, b, bad), std::invalid_argument);
}

TEST(Ops, MatmulTransposeAIntoAccumulates) {
  util::Rng rng{19};
  const Tensor a = uniform(Shape{8, 5}, -1, 1, rng);   // [batch, in]
  const Tensor b = uniform(Shape{8, 3}, -1, 1, rng);   // [batch, out]
  const Tensor product = matmul_transpose_a(a, b);     // [in, out]

  Tensor acc = Tensor::full(Shape{5, 3}, 1.5);
  matmul_transpose_a_into(a, b, acc, /*accumulate=*/true);
  for (std::size_t i = 0; i < acc.size(); ++i) {
    EXPECT_DOUBLE_EQ(acc[i], 1.5 + product[i]);
  }

  Tensor fresh{Shape{5, 3}};
  matmul_transpose_a_into(a, b, fresh, /*accumulate=*/false);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(fresh[i], product[i]);
  }
}

TEST(Ops, MatmulTransposeBIntoMatches) {
  util::Rng rng{23};
  const Tensor a = uniform(Shape{7, 4}, -1, 1, rng);   // [batch, out]
  const Tensor b = uniform(Shape{6, 4}, -1, 1, rng);   // [in, out] (W)
  Tensor out{Shape{7, 6}};
  matmul_transpose_b_into(a, b, out);
  const Tensor expected = matmul_transpose_b(a, b);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], expected[i]);
}

TEST(Ops, AddRowBroadcastIntoAliasesSafely) {
  Tensor m = Tensor::matrix(2, 3, {0, 0, 0, 1, 1, 1});
  const Tensor row = Tensor::row({10, 20, 30});
  Tensor out{Shape{2, 3}};
  add_row_broadcast_into(m, row, out);
  EXPECT_DOUBLE_EQ(out.at(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(out.at(1, 2), 31.0);
  // In-place form: out aliases the matrix.
  add_row_broadcast_into(m, row, m);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 20.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 11.0);
  EXPECT_THROW(add_row_broadcast_into(m, Tensor::row({1, 2}), m),
               std::invalid_argument);
}

TEST(Ops, SumRowsIntoAccumulates) {
  const Tensor m = Tensor::matrix(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor acc = Tensor::row({10, 10, 10});
  sum_rows_into(m, acc, /*accumulate=*/true);
  EXPECT_DOUBLE_EQ(acc[0], 15.0);
  EXPECT_DOUBLE_EQ(acc[2], 19.0);
  sum_rows_into(m, acc, /*accumulate=*/false);
  EXPECT_DOUBLE_EQ(acc[1], 7.0);
}

TEST(Ops, TransposeInvolution) {
  util::Rng rng{3};
  const Tensor a = uniform(Shape{3, 7}, -1, 1, rng);
  EXPECT_TRUE(allclose(transpose(transpose(a)), a));
}

TEST(Ops, ElementwiseArithmetic) {
  const Tensor a = Tensor::matrix(1, 3, {1, 2, 3});
  const Tensor b = Tensor::matrix(1, 3, {10, 20, 30});
  EXPECT_DOUBLE_EQ(add(a, b).at(0, 2), 33.0);
  EXPECT_DOUBLE_EQ(subtract(b, a).at(0, 0), 9.0);
  EXPECT_DOUBLE_EQ(multiply(a, b).at(0, 1), 40.0);
  EXPECT_THROW(add(a, Tensor::matrix(1, 2, {1, 2})), std::invalid_argument);
}

TEST(Ops, InplaceOps) {
  Tensor a = Tensor::matrix(1, 2, {1, 2});
  add_inplace(a, Tensor::matrix(1, 2, {3, 4}));
  EXPECT_DOUBLE_EQ(a.at(0, 1), 6.0);
  scale_inplace(a, 0.5);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(scale(a, 2.0).at(0, 0), 4.0);
}

TEST(Ops, RowBroadcast) {
  const Tensor m = Tensor::matrix(2, 3, {0, 0, 0, 1, 1, 1});
  const Tensor row = Tensor::row({10, 20, 30});
  const Tensor out = add_row_broadcast(m, row);
  EXPECT_DOUBLE_EQ(out.at(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(out.at(1, 2), 31.0);
  EXPECT_THROW(add_row_broadcast(m, Tensor::row({1, 2})),
               std::invalid_argument);
}

TEST(Ops, MapSumMean) {
  const Tensor a = Tensor::matrix(1, 4, {1, 2, 3, 4});
  const Tensor doubled = map(a, [](double v) { return 2 * v; });
  EXPECT_DOUBLE_EQ(doubled.at(0, 3), 8.0);
  EXPECT_DOUBLE_EQ(sum(a), 10.0);
  EXPECT_DOUBLE_EQ(mean_value(a), 2.5);
}

TEST(Ops, SumRows) {
  const Tensor m = Tensor::matrix(2, 3, {1, 2, 3, 4, 5, 6});
  const Tensor sums = sum_rows(m);
  EXPECT_EQ(sums.shape(), Shape({1, 3}));
  EXPECT_DOUBLE_EQ(sums[0], 5.0);
  EXPECT_DOUBLE_EQ(sums[2], 9.0);
}

TEST(Ops, ArgmaxRow) {
  const Tensor m = Tensor::matrix(2, 3, {0.1, 0.9, 0.3, 5, 4, 6});
  EXPECT_EQ(argmax_row(m, 0), 1u);
  EXPECT_EQ(argmax_row(m, 1), 2u);
  EXPECT_THROW(argmax_row(m, 2), std::out_of_range);
}

TEST(Ops, NormsAndDifferences) {
  const Tensor a = Tensor::matrix(1, 2, {3, 4});
  EXPECT_DOUBLE_EQ(norm(a), 5.0);
  const Tensor b = Tensor::matrix(1, 2, {3, 4.5});
  EXPECT_DOUBLE_EQ(max_abs_difference(a, b), 0.5);
  EXPECT_TRUE(allclose(a, a));
  EXPECT_FALSE(allclose(a, b, 1e-9, 1e-9));
}

TEST(Ops, AllcloseShapeMismatchFalse) {
  EXPECT_FALSE(allclose(Tensor{Shape{2}}, Tensor{Shape{3}}));
}

TEST(Init, GlorotUniformBounds) {
  util::Rng rng{1};
  const std::size_t fan_in = 10, fan_out = 6;
  const Tensor w = glorot_uniform(fan_in, fan_out, rng);
  EXPECT_EQ(w.shape(), Shape({fan_in, fan_out}));
  const double limit = std::sqrt(6.0 / (fan_in + fan_out));
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_GE(w[i], -limit);
    EXPECT_LE(w[i], limit);
  }
}

TEST(Init, HeNormalVariance) {
  util::Rng rng{2};
  const Tensor w = he_normal(100, 200, rng);
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) sum_sq += w[i] * w[i];
  const double var = sum_sq / static_cast<double>(w.size());
  EXPECT_NEAR(var, 2.0 / 100.0, 0.002);
}

TEST(Init, DeterministicForSeed) {
  util::Rng rng1{5}, rng2{5};
  const Tensor a = glorot_uniform(4, 4, rng1);
  const Tensor b = glorot_uniform(4, 4, rng2);
  EXPECT_TRUE(allclose(a, b, 0, 0));
}

}  // namespace
}  // namespace qhdl::tensor

#include "qnn/quantum_layer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "tensor/init.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"
#include "util/metrics.hpp"

namespace qhdl::qnn {
namespace {

using tensor::Shape;
using tensor::Tensor;

QuantumLayerConfig small_config(AnsatzKind ansatz, std::size_t qubits = 3,
                                std::size_t depth = 2) {
  QuantumLayerConfig config;
  config.qubits = qubits;
  config.depth = depth;
  config.ansatz = ansatz;
  return config;
}

TEST(QuantumLayer, OutputShapeMatchesQubits) {
  util::Rng rng{1};
  QuantumLayer layer{small_config(AnsatzKind::BasicEntangler), rng};
  const Tensor x = tensor::uniform(Shape{4, 3}, -1.0, 1.0, rng);
  const Tensor out = layer.forward(x);
  EXPECT_EQ(out.shape(), Shape({4, 3}));
}

TEST(QuantumLayer, OutputsAreExpectationsInRange) {
  util::Rng rng{2};
  QuantumLayer layer{small_config(AnsatzKind::StronglyEntangling), rng};
  const Tensor x = tensor::uniform(Shape{8, 3}, -1.0, 1.0, rng);
  const Tensor out = layer.forward(x);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_GE(out[i], -1.0 - 1e-12);
    EXPECT_LE(out[i], 1.0 + 1e-12);
  }
}

TEST(QuantumLayer, WeightCountMatchesAnsatz) {
  util::Rng rng{3};
  QuantumLayer bel{small_config(AnsatzKind::BasicEntangler, 4, 5), rng};
  EXPECT_EQ(bel.weight_count(), 20u);
  QuantumLayer sel{small_config(AnsatzKind::StronglyEntangling, 4, 5), rng};
  EXPECT_EQ(sel.weight_count(), 60u);
}

TEST(QuantumLayer, ForwardValidatesShape) {
  util::Rng rng{4};
  QuantumLayer layer{small_config(AnsatzKind::BasicEntangler), rng};
  EXPECT_THROW(layer.forward(Tensor::matrix(1, 2, {0.1, 0.2})),
               std::invalid_argument);
}

TEST(QuantumLayer, BackwardBeforeForwardThrows) {
  util::Rng rng{5};
  QuantumLayer layer{small_config(AnsatzKind::BasicEntangler), rng};
  EXPECT_THROW(layer.backward(Tensor::matrix(1, 3, {1, 1, 1})),
               std::logic_error);
}

TEST(QuantumLayer, FailedBackwardInvalidatesCachedInput) {
  // Regression: a shape-mismatched backward used to leave the cached
  // forward batch in place, so the NEXT backward silently differentiated
  // against a stale input instead of surfacing the broken pairing.
  util::Rng rng{6};
  QuantumLayer layer{small_config(AnsatzKind::BasicEntangler), rng};
  layer.forward(Tensor::matrix(2, 3, {0.1, -0.2, 0.3, 0.4, -0.5, 0.6}));
  EXPECT_THROW(layer.backward(Tensor::matrix(1, 3, {1, 1, 1})),
               std::invalid_argument);
  // The cache is gone: even a correctly-shaped upstream must now report
  // "backward before forward" rather than reuse the stale batch.
  EXPECT_THROW(layer.backward(Tensor::matrix(2, 3, {1, 1, 1, 1, 1, 1})),
               std::logic_error);
  // A fresh forward restores the normal pairing.
  layer.forward(Tensor::matrix(1, 3, {0.2, 0.1, -0.3}));
  EXPECT_NO_THROW(layer.backward(Tensor::matrix(1, 3, {1, 0.5, -1})));
}

/// The decisive test: analytic input and weight gradients through the
/// adjoint VJP match finite differences, for both ansätze.
class QuantumLayerGradCheck
    : public ::testing::TestWithParam<std::tuple<AnsatzKind, std::size_t,
                                                 std::size_t>> {};

TEST_P(QuantumLayerGradCheck, MatchesFiniteDifferences) {
  const auto [ansatz, qubits, depth] = GetParam();
  util::Rng rng{77};
  QuantumLayer layer{small_config(ansatz, qubits, depth), rng};
  const Tensor x = tensor::uniform(Shape{2, qubits}, -0.8, 0.8, rng);
  EXPECT_LT(testing::module_input_gradient_error(layer, x, rng), 1e-6);
  EXPECT_LT(testing::module_parameter_gradient_error(layer, x, rng), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, QuantumLayerGradCheck,
    ::testing::Values(
        std::make_tuple(AnsatzKind::BasicEntangler, std::size_t{2},
                        std::size_t{1}),
        std::make_tuple(AnsatzKind::BasicEntangler, std::size_t{3},
                        std::size_t{2}),
        std::make_tuple(AnsatzKind::BasicEntangler, std::size_t{4},
                        std::size_t{3}),
        std::make_tuple(AnsatzKind::StronglyEntangling, std::size_t{2},
                        std::size_t{1}),
        std::make_tuple(AnsatzKind::StronglyEntangling, std::size_t{3},
                        std::size_t{2}),
        std::make_tuple(AnsatzKind::StronglyEntangling, std::size_t{4},
                        std::size_t{2})));

TEST(QuantumLayer, ParameterShiftDiffMethodAgreesWithAdjoint) {
  util::Rng rng_a{91}, rng_b{91};
  QuantumLayerConfig config = small_config(AnsatzKind::BasicEntangler, 3, 2);
  QuantumLayer adjoint{config, rng_a};
  config.diff_method = quantum::DiffMethod::ParameterShift;
  QuantumLayer shift{config, rng_b};  // same seed -> same weights

  const Tensor x = Tensor::matrix(2, 3, {0.1, -0.4, 0.7, 0.5, 0.2, -0.9});
  const Tensor g = Tensor::matrix(2, 3, {1, 0.5, -1, 0.3, -0.2, 0.8});

  adjoint.forward(x);
  const Tensor grad_a = adjoint.backward(g);
  shift.forward(x);
  const Tensor grad_s = shift.backward(g);

  EXPECT_LT(tensor::max_abs_difference(grad_a, grad_s), 1e-9);
  EXPECT_LT(tensor::max_abs_difference(adjoint.parameters()[0]->grad,
                                       shift.parameters()[0]->grad),
            1e-9);
}

TEST(QuantumLayer, EncodingScaleAffectsForwardAndChainRule) {
  util::Rng rng_a{17}, rng_b{17};
  QuantumLayerConfig config = small_config(AnsatzKind::BasicEntangler, 2, 1);
  config.encoding.scale = 1.0;
  QuantumLayer unit{config, rng_a};
  config.encoding.scale = 2.0;
  QuantumLayer doubled{config, rng_b};

  // Same weights: feeding x to the doubled-scale layer equals feeding 2x to
  // the unit-scale layer.
  const Tensor x = Tensor::matrix(1, 2, {0.3, -0.2});
  const Tensor x2 = Tensor::matrix(1, 2, {0.6, -0.4});
  EXPECT_LT(tensor::max_abs_difference(doubled.forward(x), unit.forward(x2)),
            1e-12);

  // Chain rule still passes gradcheck with a non-default scale.
  util::Rng rng{18};
  EXPECT_LT(testing::module_input_gradient_error(doubled, x, rng), 1e-6);
}

TEST(QuantumLayer, InfoDescribesCircuit) {
  util::Rng rng{6};
  QuantumLayer layer{small_config(AnsatzKind::StronglyEntangling, 3, 2), rng};
  const nn::LayerInfo info = layer.info();
  EXPECT_EQ(info.kind, "quantum");
  EXPECT_EQ(info.qubits, 3u);
  EXPECT_EQ(info.depth, 2u);
  EXPECT_EQ(info.ansatz, "sel");
  EXPECT_EQ(info.encoding_gate_count, 3u);
  EXPECT_EQ(info.param_gate_count, 3u + 18u);   // encoding + Rot ops
  EXPECT_EQ(info.gate_count, 3u + 18u + 6u);    // + CNOTs
  EXPECT_EQ(info.parameter_count, 18u);
  EXPECT_EQ(layer.name(), "QuantumSEL(q=3, d=2)");
}

TEST(QuantumLayer, RunSingleMatchesForwardRow) {
  util::Rng rng{7};
  QuantumLayerConfig config = small_config(AnsatzKind::BasicEntangler, 3, 2);
  QuantumLayer layer{config, rng};
  const Tensor x = Tensor::matrix(1, 3, {0.2, -0.5, 0.8});
  const Tensor out = layer.forward(x);
  // run_single takes pre-scaled angles.
  const std::vector<double> angles{0.2 * config.encoding.scale,
                                   -0.5 * config.encoding.scale,
                                   0.8 * config.encoding.scale};
  const auto direct = layer.run_single(angles);
  for (std::size_t w = 0; w < 3; ++w) {
    EXPECT_NEAR(out.at(0, w), direct[w], 1e-12);
  }
  EXPECT_THROW(layer.run_single(std::vector<double>{0.1}),
               std::invalid_argument);
}

TEST(QuantumLayer, NoisyForwardDampsExpectations) {
  util::Rng rng_a{41}, rng_b{41};
  QuantumLayerConfig config = small_config(AnsatzKind::BasicEntangler, 2, 1);
  QuantumLayer clean{config, rng_a};
  config.noise = quantum::NoiseModel::depolarizing(0.1);
  QuantumLayer noisy{config, rng_b};  // same weights

  const Tensor x = Tensor::matrix(1, 2, {0.4, -0.6});
  const Tensor clean_out = clean.forward(x);
  const Tensor noisy_out = noisy.forward(x);
  for (std::size_t i = 0; i < clean_out.size(); ++i) {
    EXPECT_LE(std::abs(noisy_out[i]), std::abs(clean_out[i]) + 1e-12);
  }
}

TEST(QuantumLayer, NoisyGradientsMatchFiniteDifferences) {
  util::Rng rng{43};
  QuantumLayerConfig config = small_config(AnsatzKind::StronglyEntangling,
                                           2, 1);
  config.noise = quantum::NoiseModel::depolarizing(0.05);
  QuantumLayer layer{config, rng};
  const Tensor x = Tensor::matrix(1, 2, {0.3, -0.5});
  EXPECT_LT(testing::module_input_gradient_error(layer, x, rng), 1e-6);
  EXPECT_LT(testing::module_parameter_gradient_error(layer, x, rng), 1e-6);
}

TEST(QuantumLayer, ZeroNoiseDensityPathMatchesStatevector) {
  util::Rng rng_a{47}, rng_b{47};
  QuantumLayerConfig config = small_config(AnsatzKind::BasicEntangler, 3, 2);
  QuantumLayer adjoint{config, rng_a};
  config.noise = quantum::NoiseModel::depolarizing(0.0);
  QuantumLayer noisy_zero{config, rng_b};

  const Tensor x = Tensor::matrix(2, 3, {0.1, 0.7, -0.3, -0.8, 0.2, 0.5});
  EXPECT_LT(tensor::max_abs_difference(adjoint.forward(x),
                                       noisy_zero.forward(x)),
            1e-10);
}

TEST(QuantumLayer, WeightsInitializedInTwoPiRange) {
  util::Rng rng{8};
  QuantumLayer layer{small_config(AnsatzKind::StronglyEntangling, 4, 3), rng};
  const auto& weights = layer.parameters()[0]->value;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    EXPECT_GE(weights[i], 0.0);
    EXPECT_LT(weights[i], 2.0 * std::numbers::pi);
  }
}

TEST(QuantumLayer, GradientsAccumulateAcrossBatches) {
  util::Rng rng{9};
  QuantumLayer layer{small_config(AnsatzKind::BasicEntangler, 2, 1), rng};
  const Tensor x = Tensor::matrix(1, 2, {0.3, 0.4});
  const Tensor g = Tensor::matrix(1, 2, {1.0, 1.0});
  layer.forward(x);
  layer.backward(g);
  const Tensor first = layer.parameters()[0]->grad;
  layer.forward(x);
  layer.backward(g);
  const Tensor second = layer.parameters()[0]->grad;
  EXPECT_LT(tensor::max_abs_difference(second, tensor::scale(first, 2.0)),
            1e-12);
}

}  // namespace
}  // namespace qhdl::qnn

namespace qhdl::qnn {
namespace {

using tensor::Tensor;

TEST(QuantumLayer, HardwareEfficientGradcheck) {
  util::Rng rng{61};
  QuantumLayerConfig config;
  config.qubits = 3;
  config.depth = 2;
  config.ansatz = AnsatzKind::HardwareEfficient;
  QuantumLayer layer{config, rng};
  EXPECT_EQ(layer.weight_count(), 6u);
  const Tensor x = Tensor::matrix(2, 3, {0.2, -0.4, 0.6, -0.1, 0.8, 0.3});
  EXPECT_LT(testing::module_input_gradient_error(layer, x, rng), 1e-6);
  EXPECT_LT(testing::module_parameter_gradient_error(layer, x, rng), 1e-6);
  EXPECT_EQ(layer.info().ansatz, "hea");
}

TEST(QuantumLayer, ShotBasedForwardApproximatesExact) {
  util::Rng rng_a{67}, rng_b{67};
  QuantumLayerConfig config;
  config.qubits = 2;
  config.depth = 1;
  config.ansatz = AnsatzKind::BasicEntangler;
  QuantumLayer exact{config, rng_a};
  config.shots = 8192;
  QuantumLayer sampled{config, rng_b};  // same weights

  const Tensor x = Tensor::matrix(1, 2, {0.3, -0.5});
  const Tensor e = exact.forward(x);
  const Tensor s = sampled.forward(x);
  for (std::size_t i = 0; i < e.size(); ++i) {
    EXPECT_NEAR(s[i], e[i], 0.06) << i;  // ~4 sigma at 8192 shots
  }
  // Shot noise means repeated forwards differ.
  const Tensor s2 = sampled.forward(x);
  EXPECT_GT(tensor::max_abs_difference(s, s2), 0.0);
}

TEST(QuantumLayer, ShotsWithNoiseRejected) {
  util::Rng rng{71};
  QuantumLayerConfig config;
  config.shots = 100;
  config.noise = quantum::NoiseModel::depolarizing(0.01);
  EXPECT_THROW((QuantumLayer{config, rng}), std::invalid_argument);
}

}  // namespace
}  // namespace qhdl::qnn

namespace qhdl::qnn {
namespace {

TEST(QuantumLayer, ThreadedBatchMatchesSequential) {
  util::Rng rng_a{81}, rng_b{81};
  QuantumLayerConfig config;
  config.qubits = 3;
  config.depth = 2;
  config.ansatz = AnsatzKind::StronglyEntangling;
  QuantumLayer sequential{config, rng_a};
  config.threads = 4;
  QuantumLayer threaded{config, rng_b};  // same weights

  util::Rng data_rng{82};
  const tensor::Tensor x =
      tensor::uniform(tensor::Shape{16, 3}, -1.0, 1.0, data_rng);
  const tensor::Tensor g =
      tensor::uniform(tensor::Shape{16, 3}, -1.0, 1.0, data_rng);

  const tensor::Tensor out_seq = sequential.forward(x);
  const tensor::Tensor out_par = threaded.forward(x);
  EXPECT_TRUE(tensor::allclose(out_seq, out_par, 0, 0));

  const tensor::Tensor grad_seq = sequential.backward(g);
  const tensor::Tensor grad_par = threaded.backward(g);
  EXPECT_TRUE(tensor::allclose(grad_seq, grad_par, 0, 0));
  EXPECT_TRUE(tensor::allclose(sequential.parameters()[0]->grad,
                               threaded.parameters()[0]->grad, 1e-15,
                               1e-15));
}

TEST(QuantumLayer, BatchedSoAPathMatchesGenericPerRow) {
  // The SoA batch path (specialized kernels, shared+per-row variants,
  // batched adjoint VJP) must agree with the reference backend's per-row
  // generic-kernel path to 1e-12 on outputs, input gradients, and weight
  // gradients.
  util::Rng rng_a{31};
  util::Rng rng_b{31};
  auto config = small_config(AnsatzKind::StronglyEntangling, 4, 3);
  QuantumLayer batched{config, rng_a};
  QuantumLayer generic{config, rng_b};  // same weights

  util::Rng data_rng{13};
  const tensor::Tensor x =
      tensor::uniform(tensor::Shape{7, 4}, -1.0, 1.0, data_rng);
  const tensor::Tensor g =
      tensor::uniform(tensor::Shape{7, 4}, -1.0, 1.0, data_rng);

  tensor::Tensor out_batched, gin_batched, out_generic, gin_generic;
  {
    const testing::ReferenceScope scope{false};
    util::Metrics::global().reset();
    out_batched = batched.forward(x);
    EXPECT_GT(qhdl::testing::global_count("kernel.batched_rows"), 0u)
        << "specialized mode should take the SoA batch path";
    gin_batched = batched.backward(g);
  }
  {
    const testing::ReferenceScope scope{true};
    util::Metrics::global().reset();
    out_generic = generic.forward(x);
    EXPECT_EQ(qhdl::testing::global_count("kernel.batched_rows"), 0u)
        << "the reference backend should not take the SoA batch path";
    gin_generic = generic.backward(g);
  }

  EXPECT_TRUE(tensor::allclose(out_batched, out_generic, 1e-12, 1e-12));
  EXPECT_TRUE(tensor::allclose(gin_batched, gin_generic, 1e-12, 1e-12));
  EXPECT_TRUE(tensor::allclose(batched.parameters()[0]->grad,
                               generic.parameters()[0]->grad, 1e-12, 1e-12));
}

TEST(QuantumLayer, BatchedPathBitIdenticalAcrossChunkCounts) {
  // Chunking the batch across threads must not change a single bit: the
  // batch kernels do per-row arithmetic in the same order regardless of
  // where chunk boundaries fall.
  util::Rng data_rng{45};
  const tensor::Tensor x =
      tensor::uniform(tensor::Shape{9, 3}, -1.0, 1.0, data_rng);
  const tensor::Tensor g =
      tensor::uniform(tensor::Shape{9, 3}, -1.0, 1.0, data_rng);

  std::vector<tensor::Tensor> outs, gins, wgrads;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    util::Rng rng{77};
    auto config = small_config(AnsatzKind::StronglyEntangling, 3, 2);
    config.threads = threads;
    QuantumLayer layer{config, rng};
    outs.push_back(layer.forward(x));
    gins.push_back(layer.backward(g));
    wgrads.push_back(layer.parameters()[0]->grad);
  }
  for (std::size_t i = 1; i < outs.size(); ++i) {
    EXPECT_TRUE(tensor::allclose(outs[0], outs[i], 0, 0));
    EXPECT_TRUE(tensor::allclose(gins[0], gins[i], 0, 0));
    EXPECT_TRUE(tensor::allclose(wgrads[0], wgrads[i], 0, 0));
  }
}

}  // namespace
}  // namespace qhdl::qnn

// --- forward-state reuse -----------------------------------------------------
//
// On the batched path backward() starts its adjoint sweep from the state
// forward() kept, but only when its repacked [angles | weights] rows are
// bitwise equal to forward()'s; otherwise it re-simulates. Either way every
// gradient bit must match a fresh recompute. Under the reference backend the
// batched path is off and reuse must be inert.

namespace qhdl::qnn {
namespace {

struct LayerGrads {
  std::vector<double> input;   ///< dL/dx, [b * q + w]
  std::vector<double> weight;  ///< dL/dθ summed over rows
};

/// Fresh recompute: packs the rows from `x` and the layer's current weights,
/// runs the executor's batched forward + VJP with no kept state, and reduces
/// as backward() does (rows ascending onto a zero gradient).
LayerGrads recompute_grads(QuantumLayer& layer, const Tensor& x,
                           const Tensor& g) {
  const std::size_t q = layer.qubits();
  const std::size_t weights = layer.weight_count();
  const std::size_t stride = q + weights;
  const std::size_t batch = x.rows();
  const Tensor& theta = layer.parameters()[0]->value;
  const double scale = AngleEncoding{}.scale;
  std::vector<double> params(batch * stride);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t w = 0; w < q; ++w) {
      params[b * stride + w] = scale * x.at(b, w);
    }
    for (std::size_t i = 0; i < weights; ++i) {
      params[b * stride + q + i] = theta[i];
    }
  }
  const auto vjp = layer.executor().run_with_vjp_batch(params, stride, batch,
                                                       g.data());
  LayerGrads out{std::vector<double>(batch * q),
                 std::vector<double>(weights, 0.0)};
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t w = 0; w < q; ++w) {
      out.input[b * q + w] = scale * vjp.gradient[b * stride + w];
    }
    for (std::size_t i = 0; i < weights; ++i) {
      out.weight[i] += vjp.gradient[b * stride + q + i];
    }
  }
  return out;
}

/// Runs backward() on a zeroed weight gradient and records what the adjoint
/// sweep did: `recomputed` is true when it ran the plan's forward again
/// (fused chains are only counted by plan execution, never by the reverse
/// sweep).
struct BackwardRun {
  LayerGrads grads;
  bool recomputed = false;
};

BackwardRun run_backward(QuantumLayer& layer, const Tensor& g) {
  layer.zero_grad();
  util::Metrics::global().reset();
  const Tensor grad_input = layer.backward(g);
  BackwardRun run;
  run.recomputed = qhdl::testing::global_count("kernel.fused") > 0;
  run.grads.input.assign(grad_input.data().begin(), grad_input.data().end());
  const Tensor& wgrad = layer.parameters()[0]->grad;
  run.grads.weight.assign(wgrad.data().begin(), wgrad.data().end());
  return run;
}

void expect_grads_bit_identical(const LayerGrads& got, const LayerGrads& want,
                                const std::string& label) {
  ASSERT_EQ(got.input.size(), want.input.size()) << label;
  ASSERT_EQ(got.weight.size(), want.weight.size()) << label;
  for (std::size_t i = 0; i < got.input.size(); ++i) {
    EXPECT_EQ(got.input[i], want.input[i]) << label << " grad_input " << i;
  }
  for (std::size_t i = 0; i < got.weight.size(); ++i) {
    EXPECT_EQ(got.weight[i], want.weight[i]) << label << " weight grad " << i;
  }
}

std::string reuse_label(std::size_t threads, std::size_t batch) {
  return "threads=" + std::to_string(threads) +
         " batch=" + std::to_string(batch);
}

constexpr std::size_t kReuseThreads[] = {1, 3};

TEST(QuantumLayerReuse, ReusedGradientsMatchFreshRecompute) {
  // One layer per thread count walks batches of 1, 8 and a 5-row tail (the
  // kept per-chunk states change shape between them); each backward follows
  // its forward directly, so it must take the reuse path.
  for (const std::size_t threads : kReuseThreads) {
    util::Rng rng{91};
    auto config = small_config(AnsatzKind::StronglyEntangling, 3, 2);
    config.threads = threads;
    QuantumLayer layer{config, rng};
    util::Rng data_rng{92};
    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{8}, std::size_t{5}}) {
      const std::string label = reuse_label(threads, batch);
      const Tensor x = tensor::uniform(Shape{batch, 3}, -1.0, 1.0, data_rng);
      const Tensor g = tensor::uniform(Shape{batch, 3}, -1.0, 1.0, data_rng);
      layer.forward(x);
      const BackwardRun run = run_backward(layer, g);
      if (layer.executor().batch_path_available()) {
        EXPECT_FALSE(run.recomputed) << label << ": kept state not reused";
      }
      expect_grads_bit_identical(run.grads, recompute_grads(layer, x, g),
                                 label);
    }
  }
}

TEST(QuantumLayerReuse, SecondBackwardRecomputes) {
  // The first backward consumes the kept states; a second one after the
  // same forward must re-simulate and still give the same bits.
  for (const std::size_t threads : kReuseThreads) {
    util::Rng rng{93};
    auto config = small_config(AnsatzKind::StronglyEntangling, 3, 2);
    config.threads = threads;
    QuantumLayer layer{config, rng};
    util::Rng data_rng{94};
    const Tensor x = tensor::uniform(Shape{8, 3}, -1.0, 1.0, data_rng);
    const Tensor g = tensor::uniform(Shape{8, 3}, -1.0, 1.0, data_rng);
    const std::string label = reuse_label(threads, 8);
    layer.forward(x);
    const BackwardRun first = run_backward(layer, g);
    const BackwardRun second = run_backward(layer, g);
    if (layer.executor().batch_path_available()) {
      EXPECT_FALSE(first.recomputed) << label;
      EXPECT_TRUE(second.recomputed) << label << ": spent state reused";
    }
    expect_grads_bit_identical(second.grads, first.grads, label);
    expect_grads_bit_identical(second.grads, recompute_grads(layer, x, g),
                               label);
  }
}

TEST(QuantumLayerReuse, WeightChangeBeforeBackwardRecomputes) {
  // An optimizer step (or any weight edit) between forward and backward
  // makes the kept state stale: the repacked rows differ, so backward must
  // re-simulate with the current weights.
  for (const std::size_t threads : kReuseThreads) {
    util::Rng rng{95};
    auto config = small_config(AnsatzKind::StronglyEntangling, 3, 2);
    config.threads = threads;
    QuantumLayer layer{config, rng};
    util::Rng data_rng{96};
    const Tensor x = tensor::uniform(Shape{8, 3}, -1.0, 1.0, data_rng);
    const Tensor g = tensor::uniform(Shape{8, 3}, -1.0, 1.0, data_rng);
    const std::string label = reuse_label(threads, 8);
    layer.forward(x);
    layer.parameters()[0]->value[0] += 0.25;
    const BackwardRun run = run_backward(layer, g);
    if (layer.executor().batch_path_available()) {
      EXPECT_TRUE(run.recomputed) << label << ": stale state reused";
    }
    expect_grads_bit_identical(run.grads, recompute_grads(layer, x, g),
                               label);
  }
}

}  // namespace
}  // namespace qhdl::qnn

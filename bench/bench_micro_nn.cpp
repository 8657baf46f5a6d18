// Micro-benchmarks of the classical NN substrate (google-benchmark):
// the small GEMM at the search-space shapes, dense forward/backward vs width,
// fused softmax-cross-entropy, the workspace vs Module training step, and
// an end-to-end candidate training run — the wall-clock counterpart of the
// analytic FLOPs model.
#include <benchmark/benchmark.h>

#include <optional>
#include <string>

#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "nn/workspace.hpp"
#include "qnn/hybrid_model.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"
#include "util/backend_registry.hpp"

namespace {

using namespace qhdl;
using tensor::Shape;
using tensor::Tensor;

/// GEMM on the shapes the classical search actually runs: batch 8 forward
/// (m=8, k=F, n=hidden), full-dataset eval (m=rows), the perfbench sweep's
/// Dense(10->3) forward at batch 8 and over its 1200-row accuracy pass, and
/// a square reference point. Args: {m, k, n}.
void BM_Gemm(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  util::Rng rng{1};
  const Tensor a = tensor::uniform(Shape{m, k}, -1, 1, rng);
  const Tensor b = tensor::uniform(Shape{k, n}, -1, 1, rng);
  Tensor c{Shape{m, n}};
  for (auto _ : state) {
    tensor::matmul_into(a, b, c);
    benchmark::DoNotOptimize(c.data().data());
  }
}
BENCHMARK(BM_Gemm)
    ->Args({8, 10, 10})     // batch forward, F=10 hidden 10
    ->Args({8, 110, 10})    // batch forward, F=110 hidden 10
    ->Args({300, 110, 10})  // full-dataset eval forward
    ->Args({128, 128, 128})
    ->Args({8, 10, 3})      // perfbench: Dense(10->3) batch forward
    ->Args({1200, 10, 3});  // perfbench: Dense(10->3) accuracy pass

/// dW = Xᵀ·dY accumulation (the backward transpose-A case). Args: {batch, in,
/// out}.
void BM_GemmTransposeA(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto in = static_cast<std::size_t>(state.range(1));
  const auto out = static_cast<std::size_t>(state.range(2));
  util::Rng rng{2};
  const Tensor x = tensor::uniform(Shape{batch, in}, -1, 1, rng);
  const Tensor g = tensor::uniform(Shape{batch, out}, -1, 1, rng);
  Tensor dw{Shape{in, out}};
  for (auto _ : state) {
    tensor::matmul_transpose_a_into(x, g, dw, /*accumulate=*/true);
    benchmark::DoNotOptimize(dw.data().data());
  }
}
BENCHMARK(BM_GemmTransposeA)
    ->Args({8, 110, 10})
    ->Args({8, 10, 10})
    ->Args({8, 10, 3});  // perfbench: Dense(10->3) dW

/// dX = dY·Wᵀ (the backward transpose-B case). Args: {batch, in, out}.
void BM_GemmTransposeB(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto in = static_cast<std::size_t>(state.range(1));
  const auto out = static_cast<std::size_t>(state.range(2));
  util::Rng rng{3};
  const Tensor g = tensor::uniform(Shape{batch, out}, -1, 1, rng);
  const Tensor w = tensor::uniform(Shape{in, out}, -1, 1, rng);
  Tensor dx{Shape{batch, in}};
  for (auto _ : state) {
    tensor::matmul_transpose_b_into(g, w, dx);
    benchmark::DoNotOptimize(dx.data().data());
  }
}
BENCHMARK(BM_GemmTransposeB)
    ->Args({8, 110, 10})
    ->Args({8, 10, 10})
    ->Args({8, 3, 3});  // perfbench: Dense(3->3) dX

void BM_DenseForward(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  util::Rng rng{1};
  nn::Dense layer{width, width, rng};
  const Tensor x = tensor::uniform(Shape{8, width}, -1, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.forward(x).data().data());
  }
}
BENCHMARK(BM_DenseForward)->RangeMultiplier(4)->Range(4, 256);

void BM_DenseForwardBackward(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  util::Rng rng{2};
  nn::Dense layer{width, width, rng};
  const Tensor x = tensor::uniform(Shape{8, width}, -1, 1, rng);
  const Tensor g = tensor::uniform(Shape{8, width}, -1, 1, rng);
  for (auto _ : state) {
    layer.zero_grad();
    layer.forward(x);
    benchmark::DoNotOptimize(layer.backward(g).data().data());
  }
}
BENCHMARK(BM_DenseForwardBackward)->RangeMultiplier(4)->Range(4, 256);

/// One optimizer step on a batch for a classical [10,10] model at F=110 —
/// the training inner loop of the classical searches, on the zero-allocation
/// workspace fast path (the one train_classifier actually uses).
void BM_ClassicalTrainStep(benchmark::State& state) {
  util::Rng rng{3};
  qnn::ClassicalConfig config;
  config.features = 110;
  config.hidden = {10, 10};
  auto model = qnn::build_classical_model(config, rng);
  auto workspace = nn::TrainWorkspace::compile(*model, 8, 8);
  nn::Adam optimizer{1e-3};
  const Tensor x = tensor::uniform(Shape{8, 110}, -1, 1, rng);
  const std::vector<std::size_t> y{0, 1, 2, 0, 1, 2, 0, 1};
  const std::vector<std::size_t> rows{0, 1, 2, 3, 4, 5, 6, 7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(workspace->train_step(x, y, rows, optimizer));
  }
}
BENCHMARK(BM_ClassicalTrainStep);

/// The same training step through the Module path — the before/after
/// counterpart of BM_ClassicalTrainStep (the name predates the Module
/// path's rename and is kept because BENCH_micro.json records it).
void BM_ReferenceTrainStep(benchmark::State& state) {
  util::Rng rng{3};
  qnn::ClassicalConfig config;
  config.features = 110;
  config.hidden = {10, 10};
  auto model = qnn::build_classical_model(config, rng);
  nn::Adam optimizer{1e-3};
  nn::SoftmaxCrossEntropy loss;
  const Tensor x = tensor::uniform(Shape{8, 110}, -1, 1, rng);
  const std::vector<std::size_t> y{0, 1, 2, 0, 1, 2, 0, 1};
  for (auto _ : state) {
    model->zero_grad();
    const Tensor logits = model->forward(x);
    const auto result = loss.evaluate(logits, y);
    model->backward(result.grad);
    optimizer.step(model->parameters());
    benchmark::DoNotOptimize(result.value);
  }
}
BENCHMARK(BM_ReferenceTrainStep);

/// End-to-end candidate training (train_classifier: batches + epoch evals)
/// at search scale. Arg 0: feature count F. Arg 1 is always 0 (the
/// workspace fast path); it stays so the names match the committed
/// BENCH_micro.json baseline.
void BM_CandidateTrain(benchmark::State& state) {
  const auto features = static_cast<std::size_t>(state.range(0));
  util::Rng rng{5};
  constexpr std::size_t kTrainRows = 100, kValRows = 25, kClasses = 3;
  const Tensor x_train =
      tensor::uniform(Shape{kTrainRows, features}, -1, 1, rng);
  const Tensor x_val = tensor::uniform(Shape{kValRows, features}, -1, 1, rng);
  std::vector<std::size_t> y_train(kTrainRows), y_val(kValRows);
  for (std::size_t i = 0; i < kTrainRows; ++i) y_train[i] = i % kClasses;
  for (std::size_t i = 0; i < kValRows; ++i) y_val[i] = i % kClasses;

  qnn::ClassicalConfig config;
  config.features = features;
  config.hidden = {10, 10};
  nn::TrainConfig train_config;
  train_config.epochs = 3;
  train_config.batch_size = 8;

  for (auto _ : state) {
    util::Rng run_rng{7};
    auto model = qnn::build_classical_model(config, run_rng);
    nn::Adam optimizer{1e-3};
    const auto history =
        nn::train_classifier(*model, optimizer, x_train, y_train, x_val,
                             y_val, train_config, run_rng);
    benchmark::DoNotOptimize(history.best_val_accuracy);
  }
}
BENCHMARK(BM_CandidateTrain)->Args({10, 0})->Args({110, 0});

/// Same for the hybrid SEL(3,2) model at F=110 — quantifies the simulation
/// overhead per training step relative to BM_ClassicalTrainStep.
void BM_HybridTrainStep(benchmark::State& state) {
  util::Rng rng{4};
  qnn::HybridConfig config;
  config.features = 110;
  config.qubits = 3;
  config.depth = 2;
  config.ansatz = qnn::AnsatzKind::StronglyEntangling;
  auto model = qnn::build_hybrid_model(config, rng);
  nn::Adam optimizer{1e-3};
  nn::SoftmaxCrossEntropy loss;
  const Tensor x = tensor::uniform(Shape{8, 110}, -1, 1, rng);
  const std::vector<std::size_t> y{0, 1, 2, 0, 1, 2, 0, 1};
  for (auto _ : state) {
    model->zero_grad();
    const Tensor logits = model->forward(x);
    const auto result = loss.evaluate(logits, y);
    model->backward(result.grad);
    optimizer.step(model->parameters());
    benchmark::DoNotOptimize(result.value);
  }
}
BENCHMARK(BM_HybridTrainStep);

void BM_SoftmaxCrossEntropy(benchmark::State& state) {
  util::Rng rng{5};
  nn::SoftmaxCrossEntropy loss;
  const Tensor logits = tensor::uniform(Shape{64, 3}, -2, 2, rng);
  std::vector<std::size_t> y(64);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = i % 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(loss.evaluate(logits, y).value);
  }
}
BENCHMARK(BM_SoftmaxCrossEntropy);

/// The allocation-free fused loss core used by the workspace trainer
/// (forward + gradient straight into a preallocated buffer).
void BM_FusedSoftmaxXent(benchmark::State& state) {
  util::Rng rng{6};
  const Tensor logits = tensor::uniform(Shape{64, 3}, -2, 2, rng);
  std::vector<std::size_t> y(64);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = i % 3;
  std::vector<double> grad(64 * 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::detail::softmax_xent_forward_grad(
        logits.data().data(), 64, 3, y.data(), grad.data()));
  }
}
BENCHMARK(BM_FusedSoftmaxXent);

void BM_AdamStep(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  nn::Parameter p{"w", Tensor::zeros(Shape{size})};
  p.grad.fill(0.01);
  nn::Adam optimizer{1e-3};
  for (auto _ : state) {
    optimizer.step({&p});
    benchmark::DoNotOptimize(p.value.data().data());
  }
}
BENCHMARK(BM_AdamStep)->RangeMultiplier(8)->Range(64, 4096);

// ---------------------------------------------------------------------------
// Per-backend GEMM variants, registered dynamically as
// `BM_GemmPacked@<backend>/<size>` for every supported backend (the name
// predates the one row-blocked path and is kept because BENCH_micro.json
// gates it). At size 256 the registry-dispatched
// gemm_rows op's full 4x8 tiles dominate the timing.
// tools/check_bench_regression.py understands the `@<backend>` suffix and
// compares like-for-like.

void run_gemm_packed_backend(benchmark::State& state,
                             const std::string& backend) {
  util::simd::set_backend(backend);
  const auto size = static_cast<std::size_t>(state.range(0));
  util::Rng rng{1};
  const Tensor a = tensor::uniform(Shape{size, size}, -1, 1, rng);
  const Tensor b = tensor::uniform(Shape{size, size}, -1, 1, rng);
  Tensor c{Shape{size, size}};
  for (auto _ : state) {
    tensor::matmul_into(a, b, c);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations());
  util::simd::set_backend(std::nullopt);
}

void register_backend_variants() {
  for (const util::simd::Backend* backend : util::simd::backends()) {
    if (!backend->supported()) continue;
    const std::string name = backend->name;
    benchmark::RegisterBenchmark(
        ("BM_GemmPacked@" + name).c_str(),
        [name](benchmark::State& state) {
          run_gemm_packed_backend(state, name);
        })
        ->Arg(256);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_backend_variants();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

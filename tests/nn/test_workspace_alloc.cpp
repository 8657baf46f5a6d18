// Steady-state allocation test for the workspace trainer: after warm-up
// (first train step builds Adam slots and the GEMM packing scratch; the
// quantum stage sizes its state buffers), a train_step / evaluate_accuracy
// cycle must perform ZERO heap allocations — for a classical MLP and for a
// paper hybrid.
//
// Enforced with a counting replacement of the global allocation functions.
// The replacement is binary-wide, so this translation unit only counts —
// behavior is plain malloc/free — and the test asserts on count deltas
// around the measured region.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "nn/workspace.hpp"
#include "qnn/hybrid_model.hpp"
#include "qnn/quantum_layer.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocation_count{0};

void* counted_alloc(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace qhdl::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

constexpr std::size_t kRows = 64, kFeatures = 10, kClasses = 2;
constexpr std::size_t kBatch = 8;

void make_data(util::Rng& rng, Tensor& x, std::vector<std::size_t>& y) {
  x = Tensor{Shape{kRows, kFeatures}};
  y.resize(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t j = 0; j < kFeatures; ++j) {
      x.at(i, j) = rng.uniform(-1.0, 1.0);
    }
    y[i] = i % kClasses;
  }
}

/// Warms `model`'s workspace up, then counts the heap allocations of 50
/// train_step (full and tail batch) + evaluate_accuracy cycles.
void expect_steady_state_allocation_free(Sequential& model,
                                         const Tensor& x,
                                         const std::vector<std::size_t>& y) {
  auto workspace = TrainWorkspace::compile(model, kBatch, kRows);
  ASSERT_NE(workspace, nullptr);
  Adam optimizer{1e-3};

  // Full batch and an odd tail batch, both exercised in the steady state.
  std::vector<std::size_t> full_batch(kBatch), tail_batch(kBatch / 2);
  for (std::size_t i = 0; i < full_batch.size(); ++i) full_batch[i] = i;
  for (std::size_t i = 0; i < tail_batch.size(); ++i) {
    tail_batch[i] = kRows - 1 - i;
  }

  // Warm-up: Adam slot tensors, GEMM packing scratch (thread_local), and
  // any one-time lazy state inside the measured call chain.
  for (int i = 0; i < 3; ++i) {
    workspace->train_step(x, y, full_batch, optimizer);
    workspace->train_step(x, y, tail_batch, optimizer);
    workspace->evaluate_accuracy(x, y);
  }

  const std::uint64_t before =
      g_allocation_count.load(std::memory_order_relaxed);
  double sink = 0.0;
  for (int i = 0; i < 50; ++i) {
    sink += workspace->train_step(x, y, full_batch, optimizer);
    sink += workspace->train_step(x, y, tail_batch, optimizer);
    sink += workspace->evaluate_accuracy(x, y);
  }
  const std::uint64_t after =
      g_allocation_count.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u) << "train loop allocated on the steady state";
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(WorkspaceAlloc, TrainStepAndEvalAreAllocationFreeAfterWarmup) {
  util::Rng rng{71};
  Tensor x;
  std::vector<std::size_t> y;
  make_data(rng, x, y);

  Sequential model;
  model.emplace<Dense>(kFeatures, 10, rng);
  model.emplace<Tanh>();
  model.emplace<Dense>(10, 10, rng);
  model.emplace<ReLU>();
  model.emplace<Dense>(10, kClasses, rng);
  expect_steady_state_allocation_free(model, x, y);
}

// The quantum stage too: forward states, packed rows, the VJP gradient and
// the adjoint sweep's scratch are all resized in place.
TEST(WorkspaceAlloc, HybridTrainStepAndEvalAreAllocationFreeAfterWarmup) {
  util::Rng rng{73};
  Tensor x;
  std::vector<std::size_t> y;
  make_data(rng, x, y);

  qnn::HybridConfig config;
  config.features = kFeatures;
  config.qubits = 3;
  config.depth = 2;
  config.ansatz = qnn::AnsatzKind::StronglyEntangling;
  config.classes = kClasses;
  const auto model = qnn::build_hybrid_model(config, rng);
  expect_steady_state_allocation_free(*model, x, y);
}

// A finite-shot layer samples each row where it lies in the kept forward
// batch, through the layer's CDF scratch.
TEST(WorkspaceAlloc, FiniteShotHybridIsAllocationFreeAfterWarmup) {
  util::Rng rng{79};
  Tensor x;
  std::vector<std::size_t> y;
  make_data(rng, x, y);

  qnn::QuantumLayerConfig quantum;
  quantum.qubits = 3;
  quantum.depth = 2;
  quantum.ansatz = qnn::AnsatzKind::StronglyEntangling;
  quantum.shots = 64;
  Sequential model;
  model.emplace<Dense>(kFeatures, quantum.qubits, rng);
  model.emplace<Tanh>(quantum.qubits);
  model.emplace<qnn::QuantumLayer>(quantum, rng);
  model.emplace<Dense>(quantum.qubits, kClasses, rng);
  expect_steady_state_allocation_free(model, x, y);
}

}  // namespace
}  // namespace qhdl::nn

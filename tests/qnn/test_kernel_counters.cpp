// kernel.* counters are tallied per plan run (quantum/kernels.hpp): inside
// ExecutionPlan::run_batch and the adjoint reverse sweep a thread counts in
// thread-local integers and adds them into the registry when the run ends.
// These tests pin that the values a caller reads after a call returns are
// exactly what per-gate bumps gave, and that a run left by an exception
// still lands its counts.
#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>

#include "qnn/quantum_layer.hpp"
#include "quantum/kernels.hpp"
#include "quantum/statevector_batch.hpp"
#include "tensor/tensor.hpp"
#include "test_helpers.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace qhdl::qnn {
namespace {

constexpr std::array<const char*, 9> kCounters = {
    "kernel.diagonal",    "kernel.permutation", "kernel.controlled",
    "kernel.double_flip", "kernel.generic",     "kernel.two_qubit_dense",
    "kernel.fused",       "kernel.fused_gates", "kernel.batched_rows"};

using Deltas = std::array<std::uint64_t, kCounters.size()>;

Deltas read_counters() {
  const util::MetricsSnapshot snapshot = util::Metrics::global().snapshot();
  Deltas values{};
  for (std::size_t i = 0; i < kCounters.size(); ++i) {
    values[i] = snapshot.at(kCounters[i]);
  }
  return values;
}

/// kernel.* deltas of one forward + backward of a q = 3, d = 2 layer on a
/// batch of 8 rows.
Deltas layer_step_deltas(AnsatzKind kind, std::size_t threads) {
  util::Rng rng{29};
  QuantumLayerConfig config;
  config.qubits = 3;
  config.depth = 2;
  config.ansatz = kind;
  config.threads = threads;
  QuantumLayer layer{config, rng};
  tensor::Tensor input{tensor::Shape{8, 3}};
  tensor::Tensor grad{tensor::Shape{8, 3}};
  for (double& v : input.data()) v = rng.uniform(-1.0, 1.0);
  for (double& v : grad.data()) v = rng.uniform(-1.0, 1.0);

  const Deltas before = read_counters();
  layer.forward(input);
  layer.backward(grad);
  const Deltas after = read_counters();
  Deltas deltas{};
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    deltas[i] = after[i] - before[i];
  }
  return deltas;
}

void expect_deltas(const Deltas& got, const Deltas& want,
                   const std::string& label) {
  for (std::size_t i = 0; i < kCounters.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << label << " " << kCounters[i];
  }
}

// The values per-gate bumps gave for these steps. Each thread chunk runs
// its own plan, so 3 threads (chunks of 3, 3 and 2 rows) dispatch every
// gate three times over the same 8 rows.
TEST(KernelCounters, LayerStepDeltasMatchPerGateBumps) {
  //                 diag perm ctrl dflip gen 2q fused f_gates rows
  expect_deltas(layer_step_deltas(AnsatzKind::BasicEntangler, 1),
                {0, 18, 0, 0, 32, 0, 3, 6, 400}, "BEL threads 1");
  expect_deltas(layer_step_deltas(AnsatzKind::BasicEntangler, 3),
                {0, 54, 0, 0, 96, 0, 9, 18, 400}, "BEL threads 3");
  expect_deltas(layer_step_deltas(AnsatzKind::StronglyEntangling, 1),
                {36, 18, 0, 0, 32, 0, 6, 21, 688}, "SEL threads 1");
  expect_deltas(layer_step_deltas(AnsatzKind::StronglyEntangling, 3),
                {108, 54, 0, 0, 96, 0, 18, 63, 688}, "SEL threads 3");
}

TEST(KernelCounters, ScopeTalliesUntilItCloses) {
  quantum::StateVectorBatch batch{2, 4};
  const std::uint64_t before = testing::global_count("kernel.permutation");
  {
    const quantum::kernels::TallyScope outer;
    {
      const quantum::kernels::TallyScope inner;
      batch.apply_pauli_x(0);
    }
    // A nested scope leaves the counts with the outermost one.
    EXPECT_EQ(testing::global_count("kernel.permutation"), before);
    batch.apply_pauli_x(1);
  }
  EXPECT_EQ(testing::global_count("kernel.permutation"), before + 2);
  // Outside any scope a kernel bumps the registry at once.
  batch.apply_pauli_x(0);
  EXPECT_EQ(testing::global_count("kernel.permutation"), before + 3);
}

TEST(KernelCounters, ScopeLeftByAnExceptionStillFlushes) {
  quantum::StateVectorBatch batch{2, 4};
  const std::uint64_t permutations =
      testing::global_count("kernel.permutation");
  const std::uint64_t rows = testing::global_count("kernel.batched_rows");
  EXPECT_THROW(
      {
        const quantum::kernels::TallyScope scope;
        batch.apply_pauli_x(0);
        EXPECT_EQ(testing::global_count("kernel.permutation"), permutations);
        batch.apply_cnot(0, 0);  // equal wires: throws before it counts
      },
      std::invalid_argument);
  EXPECT_EQ(testing::global_count("kernel.permutation"), permutations + 1);
  EXPECT_EQ(testing::global_count("kernel.batched_rows"), rows + 4);
}

}  // namespace
}  // namespace qhdl::qnn

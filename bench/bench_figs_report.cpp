// Figure-level benchmark report: times the hybrid-layer workloads the
// figures lean on (batch forward/backward, adjoint VJP) under the active
// kernel backend and under the reference backend, and writes
// BENCH_figs.json via the shared JSON reporter — the figure-scale
// counterpart of tools/bench_report.py's BENCH_micro.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/json_report.hpp"
#include "qnn/ansatz.hpp"
#include "qnn/encoding.hpp"
#include "qnn/quantum_layer.hpp"
#include "quantum/adjoint_diff.hpp"
#include "quantum/circuit.hpp"
#include "quantum/observable.hpp"
#include "quantum/statevector.hpp"
#include "tensor/tensor.hpp"
#include "util/backend_registry.hpp"
#include "util/cli.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace qhdl;

// Two execution modes per workload: the active backend (fused plans and
// specialized kernels) and the reference backend (unfused generic kernels).
struct BenchMode {
  const char* suffix;
  const char* backend;  ///< nullptr = env/build/auto selection
};

constexpr BenchMode kModes[] = {
    {"", nullptr},
    {"_reference", "reference"},
};

void apply_mode(const BenchMode& mode) {
  if (mode.backend == nullptr) {
    util::simd::set_backend(std::nullopt);
  } else {
    util::simd::set_backend(mode.backend);
  }
}

double median(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Times `fn` under every mode with the modes INTERLEAVED per repetition
/// round, then reports each mode's median ns/call. Interleaving matters:
/// this machine's clock drifts several percent over a bench run, so timing
/// one mode to completion before the next would fold that drift into the
/// mode comparison; alternating modes within each round makes adjacent
/// samples share thermal/frequency conditions so the drift cancels in the
/// medians. Each sample is a timed block of `inner` calls preceded by one
/// untimed call — the warm call restores branch predictors and caches
/// after the mode switch, and the block amortizes timer granularity.
std::vector<bench::BenchEntry> time_workload_all_modes(
    const std::string& name, std::size_t repeat, std::size_t inner,
    double amps_per_op, const std::function<void()>& fn) {
  for (const BenchMode& mode : kModes) {
    apply_mode(mode);
    fn();  // warm-up (also primes thread-local scratch and the plan memo)
  }
  std::vector<std::vector<double>> samples(std::size(kModes));
  for (std::size_t r = 0; r < repeat; ++r) {
    for (std::size_t m = 0; m < std::size(kModes); ++m) {
      apply_mode(kModes[m]);
      fn();
      const auto begin = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < inner; ++i) fn();
      const auto end = std::chrono::steady_clock::now();
      samples[m].push_back(
          std::chrono::duration<double, std::nano>(end - begin).count() /
          static_cast<double>(inner));
    }
  }
  std::vector<bench::BenchEntry> entries;
  for (std::size_t m = 0; m < std::size(kModes); ++m) {
    bench::BenchEntry entry;
    entry.name = name + kModes[m].suffix;
    entry.ns_per_op = median(samples[m]);
    if (amps_per_op > 0.0) {
      entry.amps_per_sec = amps_per_op / (entry.ns_per_op * 1e-9);
    }
    entries.push_back(entry);
  }
  return entries;
}

struct LayerWorkload {
  qnn::QuantumLayer layer;
  tensor::Tensor input;
  tensor::Tensor upstream;
  double amps_per_call = 0.0;
};

// Scalar (per-sample) workload over the raw circuit: the path taken by
// parameter-shift, shots, and noisy evaluation, where every run() call
// re-lowered the op stream before compiled plans existed.
struct ScalarWorkload {
  quantum::Circuit circuit;
  std::vector<double> params;
  std::vector<quantum::Observable> observables;
  std::vector<double> upstream;
  double amps_per_call = 0.0;
};

ScalarWorkload make_scalar_workload(std::size_t qubits, std::size_t depth,
                                    util::Rng& rng) {
  ScalarWorkload workload{quantum::Circuit{qubits}, {}, {}, {}, 0.0};
  qnn::AngleEncoding encoding;
  std::size_t count = encoding.append(workload.circuit, qubits);
  count += qnn::append_ansatz(workload.circuit,
                              qnn::AnsatzKind::StronglyEntangling, qubits,
                              depth, count);
  workload.params = rng.uniform_vector(count, -2.0, 2.0);
  for (std::size_t w = 0; w < qubits; ++w) {
    workload.observables.push_back(quantum::Observable::pauli_z(w));
    workload.upstream.push_back(rng.uniform(-1.0, 1.0));
  }
  workload.amps_per_call =
      static_cast<double>(workload.circuit.op_count()) *
      static_cast<double>(std::size_t{1} << qubits);
  return workload;
}

LayerWorkload make_layer_workload(std::size_t qubits, std::size_t depth,
                                  std::size_t batch, util::Rng& rng) {
  qnn::QuantumLayerConfig config;
  config.qubits = qubits;
  config.depth = depth;
  config.threads = 1;
  LayerWorkload workload{qnn::QuantumLayer{config, rng},
                         tensor::Tensor{tensor::Shape{batch, qubits}},
                         tensor::Tensor{tensor::Shape{batch, qubits}}, 0.0};
  for (std::size_t i = 0; i < workload.input.size(); ++i) {
    workload.input[i] = rng.uniform(-1.0, 1.0);
    workload.upstream[i] = rng.uniform(-1.0, 1.0);
  }
  workload.amps_per_call =
      static_cast<double>(batch) *
      static_cast<double>(workload.layer.executor().circuit().op_count()) *
      static_cast<double>(std::size_t{1} << qubits);
  return workload;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli{"bench_figs_report",
                "Times figure-level hybrid workloads under the active and "
                "the reference kernel backend and writes BENCH_figs.json"};
  cli.add_string("out", "BENCH_figs.json", "output JSON path");
  cli.add_int("repeat", 9, "timed repetitions per workload");
  if (!cli.parse(argc, argv)) return 0;
  const std::string out_path = cli.get_string("out");
  const auto repeat = static_cast<std::size_t>(cli.get_int("repeat"));

  util::Rng rng{29};
  std::vector<bench::BenchEntry> entries;

  const auto push_all = [&](std::vector<bench::BenchEntry> batch) {
    for (bench::BenchEntry& entry : batch) {
      entries.push_back(std::move(entry));
    }
  };

  auto sel5 = make_layer_workload(5, 10, 16, rng);
  push_all(time_workload_all_modes(
      "figs/sel_q5_d10_b16_forward", repeat, 16, sel5.amps_per_call,
      [&] { sel5.layer.forward(sel5.input); }));
  // Repeated backward() after one forward(): every call past the first
  // re-simulates the forward, since the first one spends the kept state.
  sel5.layer.forward(sel5.input);
  push_all(time_workload_all_modes(
      "figs/sel_q5_d10_b16_backward", repeat, 4, sel5.amps_per_call,
      [&] { sel5.layer.backward(sel5.upstream); }));
  // A training step's layer work: backward() starts from the state its
  // forward() kept, so the batch is simulated once.
  push_all(time_workload_all_modes(
      "figs/sel_q5_d10_b16_forward_backward", repeat, 4, sel5.amps_per_call,
      [&] {
        sel5.layer.forward(sel5.input);
        sel5.layer.backward(sel5.upstream);
      }));

  auto sel8 = make_layer_workload(8, 2, 16, rng);
  push_all(time_workload_all_modes(
      "figs/sel_q8_d2_b16_forward", repeat, 8, sel8.amps_per_call,
      [&] { sel8.layer.forward(sel8.input); }));

  // Scalar per-sample path (parameter-shift / shots / noise route).
  auto scalar5 = make_scalar_workload(5, 10, rng);
  push_all(time_workload_all_modes(
      "figs/sel_q5_d10_scalar_forward", repeat, 64, scalar5.amps_per_call,
      [&] {
        quantum::StateVector state{5};
        scalar5.circuit.run(state, scalar5.params);
      }));
  push_all(time_workload_all_modes(
      "figs/sel_q5_d10_scalar_backward", repeat, 24, scalar5.amps_per_call,
      [&] {
        quantum::adjoint_vjp(scalar5.circuit, scalar5.params,
                             scalar5.observables, scalar5.upstream);
      }));

  // Small-state scalar workload: at q3 the per-op bookkeeping is
  // comparable to the kernel arithmetic, so this is where compiled plans
  // buy the most throughput (~10% on this machine).
  auto scalar3 = make_scalar_workload(3, 10, rng);
  push_all(time_workload_all_modes(
      "figs/sel_q3_d10_scalar_forward", repeat, 128, scalar3.amps_per_call,
      [&] {
        quantum::StateVector state{3};
        scalar3.circuit.run(state, scalar3.params);
      }));

  // The end-to-end study's layer shape (3 qubits, depth 2, batch 8); made
  // last so the workloads above keep their random inputs.
  auto sel3 = make_layer_workload(3, 2, 8, rng);
  push_all(time_workload_all_modes(
      "figs/sel_q3_d2_b8_forward_backward", repeat, 64, sel3.amps_per_call,
      [&] {
        sel3.layer.forward(sel3.input);
        sel3.layer.backward(sel3.upstream);
      }));

  util::simd::set_backend(std::nullopt);

  bench::write_bench_json(out_path, bench::collect_metadata(), entries);
  std::printf("wrote %s (%zu workloads)\n", out_path.c_str(),
              entries.size());
  std::printf("%s\n",
              util::Metrics::global().snapshot().to_string().c_str());
  return 0;
}

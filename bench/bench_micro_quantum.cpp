// Micro-benchmarks of the quantum-simulation substrate (google-benchmark).
// These quantify the "simulation overhead" the paper's argument leans on:
// gate application and adjoint differentiation scale exponentially with the
// qubit count on classical hardware.
#include <string>

#include <benchmark/benchmark.h>

#include "qnn/ansatz.hpp"
#include "qnn/encoding.hpp"
#include "qnn/quantum_layer.hpp"
#include "quantum/adjoint_diff.hpp"
#include "quantum/parameter_shift.hpp"
#include "quantum/statevector_batch.hpp"
#include "tensor/tensor.hpp"
#include "util/backend_registry.hpp"
#include "util/rng.hpp"

namespace {

using namespace qhdl;
using quantum::Circuit;
using quantum::GateType;
using quantum::Observable;
using quantum::StateVector;

void BM_SingleQubitGate(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  StateVector sv{qubits};
  const quantum::Mat2 gate = quantum::gates::rx(0.73);
  std::size_t wire = 0;
  for (auto _ : state) {
    sv.apply_single_qubit(gate, wire);
    wire = (wire + 1) % qubits;
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SingleQubitGate)->DenseRange(2, 12, 2);

void BM_Cnot(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  StateVector sv{qubits};
  sv.apply_single_qubit(quantum::gates::hadamard(), 0);
  for (auto _ : state) {
    sv.apply_cnot(0, 1);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
}
BENCHMARK(BM_Cnot)->DenseRange(2, 12, 2);

void BM_ExpvalZ(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  StateVector sv{qubits};
  sv.apply_single_qubit(quantum::gates::ry(0.9), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sv.expval_pauli_z(0));
  }
}
BENCHMARK(BM_ExpvalZ)->DenseRange(2, 12, 2);

Circuit make_sel_circuit(std::size_t qubits, std::size_t depth,
                         std::vector<double>& params) {
  Circuit circuit{qubits};
  qnn::AngleEncoding encoding;
  std::size_t offset = encoding.append(circuit, qubits);
  offset += qnn::append_ansatz(circuit, qnn::AnsatzKind::StronglyEntangling,
                               qubits, depth, offset);
  util::Rng rng{7};
  params = rng.uniform_vector(offset, -1.0, 1.0);
  return circuit;
}

void BM_SelForward(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  std::vector<double> params;
  const Circuit circuit = make_sel_circuit(qubits, 2, params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit.execute(params).amplitudes().data());
  }
}
BENCHMARK(BM_SelForward)->DenseRange(2, 10, 2);

void BM_SelAdjointVjp(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  std::vector<double> params;
  const Circuit circuit = make_sel_circuit(qubits, 2, params);
  std::vector<Observable> observables;
  std::vector<double> upstream;
  for (std::size_t w = 0; w < qubits; ++w) {
    observables.push_back(Observable::pauli_z(w));
    upstream.push_back(0.5);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        quantum::adjoint_vjp(circuit, params, observables, upstream)
            .gradient.data());
  }
}
BENCHMARK(BM_SelAdjointVjp)->DenseRange(2, 10, 2);

void BM_SelParameterShift(benchmark::State& state) {
  // The hardware-style gradient: cost grows with PARAMETER count on top of
  // the state-vector cost — compare against BM_SelAdjointVjp.
  const auto qubits = static_cast<std::size_t>(state.range(0));
  std::vector<double> params;
  const Circuit circuit = make_sel_circuit(qubits, 2, params);
  const Observable obs = Observable::pauli_z(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        quantum::parameter_shift_gradient(circuit, params, obs).data());
  }
}
BENCHMARK(BM_SelParameterShift)->DenseRange(2, 8, 2);

void BM_QuantumLayerBatchForward(benchmark::State& state) {
  // Batch-parallel hybrid-layer forward on the shared thread pool; the
  // argument is the thread count. The pool is persistent, so per-call
  // dispatch overhead stays flat while wall time drops with cores
  // (ThreadsPerBatch=1 is the serial baseline).
  const auto threads = static_cast<std::size_t>(state.range(0));
  qnn::QuantumLayerConfig config;
  config.qubits = 8;
  config.depth = 2;
  config.threads = threads;
  util::Rng rng{11};
  qnn::QuantumLayer layer{config, rng};
  const std::size_t batch = 16;
  tensor::Tensor input{tensor::Shape{batch, config.qubits}};
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = rng.uniform(-1.0, 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.forward(input));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_QuantumLayerBatchForward)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_RzGate(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  StateVector sv{qubits};
  sv.apply_single_qubit(quantum::gates::hadamard(), 0);
  std::size_t wire = 0;
  for (auto _ : state) {
    quantum::apply_gate(sv, GateType::RZ, 0.41, wire);
    wire = (wire + 1) % qubits;
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.counters["amps_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(sv.dimension()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RzGate)->DenseRange(4, 12, 4);

void BM_SelForwardFused(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  std::vector<double> params;
  const Circuit circuit = make_sel_circuit(qubits, 2, params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit.execute(params).amplitudes().data());
  }
  state.counters["amps_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(circuit.op_count()) *
          static_cast<double>(std::size_t{1} << qubits),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SelForwardFused)->DenseRange(2, 10, 2);

/// The headline layer workload: SEL, 5 qubits, depth 10, batch 16, one
/// thread.
void BM_QuantumLayerForward5qD10(benchmark::State& state) {
  qnn::QuantumLayerConfig config;
  config.qubits = 5;
  config.depth = 10;
  config.threads = 1;
  util::Rng rng{11};
  qnn::QuantumLayer layer{config, rng};
  const std::size_t batch = 16;
  tensor::Tensor input{tensor::Shape{batch, config.qubits}};
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = rng.uniform(-1.0, 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.forward(input));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
  state.counters["amps_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(batch) *
          static_cast<double>(layer.executor().circuit().op_count()) *
          static_cast<double>(std::size_t{1} << config.qubits),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_QuantumLayerForward5qD10);

void BM_QuantumLayerBackward5qD10(benchmark::State& state) {
  qnn::QuantumLayerConfig config;
  config.qubits = 5;
  config.depth = 10;
  config.threads = 1;
  util::Rng rng{11};
  qnn::QuantumLayer layer{config, rng};
  const std::size_t batch = 16;
  tensor::Tensor input{tensor::Shape{batch, config.qubits}};
  tensor::Tensor upstream{tensor::Shape{batch, config.qubits}};
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = rng.uniform(-1.0, 1.0);
    upstream[i] = rng.uniform(-1.0, 1.0);
  }
  benchmark::DoNotOptimize(layer.forward(input));
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.backward(upstream));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_QuantumLayerBackward5qD10);

void BM_SelAdjointVsDepth(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  std::vector<double> params;
  const Circuit circuit = make_sel_circuit(4, depth, params);
  std::vector<Observable> observables;
  std::vector<double> upstream;
  for (std::size_t w = 0; w < 4; ++w) {
    observables.push_back(Observable::pauli_z(w));
    upstream.push_back(0.5);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        quantum::adjoint_vjp(circuit, params, observables, upstream)
            .gradient.data());
  }
}
BENCHMARK(BM_SelAdjointVsDepth)->DenseRange(1, 10, 3);

// ---------------------------------------------------------------------------
// Per-backend variants of the registry-dispatched kernels, registered
// dynamically as `BM_<Kernel>@<backend>/<qubits>` for every backend this
// machine supports. tools/check_bench_regression.py understands
// the `@<backend>` suffix and compares like-for-like, skipping backends the
// baseline runner could not measure.

/// Pins one backend for a benchmark's scope; restores env/build/auto on
/// exit.
class BackendGuard {
 public:
  explicit BackendGuard(const std::string& name) {
    util::simd::set_backend(name);
  }
  ~BackendGuard() { util::simd::set_backend(std::nullopt); }
};

void run_single_qubit_backend(benchmark::State& state,
                              const std::string& backend) {
  const BackendGuard guard{backend};
  const auto qubits = static_cast<std::size_t>(state.range(0));
  StateVector sv{qubits};
  const quantum::Mat2 gate = quantum::gates::rx(0.73);
  std::size_t wire = 0;
  for (auto _ : state) {
    sv.apply_single_qubit(gate, wire);
    wire = (wire + 1) % qubits;
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations());
}

void run_cnot_backend(benchmark::State& state, const std::string& backend) {
  const BackendGuard guard{backend};
  const auto qubits = static_cast<std::size_t>(state.range(0));
  StateVector sv{qubits};
  sv.apply_single_qubit(quantum::gates::hadamard(), 0);
  for (auto _ : state) {
    sv.apply_cnot(0, 1);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
}

void run_expval_backend(benchmark::State& state, const std::string& backend) {
  const BackendGuard guard{backend};
  const auto qubits = static_cast<std::size_t>(state.range(0));
  StateVector sv{qubits};
  sv.apply_single_qubit(quantum::gates::ry(0.9), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sv.expval_pauli_z(0));
  }
}

// --- batched SoA variants (DESIGN.md §14) ---------------------------------
// The batched kernels vectorize across batch lanes, so their speedup over
// generic is the PR-8 acceptance metric; batch 16 is eight AVX2 2-lane
// steps per amplitude row, and the layer-level forward measures the whole
// compiled batch pipeline end to end.

void run_single_qubit_batch_backend(benchmark::State& state,
                                    const std::string& backend) {
  const BackendGuard guard{backend};
  const auto qubits = static_cast<std::size_t>(state.range(0));
  const std::size_t batch = 16;
  quantum::StateVectorBatch sv{qubits, batch};
  const quantum::Mat2 gate = quantum::gates::rx(0.73);
  std::size_t wire = 0;
  for (auto _ : state) {
    sv.apply_single_qubit(gate, wire);
    wire = (wire + 1) % qubits;
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}

void run_single_qubit_rows_batch_backend(benchmark::State& state,
                                         const std::string& backend) {
  const BackendGuard guard{backend};
  const auto qubits = static_cast<std::size_t>(state.range(0));
  const std::size_t batch = 16;
  quantum::StateVectorBatch sv{qubits, batch};
  std::vector<quantum::Complex> m(4 * batch);
  for (std::size_t b = 0; b < batch; ++b) {
    quantum::store_lane(quantum::gates::rx(0.1 * static_cast<double>(b)),
                        m.data(), batch, b);
  }
  std::size_t wire = 0;
  for (auto _ : state) {
    sv.apply_single_qubit_per_row(m, wire);
    wire = (wire + 1) % qubits;
    benchmark::DoNotOptimize(sv.amplitudes().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}

void run_expval_batch_backend(benchmark::State& state,
                              const std::string& backend) {
  const BackendGuard guard{backend};
  const auto qubits = static_cast<std::size_t>(state.range(0));
  const std::size_t batch = 16;
  quantum::StateVectorBatch sv{qubits, batch};
  sv.apply_single_qubit(quantum::gates::ry(0.9), 0);
  std::vector<double> out(batch);
  for (auto _ : state) {
    sv.expval_pauli_z(0, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}

void run_adjoint_vjp_batch_backend(benchmark::State& state,
                                   const std::string& backend) {
  const BackendGuard guard{backend};
  const auto qubits = static_cast<std::size_t>(state.range(0));
  const std::size_t batch = 16;
  std::vector<double> proto;
  const Circuit circuit = make_sel_circuit(qubits, 2, proto);
  // Hybrid-layer parameter shape: per-row encoding angles, shared weights.
  util::Rng rng{13};
  std::vector<double> params(batch * proto.size());
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t p = 0; p < proto.size(); ++p) {
      params[b * proto.size() + p] =
          p < qubits ? rng.uniform(-1.0, 1.0) : proto[p];
    }
  }
  std::vector<Observable> observables;
  for (std::size_t w = 0; w < qubits; ++w) {
    observables.push_back(Observable::pauli_z(w));
  }
  std::vector<double> upstream(batch * qubits, 0.5);
  std::vector<double> gradient(batch * proto.size());
  for (auto _ : state) {
    quantum::adjoint_vjp_batch(circuit, params, proto.size(), batch,
                               observables, upstream, gradient);
    benchmark::DoNotOptimize(gradient.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}

void run_layer_batch_forward_backend(benchmark::State& state,
                                     const std::string& backend) {
  const BackendGuard guard{backend};
  qnn::QuantumLayerConfig config;
  config.qubits = 8;
  config.depth = 2;
  config.threads = 1;
  util::Rng rng{11};
  qnn::QuantumLayer layer{config, rng};
  const std::size_t batch = 16;
  tensor::Tensor input{tensor::Shape{batch, config.qubits}};
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = rng.uniform(-1.0, 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.forward(input));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}

void register_backend_variants() {
  for (const util::simd::Backend* backend : util::simd::backends()) {
    if (!backend->supported()) continue;
    const std::string name = backend->name;
    benchmark::RegisterBenchmark(
        ("BM_SingleQubitGate@" + name).c_str(),
        [name](benchmark::State& state) {
          run_single_qubit_backend(state, name);
        })
        ->Arg(10)
        ->Arg(12);
    benchmark::RegisterBenchmark(
        ("BM_Cnot@" + name).c_str(),
        [name](benchmark::State& state) { run_cnot_backend(state, name); })
        ->Arg(10)
        ->Arg(12);
    benchmark::RegisterBenchmark(
        ("BM_ExpvalZ@" + name).c_str(),
        [name](benchmark::State& state) { run_expval_backend(state, name); })
        ->Arg(10)
        ->Arg(12);
    benchmark::RegisterBenchmark(
        ("BM_SingleQubitBatch@" + name).c_str(),
        [name](benchmark::State& state) {
          run_single_qubit_batch_backend(state, name);
        })
        ->Arg(6)
        ->Arg(8);
    benchmark::RegisterBenchmark(
        ("BM_SingleQubitRowsBatch@" + name).c_str(),
        [name](benchmark::State& state) {
          run_single_qubit_rows_batch_backend(state, name);
        })
        ->Arg(6)
        ->Arg(8);
    benchmark::RegisterBenchmark(
        ("BM_ExpvalZBatch@" + name).c_str(),
        [name](benchmark::State& state) {
          run_expval_batch_backend(state, name);
        })
        ->Arg(6)
        ->Arg(8);
    benchmark::RegisterBenchmark(
        ("BM_AdjointVjpBatch@" + name).c_str(),
        [name](benchmark::State& state) {
          run_adjoint_vjp_batch_backend(state, name);
        })
        ->Arg(6);
    benchmark::RegisterBenchmark(
        ("BM_QuantumLayerBatchForward@" + name).c_str(),
        [name](benchmark::State& state) {
          run_layer_batch_forward_backend(state, name);
        });
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

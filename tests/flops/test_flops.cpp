#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "flops/profiler.hpp"
#include "qnn/hybrid_model.hpp"
#include "search/candidate.hpp"
#include "util/backend_registry.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace qhdl::flops {
namespace {

TEST(CostModel, DenseFormulas) {
  const CostModel cm;
  // Dense(10 -> 6): fwd = 2*10*6 + 6 = 126; bwd = 2*(2*10*6) + 6 = 246.
  EXPECT_DOUBLE_EQ(cm.dense_forward(10, 6), 126.0);
  EXPECT_DOUBLE_EQ(cm.dense_backward(10, 6), 246.0);
}

TEST(CostModel, ActivationAndSoftmax) {
  const CostModel cm;
  EXPECT_DOUBLE_EQ(cm.activation_forward_flops(8), 8.0);
  EXPECT_DOUBLE_EQ(cm.activation_backward_flops(8), 16.0);
  EXPECT_DOUBLE_EQ(cm.softmax_forward_flops(3), 12.0);
  EXPECT_DOUBLE_EQ(cm.softmax_ce_backward_flops(3), 3.0);
}

TEST(CostModel, QuantumGateCosts) {
  const CostModel cm;
  EXPECT_DOUBLE_EQ(cm.amplitudes(3), 8.0);
  // Rotation on 3 qubits: 14*8 + 8 = 120.
  EXPECT_DOUBLE_EQ(cm.rotation_gate_flops(3), 120.0);
  // Entanglers free by default.
  EXPECT_DOUBLE_EQ(cm.entangler_gate_flops(3), 0.0);
  EXPECT_DOUBLE_EQ(cm.expval_z_flops(3), 24.0);
}

TEST(CostModel, QuantumScalesExponentiallyWithQubits) {
  const CostModel cm;
  EXPECT_DOUBLE_EQ(cm.rotation_gate_flops(4) - cm.rotation_setup,
                   2.0 * (cm.rotation_gate_flops(3) - cm.rotation_setup));
}

nn::LayerInfo quantum_info(qnn::AnsatzKind ansatz, std::size_t qubits,
                           std::size_t depth) {
  const auto spec = search::ModelSpec::make_hybrid(qubits, depth, ansatz);
  const auto infos =
      search::spec_layer_infos(spec, 10, 3, qnn::Activation::Tanh);
  return infos[2];  // dense, tanh, quantum, dense
}

TEST(CostModel, EncodingDependsOnlyOnQubits) {
  const CostModel cm;
  const auto a = quantum_info(qnn::AnsatzKind::BasicEntangler, 3, 2);
  const auto b = quantum_info(qnn::AnsatzKind::BasicEntangler, 3, 9);
  EXPECT_DOUBLE_EQ(cm.quantum_encoding_forward(a),
                   cm.quantum_encoding_forward(b));
  EXPECT_DOUBLE_EQ(cm.quantum_encoding_backward(a),
                   cm.quantum_encoding_backward(b));
}

TEST(CostModel, QuantumCircuitGrowsWithDepth) {
  const CostModel cm;
  const auto shallow = quantum_info(qnn::AnsatzKind::BasicEntangler, 3, 1);
  const auto deep = quantum_info(qnn::AnsatzKind::BasicEntangler, 3, 5);
  EXPECT_GT(cm.quantum_circuit_forward(deep),
            cm.quantum_circuit_forward(shallow));
  EXPECT_GT(cm.quantum_circuit_backward(deep),
            cm.quantum_circuit_backward(shallow));
}

TEST(CostModel, SelCostsMoreThanBelAtSameShape) {
  const CostModel cm;
  const auto bel = quantum_info(qnn::AnsatzKind::BasicEntangler, 3, 2);
  const auto sel = quantum_info(qnn::AnsatzKind::StronglyEntangling, 3, 2);
  EXPECT_GT(cm.quantum_circuit_forward(sel), cm.quantum_circuit_forward(bel));
}

TEST(CostModel, UnknownKindThrows) {
  const CostModel cm;
  nn::LayerInfo info;
  info.kind = "mystery";
  EXPECT_THROW(cm.layer_forward(info), std::invalid_argument);
  EXPECT_THROW(cm.layer_backward(info), std::invalid_argument);
}

TEST(CostModel, NonQuantumLayerRejectedByQuantumHelpers) {
  const CostModel cm;
  nn::LayerInfo info;
  info.kind = "dense";
  EXPECT_THROW(cm.quantum_encoding_forward(info), std::invalid_argument);
}

TEST(Profiler, ClassicalModelBreakdown) {
  util::Rng rng{1};
  qnn::ClassicalConfig config;
  config.features = 10;
  config.hidden = {6};
  config.classes = 3;
  const auto model = qnn::build_classical_model(config, rng);
  const FlopsReport report = profile_model(*model);

  // Layers: Dense(10->6), Tanh(6), Dense(6->3).
  ASSERT_EQ(report.layers.size(), 3u);
  const CostModel cm;
  const double expected_forward = cm.dense_forward(10, 6) +
                                  cm.activation_forward_flops(6) +
                                  cm.dense_forward(6, 3);
  EXPECT_DOUBLE_EQ(report.forward_total, expected_forward);
  EXPECT_DOUBLE_EQ(report.quantum, 0.0);
  EXPECT_DOUBLE_EQ(report.encoding, 0.0);
  EXPECT_DOUBLE_EQ(report.classical, report.total());
  EXPECT_EQ(report.parameter_count, 66u + 21u);
}

TEST(Profiler, HybridModelStageSplitSumsToTotal) {
  util::Rng rng{2};
  qnn::HybridConfig config;
  config.features = 10;
  config.qubits = 3;
  config.depth = 2;
  config.ansatz = qnn::AnsatzKind::StronglyEntangling;
  const auto model = qnn::build_hybrid_model(config, rng);
  const FlopsReport report = profile_model(*model);

  EXPECT_GT(report.quantum, 0.0);
  EXPECT_GT(report.encoding, 0.0);
  EXPECT_GT(report.classical, 0.0);
  EXPECT_NEAR(report.classical + report.encoding + report.quantum,
              report.total(), 1e-9);
  EXPECT_NEAR(report.encoding_plus_classical(),
              report.classical + report.encoding, 1e-12);
}

TEST(Profiler, HybridEncodingConstantAcrossFeatureSizes) {
  // Table I property: the Enc column depends only on qubit count.
  const CostModel cm;
  const auto report_at = [&](std::size_t features) {
    const auto spec = search::ModelSpec::make_hybrid(
        3, 2, qnn::AnsatzKind::StronglyEntangling);
    return profile_layers(
        search::spec_layer_infos(spec, features, 3, qnn::Activation::Tanh),
        cm);
  };
  EXPECT_DOUBLE_EQ(report_at(10).encoding, report_at(110).encoding);
  EXPECT_DOUBLE_EQ(report_at(10).quantum, report_at(110).quantum);
  EXPECT_LT(report_at(10).classical, report_at(110).classical);
}

TEST(Profiler, ClassicalStageGrowsLinearlyInFeatures) {
  // CL(F) - CL(F') should equal 6*q*(F - F') with the default cost model
  // (fwd 2Fq + bwd 4Fq), mirroring the slope-18 observation in Table I.
  const CostModel cm;
  const auto classical_at = [&](std::size_t features) {
    const auto spec = search::ModelSpec::make_hybrid(
        3, 2, qnn::AnsatzKind::BasicEntangler);
    return profile_layers(
               search::spec_layer_infos(spec, features, 3,
                                        qnn::Activation::Tanh),
               cm)
        .classical;
  };
  EXPECT_DOUBLE_EQ(classical_at(40) - classical_at(10), 6.0 * 3 * 30);
  EXPECT_DOUBLE_EQ(classical_at(110) - classical_at(80), 6.0 * 3 * 30);
}

TEST(Profiler, CostModelOverridesPropagate) {
  CostModel expensive_cnots;
  expensive_cnots.entangler_per_amplitude = 14.0;
  const auto spec =
      search::ModelSpec::make_hybrid(3, 2, qnn::AnsatzKind::BasicEntangler);
  const auto infos =
      search::spec_layer_infos(spec, 10, 3, qnn::Activation::Tanh);
  const FlopsReport base = profile_layers(infos);
  const FlopsReport heavier = profile_layers(infos, expensive_cnots);
  EXPECT_GT(heavier.quantum, base.quantum);
  EXPECT_DOUBLE_EQ(heavier.classical, base.classical);
}

TEST(DispatchCounts, ClassifyCircuitMatchesMeasuredCounters) {
  // Build a circuit touching every kernel class, classify it statically,
  // then run it un-fused and compare against the measured dispatch
  // counters — the modeled mix must equal what the simulator executed.
  quantum::Circuit circuit{3};
  circuit.parameterized_gate(quantum::GateType::RZ, 0, 0);
  circuit.gate(quantum::GateType::S, 1);
  circuit.parameterized_gate(quantum::GateType::RX, 1, 1);
  circuit.gate(quantum::GateType::PauliX, 2);
  circuit.gate(quantum::GateType::CNOT, 0, 1);
  circuit.gate(quantum::GateType::Hadamard, 2);
  circuit.parameterized_gate(quantum::GateType::CRY, 2, 1, 2);
  circuit.parameterized_gate(quantum::GateType::RZZ, 3, 0, 2);

  const DispatchCounts modeled = classify_circuit(circuit);
  EXPECT_EQ(modeled.diagonal, 2u);       // RZ + S
  EXPECT_EQ(modeled.permutation, 2u);    // PauliX + CNOT
  EXPECT_EQ(modeled.generic, 2u);        // RX + Hadamard
  EXPECT_EQ(modeled.controlled, 1u);     // CRY
  EXPECT_EQ(modeled.double_flip, 1u);    // RZZ
  EXPECT_EQ(modeled.total(), circuit.op_count());

  util::simd::set_backend("generic");
  util::Metrics::global().reset();
  quantum::StateVector state{3};
  const std::vector<double> params{0.3, 0.5, 0.7, 0.9};
  for (const quantum::Op& op : circuit.ops()) {
    quantum::apply_gate(state, op.type, op.angle(params), op.wire0, op.wire1);
  }
  const util::MetricsSnapshot measured = util::Metrics::global().snapshot();
  util::simd::set_backend(std::nullopt);
  EXPECT_EQ(measured.at("kernel.diagonal"), modeled.diagonal);
  EXPECT_EQ(measured.at("kernel.permutation"), modeled.permutation);
  EXPECT_EQ(measured.at("kernel.controlled"), modeled.controlled);
  EXPECT_EQ(measured.at("kernel.double_flip"), modeled.double_flip);
  EXPECT_EQ(measured.at("kernel.generic"), modeled.generic);

  const std::string table = dispatch_comparison_to_string(modeled, measured);
  EXPECT_NE(table.find("diagonal"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
}

TEST(DispatchCounts, ClassifyPlanMatchesMeasuredCompiledCounters) {
  // Classify the compiled fused stream and run it: modeled counts must
  // equal the measured dispatch mix of an ExecutionPlan::run_batch,
  // including the fused-chain and precomputed-pair accounting.
  quantum::Circuit circuit{3};
  circuit.gate(quantum::GateType::Hadamard, 0);       // chain on wire 0...
  circuit.parameterized_gate(quantum::GateType::RY, 0, 0);
  circuit.gate(quantum::GateType::S, 1);              // diagonal chain...
  circuit.gate(quantum::GateType::T, 1);
  circuit.gate(quantum::GateType::CNOT, 1, 2);        // fused pair...
  circuit.gate(quantum::GateType::CZ, 1, 2);
  circuit.parameterized_gate(quantum::GateType::CRY, 1, 0, 2);
  circuit.gate(quantum::GateType::PauliX, 2);         // lone single gate

  const auto plan = quantum::compile_circuit(circuit);
  const DispatchCounts modeled = classify_plan(*plan);
  EXPECT_EQ(modeled.generic, 1u);          // H·RY runtime chain (dense 2x2)
  EXPECT_EQ(modeled.diagonal, 1u);         // S·T precomputed diagonal
  EXPECT_EQ(modeled.two_qubit_dense, 1u);  // CNOT·CZ precomputed 4x4
  EXPECT_EQ(modeled.controlled, 1u);       // CRY
  EXPECT_EQ(modeled.permutation, 1u);      // PauliX
  EXPECT_EQ(modeled.fused, 3u);
  EXPECT_EQ(modeled.fused_gates, 6u);

  util::simd::set_backend("generic");
  util::Metrics::global().reset();
  quantum::StateVector state{3};
  const std::vector<double> params{0.4, -0.8};
  plan->run_batch(state, params, params.size());
  const util::MetricsSnapshot measured = util::Metrics::global().snapshot();
  util::simd::set_backend(std::nullopt);
  EXPECT_EQ(measured.at("kernel.diagonal"), modeled.diagonal);
  EXPECT_EQ(measured.at("kernel.generic"), modeled.generic);
  EXPECT_EQ(measured.at("kernel.two_qubit_dense"), modeled.two_qubit_dense);
  EXPECT_EQ(measured.at("kernel.controlled"), modeled.controlled);
  EXPECT_EQ(measured.at("kernel.permutation"), modeled.permutation);
  EXPECT_EQ(measured.at("kernel.fused"), modeled.fused);
  EXPECT_EQ(measured.at("kernel.fused_gates"), modeled.fused_gates);
  EXPECT_EQ(measured.at("kernel.double_flip"), modeled.double_flip);

  const std::string table = dispatch_comparison_to_string(modeled, measured);
  EXPECT_NE(table.find("two_qubit_dense"), std::string::npos);
}

TEST(Profiler, ReportRendering) {
  util::Rng rng{3};
  qnn::HybridConfig config;
  config.features = 6;
  const auto model = qnn::build_hybrid_model(config, rng);
  const std::string text = report_to_string(profile_model(*model));
  EXPECT_NE(text.find("quantum"), std::string::npos);
  EXPECT_NE(text.find("stages:"), std::string::npos);
}

}  // namespace
}  // namespace qhdl::flops

#include "flops/profiler.hpp"

#include <sstream>

#include "util/string_util.hpp"
#include "util/table.hpp"

namespace qhdl::flops {

FlopsReport profile_layers(const std::vector<nn::LayerInfo>& infos,
                           const CostModel& cost_model) {
  FlopsReport report;
  for (const nn::LayerInfo& info : infos) {
    LayerFlops lf;
    lf.kind = info.kind;
    lf.name = info.kind;
    lf.forward = cost_model.layer_forward(info);
    lf.backward = cost_model.layer_backward(info);
    report.layers.push_back(lf);

    report.forward_total += lf.forward;
    report.backward_total += lf.backward;
    report.parameter_count += info.parameter_count;

    if (info.kind == "quantum") {
      report.encoding += cost_model.quantum_encoding_forward(info) +
                         cost_model.quantum_encoding_backward(info);
      report.quantum += cost_model.quantum_circuit_forward(info) +
                        cost_model.quantum_circuit_backward(info);
    } else {
      report.classical += lf.total();
    }
  }
  return report;
}

FlopsReport profile_model(const nn::Sequential& model,
                          const CostModel& cost_model) {
  return profile_layers(model.layer_infos(), cost_model);
}

DispatchCounts classify_circuit(const quantum::Circuit& circuit) {
  using quantum::GateType;
  DispatchCounts counts;
  for (const quantum::Op& op : circuit.ops()) {
    switch (op.type) {
      case GateType::RZ:
      case GateType::PhaseShift:
      case GateType::S:
      case GateType::T:
      case GateType::PauliZ:
      case GateType::CZ:
        ++counts.diagonal;
        break;
      case GateType::RX:
      case GateType::RY:
        ++counts.real_rotation;
        break;
      case GateType::PauliX:
      case GateType::CNOT:
      case GateType::SWAP:
        ++counts.permutation;
        break;
      case GateType::CRX:
      case GateType::CRY:
      case GateType::CRZ:
        ++counts.controlled;
        break;
      case GateType::RXX:
      case GateType::RYY:
      case GateType::RZZ:
        ++counts.double_flip;
        break;
      case GateType::PauliY:
      case GateType::Hadamard:
        ++counts.generic;
        break;
    }
  }
  return counts;
}

DispatchCounts classify_plan(const quantum::ExecutionPlan& plan) {
  using quantum::FusedOp;
  using quantum::KernelClass;
  DispatchCounts counts;
  const auto count_kernel = [&](KernelClass kernel) {
    switch (kernel) {
      case KernelClass::Diagonal: ++counts.diagonal; break;
      case KernelClass::RealRotation: ++counts.real_rotation; break;
      case KernelClass::Permutation: ++counts.permutation; break;
      case KernelClass::Controlled: ++counts.controlled; break;
      case KernelClass::DoubleFlip: ++counts.double_flip; break;
      case KernelClass::Generic: ++counts.generic; break;
    }
  };
  for (const quantum::FusedOp& op : plan.fused_ops()) {
    switch (op.kind) {
      case FusedOp::Kind::Single:
      case FusedOp::Kind::TwoQubit:
        count_kernel(op.kernel);
        break;
      case FusedOp::Kind::Chain:
        // Runtime/precomputed 2x2 products go through the dense
        // single-qubit kernel, which the measured counters file as generic.
        ++counts.generic;
        ++counts.fused;
        counts.fused_gates += op.chain_length;
        break;
      case FusedOp::Kind::FixedChain:
        ++counts.generic;
        ++counts.fused;
        counts.fused_gates += op.gate_count;
        break;
      case FusedOp::Kind::DiagonalChain:
        ++counts.diagonal;
        ++counts.fused;
        counts.fused_gates += op.gate_count;
        break;
      case FusedOp::Kind::FusedPair:
        ++counts.two_qubit_dense;
        ++counts.fused;
        counts.fused_gates += op.gate_count;
        break;
    }
  }
  return counts;
}

std::string dispatch_comparison_to_string(
    const DispatchCounts& modeled, const util::MetricsSnapshot& measured) {
  util::Table table({"kernel", "modeled/run", "measured"});
  std::uint64_t measured_total = 0;  // gate applications; a chain counts once
  const auto row = [&](const std::string& name, std::uint64_t m) {
    const std::uint64_t got = measured.at("kernel." + name);
    measured_total += got;
    table.add_row({name, std::to_string(m), std::to_string(got)});
  };
  row("diagonal", modeled.diagonal);
  row("real_rotation", modeled.real_rotation);
  row("permutation", modeled.permutation);
  row("controlled", modeled.controlled);
  row("double_flip", modeled.double_flip);
  row("generic", modeled.generic);
  row("two_qubit_dense", modeled.two_qubit_dense);
  std::ostringstream oss;
  oss << table.to_string();
  oss << "modeled total=" << modeled.total()
      << " (fused_chains=" << modeled.fused << " absorbing "
      << modeled.fused_gates << " gates)"
      << " | measured total=" << measured_total
      << " (fused_chains=" << measured.at("kernel.fused") << " absorbing "
      << measured.at("kernel.fused_gates") << " gates, batched_rows="
      << measured.at("kernel.batched_rows") << ")\n";
  return oss.str();
}

std::string report_to_string(const FlopsReport& report) {
  util::Table table({"layer", "kind", "fwd FLOPs", "bwd FLOPs", "total"});
  for (std::size_t i = 0; i < report.layers.size(); ++i) {
    const LayerFlops& lf = report.layers[i];
    table.add_row({std::to_string(i) + ":" + lf.name, lf.kind,
                   util::format_double(lf.forward, 1),
                   util::format_double(lf.backward, 1),
                   util::format_double(lf.total(), 1)});
  }
  std::ostringstream oss;
  oss << table.to_string();
  oss << "total=" << util::format_double(report.total(), 1)
      << " (fwd=" << util::format_double(report.forward_total, 1)
      << ", bwd=" << util::format_double(report.backward_total, 1) << ")\n"
      << "stages: CL=" << util::format_double(report.classical, 1)
      << " Enc=" << util::format_double(report.encoding, 1)
      << " QL=" << util::format_double(report.quantum, 1)
      << " | params=" << report.parameter_count << "\n";
  return oss.str();
}

}  // namespace qhdl::flops

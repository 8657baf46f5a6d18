#include "quantum/circuit.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "quantum/exec_plan.hpp"
#include "quantum/statevector_batch.hpp"

namespace qhdl::quantum {

double Op::angle(std::span<const double> params) const {
  if (!param_index.has_value()) return fixed_angle;
  if (*param_index >= params.size()) {
    throw std::out_of_range("Op::angle: parameter index " +
                            std::to_string(*param_index) +
                            " out of range for " +
                            std::to_string(params.size()) + " parameters");
  }
  return params[*param_index];
}

Circuit::Circuit(std::size_t num_qubits) : num_qubits_(num_qubits) {
  if (num_qubits == 0) {
    throw std::invalid_argument("Circuit: need at least one qubit");
  }
}

Circuit::Circuit(const Circuit& other)
    : num_qubits_(other.num_qubits_),
      ops_(other.ops_),
      parameter_count_(other.parameter_count_),
      plan_(other.memoized_plan()),
      plan_ready_(plan_ != nullptr) {}

Circuit::Circuit(Circuit&& other) noexcept
    : num_qubits_(other.num_qubits_),
      ops_(std::move(other.ops_)),
      parameter_count_(other.parameter_count_),
      plan_(other.plan_),
      plan_ready_(plan_ != nullptr) {}

Circuit& Circuit::operator=(const Circuit& other) {
  if (this != &other) {
    num_qubits_ = other.num_qubits_;
    ops_ = other.ops_;
    parameter_count_ = other.parameter_count_;
    set_plan(other.memoized_plan());
  }
  return *this;
}

Circuit& Circuit::operator=(Circuit&& other) noexcept {
  if (this != &other) {
    num_qubits_ = other.num_qubits_;
    ops_ = std::move(other.ops_);
    parameter_count_ = other.parameter_count_;
    set_plan(other.plan_);
  }
  return *this;
}

std::size_t Circuit::parameterized_op_count() const {
  std::size_t count = 0;
  for (const Op& op : ops_) {
    if (op.param_index.has_value()) ++count;
  }
  return count;
}

void Circuit::check_wires(GateType type, std::size_t wire0,
                          std::size_t wire1) const {
  if (wire0 >= num_qubits_) {
    throw std::out_of_range("Circuit: wire " + std::to_string(wire0) +
                            " out of range");
  }
  const std::size_t arity = gate_arity(type);
  if (arity == 2) {
    if (wire1 == SIZE_MAX) {
      throw std::invalid_argument("Circuit: " + gate_name(type) +
                                  " needs two wires");
    }
    if (wire1 >= num_qubits_) {
      throw std::out_of_range("Circuit: wire " + std::to_string(wire1) +
                              " out of range");
    }
    if (wire0 == wire1) {
      throw std::invalid_argument("Circuit: " + gate_name(type) +
                                  " wires must differ");
    }
  } else if (wire1 != SIZE_MAX) {
    throw std::invalid_argument("Circuit: " + gate_name(type) +
                                " takes one wire");
  }
}

Circuit& Circuit::gate(GateType type, std::size_t wire0, std::size_t wire1,
                       double fixed_angle) {
  check_wires(type, wire0, wire1);
  Op op;
  op.type = type;
  op.wire0 = wire0;
  op.wire1 = wire1;
  op.fixed_angle = fixed_angle;
  ops_.push_back(op);
  set_plan(nullptr);
  return *this;
}

Circuit& Circuit::parameterized_gate(GateType type, std::size_t param_index,
                                     std::size_t wire0, std::size_t wire1) {
  if (!gate_is_parameterized(type)) {
    throw std::invalid_argument("Circuit: " + gate_name(type) +
                                " takes no parameter");
  }
  check_wires(type, wire0, wire1);
  Op op;
  op.type = type;
  op.wire0 = wire0;
  op.wire1 = wire1;
  op.param_index = param_index;
  ops_.push_back(op);
  parameter_count_ = std::max(parameter_count_, param_index + 1);
  set_plan(nullptr);
  return *this;
}

Circuit& Circuit::rot(std::size_t param_index_base, std::size_t wire) {
  parameterized_gate(GateType::RZ, param_index_base, wire);
  parameterized_gate(GateType::RY, param_index_base + 1, wire);
  parameterized_gate(GateType::RZ, param_index_base + 2, wire);
  return *this;
}

std::shared_ptr<const ExecutionPlan> Circuit::compiled_plan() const {
  if (plan_ready_.load(std::memory_order_acquire)) return plan_;
  // First use: one caller compiles, racing callers wait for its plan.
  std::lock_guard<std::mutex> lock(plan_mutex_);
  if (plan_ == nullptr) {
    plan_ = compile_circuit(*this);
    plan_ready_.store(true, std::memory_order_release);
  }
  return plan_;
}

std::shared_ptr<const ExecutionPlan> Circuit::memoized_plan() const {
  std::lock_guard<std::mutex> lock(plan_mutex_);
  return plan_;
}

void Circuit::set_plan(std::shared_ptr<const ExecutionPlan> plan) {
  plan_ = std::move(plan);
  plan_ready_.store(plan_ != nullptr, std::memory_order_release);
}

void Circuit::run(StateVector& state, std::span<const double> params) const {
  run_batch(state, params, parameter_count_);
}

void Circuit::run_batch(StateVectorBatch& batch,
                        std::span<const double> params,
                        std::size_t param_stride) const {
  if (batch.num_qubits() != num_qubits_) {
    throw std::invalid_argument("Circuit::run_batch: batch has " +
                                std::to_string(batch.num_qubits()) +
                                " qubits, circuit needs " +
                                std::to_string(num_qubits_));
  }
  if (param_stride < parameter_count_) {
    throw std::invalid_argument("Circuit::run_batch: param_stride " +
                                std::to_string(param_stride) + " < " +
                                std::to_string(parameter_count_) +
                                " circuit parameters");
  }
  const std::size_t rows = batch.batch();
  if (params.size() != rows * param_stride) {
    throw std::invalid_argument("Circuit::run_batch: got " +
                                std::to_string(params.size()) +
                                " params, need exactly " +
                                std::to_string(rows * param_stride));
  }
  compiled_plan()->run_batch(batch, params, param_stride);
}

StateVector Circuit::execute(std::span<const double> params) const {
  StateVector state{num_qubits_};
  run(state, params);
  return state;
}

std::size_t Circuit::depth() const {
  std::vector<std::size_t> wire_level(num_qubits_, 0);
  std::size_t depth = 0;
  for (const Op& op : ops_) {
    std::size_t level = wire_level[op.wire0];
    if (op.wire1 != SIZE_MAX) {
      level = std::max(level, wire_level[op.wire1]);
    }
    ++level;
    wire_level[op.wire0] = level;
    if (op.wire1 != SIZE_MAX) wire_level[op.wire1] = level;
    depth = std::max(depth, level);
  }
  return depth;
}

std::vector<std::pair<GateType, std::size_t>> Circuit::gate_histogram()
    const {
  std::map<GateType, std::size_t> counts;
  for (const Op& op : ops_) ++counts[op.type];
  return {counts.begin(), counts.end()};
}

std::size_t Circuit::two_qubit_op_count() const {
  std::size_t count = 0;
  for (const Op& op : ops_) {
    if (gate_arity(op.type) == 2) ++count;
  }
  return count;
}

std::string Circuit::to_string() const {
  std::ostringstream oss;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (i > 0) oss << " ; ";
    const Op& op = ops_[i];
    oss << gate_name(op.type);
    if (gate_is_parameterized(op.type)) {
      if (op.param_index.has_value()) {
        oss << "(p" << *op.param_index << ")";
      } else {
        oss << "(" << op.fixed_angle << ")";
      }
    }
    oss << " q" << op.wire0;
    if (op.wire1 != SIZE_MAX) oss << ",q" << op.wire1;
  }
  return oss.str();
}

}  // namespace qhdl::quantum

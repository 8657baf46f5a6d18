#include "quantum/exec_plan.hpp"

#include <algorithm>
#include <stdexcept>

#include "quantum/circuit.hpp"
#include "quantum/kernels.hpp"
#include "quantum/statevector_batch.hpp"
#include "util/backend_registry.hpp"

namespace qhdl::quantum {

KernelClass kernel_class_for(GateType type) {
  // Mirrors apply_gate_specialized's dispatch switch (gates.cpp).
  switch (type) {
    case GateType::PauliZ:
    case GateType::S:
    case GateType::T:
    case GateType::RZ:
    case GateType::PhaseShift:
    case GateType::CZ:
      return KernelClass::Diagonal;
    case GateType::RX:
    case GateType::RY:
      return KernelClass::RealRotation;
    case GateType::PauliX:
    case GateType::CNOT:
    case GateType::SWAP:
      return KernelClass::Permutation;
    case GateType::CRX:
    case GateType::CRY:
    case GateType::CRZ:
      return KernelClass::Controlled;
    case GateType::RXX:
    case GateType::RYY:
    case GateType::RZZ:
      return KernelClass::DoubleFlip;
    case GateType::PauliY:
    case GateType::Hadamard:
      return KernelClass::Generic;
  }
  return KernelClass::Generic;
}

namespace {

/// True for gates whose square is the exact identity permutation/sign flip
/// on amplitudes, so an adjacent pair can be dropped without changing a
/// single bit of any downstream value. Hadamard is deliberately excluded:
/// H·H only equals identity up to 1/√2 rounding. PauliY is excluded too
/// (its dense matvec rounds through ±i multiplies).
bool cancels_exactly_with_self(GateType type) {
  switch (type) {
    case GateType::PauliX:
    case GateType::PauliZ:
    case GateType::CNOT:
    case GateType::CZ:
    case GateType::SWAP:
      return true;
    default:
      return false;
  }
}

/// True when wires match closely enough for an exact self-cancellation:
/// CNOT needs identical (control, target); CZ/SWAP are wire-symmetric.
bool wires_cancel(const PlanOp& a, const PlanOp& b) {
  if (a.wire0 == b.wire0 && a.wire1 == b.wire1) return true;
  if (a.type == GateType::CZ || a.type == GateType::SWAP) {
    return a.wire0 == b.wire1 && a.wire1 == b.wire0;
  }
  return false;
}

/// Dense 4x4 for a fixed-angle two-qubit gate in the (wire0, wire1) local
/// basis (index = bit_{wire0} << 1 | bit_{wire1}).
Mat4 two_qubit_matrix_for(GateType type, double theta) {
  Mat4 m{};
  const Complex one{1.0, 0.0};
  switch (type) {
    case GateType::CNOT:
      m.m[0][0] = one;
      m.m[1][1] = one;
      m.m[2][3] = one;
      m.m[3][2] = one;
      return m;
    case GateType::CZ:
      m.m[0][0] = one;
      m.m[1][1] = one;
      m.m[2][2] = one;
      m.m[3][3] = Complex{-1.0, 0.0};
      return m;
    case GateType::SWAP:
      m.m[0][0] = one;
      m.m[1][2] = one;
      m.m[2][1] = one;
      m.m[3][3] = one;
      return m;
    case GateType::CRX:
    case GateType::CRY:
    case GateType::CRZ: {
      const Mat2 u = gates::matrix_for(type, theta);
      m.m[0][0] = one;
      m.m[1][1] = one;
      m.m[2][2] = u.m00;
      m.m[2][3] = u.m01;
      m.m[3][2] = u.m10;
      m.m[3][3] = u.m11;
      return m;
    }
    case GateType::RXX:
    case GateType::RYY:
    case GateType::RZZ: {
      const gates::IsingPair pair = gates::ising_pair(type, theta);
      // Even-parity block couples |00⟩ (local 0) with |11⟩ (local 3), the
      // odd block couples |01⟩ (local 1, wire0's bit low) with |10⟩.
      m.m[0][0] = pair.even.m00;
      m.m[0][3] = pair.even.m01;
      m.m[3][0] = pair.even.m10;
      m.m[3][3] = pair.even.m11;
      m.m[1][1] = pair.odd.m00;
      m.m[1][2] = pair.odd.m01;
      m.m[2][1] = pair.odd.m10;
      m.m[2][2] = pair.odd.m11;
      return m;
    }
    default:
      throw std::invalid_argument("two_qubit_matrix_for: " + gate_name(type) +
                                  " is not a two-qubit gate");
  }
}

/// Re-expresses a 4x4 given in (b, a) wire order in (a, b) order: local
/// basis bits swap, i.e. indices 1 and 2 transpose in both dimensions.
Mat4 swap_wire_order(const Mat4& m) {
  constexpr int perm[4] = {0, 2, 1, 3};
  Mat4 out;
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) out.m[r][c] = m.m[perm[r]][perm[c]];
  }
  return out;
}

/// Deferred single-qubit gates on one wire during fused-stream lowering.
struct CompileChain {
  std::vector<ChainGate> gates;
  bool all_fixed = true;
};

void flush_chain(std::vector<FusedOp>& fused, std::vector<ChainGate>& pool,
                 CompileChain& chain, std::size_t wire) {
  if (chain.gates.empty()) return;
  FusedOp op;
  op.wire0 = wire;
  op.gate_count = static_cast<std::uint32_t>(chain.gates.size());
  if (chain.gates.size() == 1) {
    const ChainGate& g = chain.gates.front();
    op.kind = FusedOp::Kind::Single;
    op.type = g.type;
    op.param_slot = g.param_slot;
    op.fixed_angle = g.fixed_angle;
    op.kernel = kernel_class_for(g.type);
  } else if (chain.all_fixed) {
    // Precompute the product once; same order as the runtime fuser
    // (later gates multiply from the left).
    Mat2 matrix =
        gates::matrix_for(chain.gates[0].type, chain.gates[0].fixed_angle);
    bool all_diagonal = kernel_class_for(chain.gates[0].type) ==
                        KernelClass::Diagonal;
    for (std::size_t i = 1; i < chain.gates.size(); ++i) {
      matrix = gates::matrix_for(chain.gates[i].type,
                                 chain.gates[i].fixed_angle) *
               matrix;
      all_diagonal = all_diagonal && kernel_class_for(chain.gates[i].type) ==
                                         KernelClass::Diagonal;
    }
    if (all_diagonal) {
      op.kind = FusedOp::Kind::DiagonalChain;
      op.d0 = matrix.m00;
      op.d1 = matrix.m11;
      op.kernel = KernelClass::Diagonal;
    } else {
      op.kind = FusedOp::Kind::FixedChain;
      op.matrix = matrix;
      op.kernel = KernelClass::Generic;
    }
  } else {
    op.kind = FusedOp::Kind::Chain;
    op.chain_begin = static_cast<std::uint32_t>(pool.size());
    op.chain_length = static_cast<std::uint32_t>(chain.gates.size());
    op.kernel = KernelClass::Generic;
    pool.insert(pool.end(), chain.gates.begin(), chain.gates.end());
  }
  fused.push_back(op);
  chain.gates.clear();
  chain.all_fixed = true;
}

}  // namespace

std::shared_ptr<const ExecutionPlan> compile_circuit(const Circuit& circuit) {
  auto plan = std::make_shared<ExecutionPlan>();
  plan->num_qubits_ = circuit.num_qubits();
  plan->parameter_count_ = circuit.parameter_count();
  plan->source_op_count_ = circuit.op_count();

  // 1. Flat stream: resolve params/kernels, peephole-cancel exact
  //    involution pairs (stack scan reaches the fixpoint in one pass).
  std::vector<PlanOp>& flat = plan->flat_ops_;
  flat.reserve(circuit.op_count());
  for (const Op& op : circuit.ops()) {
    PlanOp lowered;
    lowered.type = op.type;
    lowered.wire0 = op.wire0;
    lowered.wire1 = op.wire1;
    lowered.param_slot = op.param_index.has_value()
                             ? static_cast<std::int64_t>(*op.param_index)
                             : -1;
    lowered.fixed_angle = op.fixed_angle;
    lowered.kernel = kernel_class_for(op.type);
    if (!flat.empty() && cancels_exactly_with_self(op.type) &&
        flat.back().type == op.type && wires_cancel(flat.back(), lowered)) {
      flat.pop_back();
      continue;
    }
    flat.push_back(lowered);
  }
  plan->cancelled_op_count_ = circuit.op_count() - flat.size();

  // 2. Fused stream: replay the per-wire deferral the runtime fuser does,
  //    but once, at compile time. Emission order matches Circuit::run.
  std::vector<CompileChain> pending(plan->num_qubits_);
  for (const PlanOp& op : flat) {
    if (gate_arity(op.type) == 1) {
      CompileChain& chain = pending[op.wire0];
      chain.gates.push_back(
          ChainGate{op.type, op.param_slot, op.fixed_angle});
      chain.all_fixed = chain.all_fixed && op.param_slot < 0;
      continue;
    }
    flush_chain(plan->fused_ops_, plan->chain_gates_, pending[op.wire0],
                op.wire0);
    flush_chain(plan->fused_ops_, plan->chain_gates_, pending[op.wire1],
                op.wire1);
    // Angle-independent two-qubit gates adjacent on the same wire pair
    // collapse into one precomputed 4x4.
    FusedOp* prev =
        plan->fused_ops_.empty() ? nullptr : &plan->fused_ops_.back();
    const bool prev_fusable =
        prev != nullptr &&
        (prev->kind == FusedOp::Kind::FusedPair ||
         (prev->kind == FusedOp::Kind::TwoQubit && prev->param_slot < 0)) &&
        ((prev->wire0 == op.wire0 && prev->wire1 == op.wire1) ||
         (prev->wire0 == op.wire1 && prev->wire1 == op.wire0));
    if (op.param_slot < 0 && prev_fusable) {
      Mat4 base = prev->kind == FusedOp::Kind::FusedPair
                      ? prev->matrix4
                      : two_qubit_matrix_for(prev->type, prev->fixed_angle);
      Mat4 next = two_qubit_matrix_for(op.type, op.fixed_angle);
      if (prev->wire0 != op.wire0) next = swap_wire_order(next);
      prev->kind = FusedOp::Kind::FusedPair;
      prev->matrix4 = next * base;
      prev->kernel = KernelClass::Generic;
      prev->param_slot = -1;
      ++prev->gate_count;
      continue;
    }
    FusedOp two;
    two.kind = FusedOp::Kind::TwoQubit;
    two.type = op.type;
    two.wire0 = op.wire0;
    two.wire1 = op.wire1;
    two.param_slot = op.param_slot;
    two.fixed_angle = op.fixed_angle;
    two.kernel = op.kernel;
    plan->fused_ops_.push_back(two);
  }
  for (std::size_t wire = 0; wire < plan->num_qubits_; ++wire) {
    flush_chain(plan->fused_ops_, plan->chain_gates_, pending[wire], wire);
  }
  return plan;
}

void ExecutionPlan::run(StateVector& state,
                        std::span<const double> params) const {
  if (util::simd::active_backend().reference) {
    for (const PlanOp& op : flat_ops_) {
      apply_gate(state, op.type, op.angle(params), op.wire0, op.wire1);
    }
    return;
  }
  for (const FusedOp& op : fused_ops_) {
    switch (op.kind) {
      case FusedOp::Kind::Single:
        apply_gate(state, op.type, op.angle(params), op.wire0);
        break;
      case FusedOp::Kind::Chain: {
        // Later gates multiply from the left; run_batch builds its per-row
        // products in the same order, so batch rows match this bit-for-bit.
        const ChainGate* gates = &chain_gates_[op.chain_begin];
        Mat2 matrix =
            gates::matrix_for(gates[0].type, gates[0].angle(params));
        for (std::uint32_t i = 1; i < op.chain_length; ++i) {
          matrix =
              gates::matrix_for(gates[i].type, gates[i].angle(params)) *
              matrix;
        }
        state.apply_single_qubit(matrix, op.wire0);
        kernels::count_fused(op.chain_length);
        break;
      }
      case FusedOp::Kind::FixedChain:
        state.apply_single_qubit(op.matrix, op.wire0);
        kernels::count_fused(op.gate_count);
        break;
      case FusedOp::Kind::DiagonalChain:
        state.apply_diagonal(op.d0, op.d1, op.wire0);
        kernels::count_fused(op.gate_count);
        break;
      case FusedOp::Kind::TwoQubit:
        apply_gate(state, op.type, op.angle(params), op.wire0, op.wire1);
        break;
      case FusedOp::Kind::FusedPair:
        state.apply_two_qubit(op.matrix4, op.wire0, op.wire1);
        kernels::count_fused(op.gate_count);
        break;
    }
  }
}

void ExecutionPlan::run_batch(StateVectorBatch& batch,
                              std::span<const double> params,
                              std::size_t param_stride) const {
  // Mirrors run(): the fused stream (or, under the reference backend, the
  // flat stream), so every batch row reproduces the scalar path
  // bit-for-bit and the fused chains feed the batched SIMD kernels
  // (DESIGN.md §14). Parameterized gates detect shared-vs-per-row angles
  // at runtime; a chain whose angles differ across rows falls back to one
  // 2x2 product per row, built in run()'s left-multiplication order.
  const std::size_t rows = batch.batch();
  thread_local std::vector<double> angles;
  thread_local std::vector<Mat2> row_mats;
  thread_local std::vector<Mat2> factors;  // shared chain factors
  thread_local std::vector<char> per_row;  // chain factor varies per row
  angles.resize(rows);
  const auto gather = [&](std::int64_t slot,
                          double fixed_angle) -> std::span<const double> {
    // One shared angle when every row agrees, else one per row.
    if (slot < 0) {
      angles[0] = fixed_angle;
      return {angles.data(), 1};
    }
    const std::size_t index = static_cast<std::size_t>(slot);
    bool shared = true;
    for (std::size_t b = 0; b < rows; ++b) {
      angles[b] = params[b * param_stride + index];
      shared = shared && angles[b] == angles[0];
    }
    return shared ? std::span<const double>{angles.data(), 1}
                  : std::span<const double>{angles};
  };
  if (util::simd::active_backend().reference) {
    for (const PlanOp& op : flat_ops_) {
      apply_gate_batch(batch, op.type, gather(op.param_slot, op.fixed_angle),
                       op.wire0, op.wire1);
    }
    return;
  }
  for (const FusedOp& op : fused_ops_) {
    switch (op.kind) {
      case FusedOp::Kind::Single:
      case FusedOp::Kind::TwoQubit:
        apply_gate_batch(batch, op.type,
                         gather(op.param_slot, op.fixed_angle), op.wire0,
                         op.wire1);
        break;
      case FusedOp::Kind::Chain: {
        // Factor i is shared when its angle is fixed or equal on every row;
        // shared factors are built once for the whole batch. The product
        // keeps run()'s left-multiplication order, and the leading run of
        // shared factors (the prefix every row would form identically) is
        // multiplied once, so each row's matrix is bit-identical to run().
        const ChainGate* gates = &chain_gates_[op.chain_begin];
        const std::uint32_t length = op.chain_length;
        const auto chain_angle = [&](std::uint32_t i, std::size_t b) {
          return gates[i].param_slot < 0
                     ? gates[i].fixed_angle
                     : params[b * param_stride +
                              static_cast<std::size_t>(gates[i].param_slot)];
        };
        factors.resize(length);
        per_row.resize(length);
        std::uint32_t prefix = length;  // leading shared factors
        for (std::uint32_t i = 0; i < length; ++i) {
          bool shared = true;
          if (gates[i].param_slot >= 0) {
            const double first = chain_angle(i, 0);
            for (std::size_t b = 1; b < rows && shared; ++b) {
              shared = chain_angle(i, b) == first;
            }
          }
          per_row[i] = !shared;
          if (shared) {
            factors[i] = gates::matrix_for(gates[i].type, chain_angle(i, 0));
          } else if (prefix == length) {
            prefix = i;
          }
        }
        Mat2 head = factors[0];
        for (std::uint32_t i = 1; i < prefix; ++i) head = factors[i] * head;
        if (prefix == length) {
          batch.apply_single_qubit(head, op.wire0);
        } else {
          row_mats.resize(rows);
          for (std::size_t b = 0; b < rows; ++b) {
            Mat2 matrix = prefix > 0 ? head
                                     : gates::matrix_for(gates[0].type,
                                                         chain_angle(0, b));
            for (std::uint32_t i = std::max<std::uint32_t>(prefix, 1);
                 i < length; ++i) {
              matrix = (per_row[i] ? gates::matrix_for(gates[i].type,
                                                       chain_angle(i, b))
                                   : factors[i]) *
                       matrix;
            }
            row_mats[b] = matrix;
          }
          batch.apply_single_qubit_per_row(row_mats, op.wire0);
        }
        kernels::count_fused(length);
        break;
      }
      case FusedOp::Kind::FixedChain:
        batch.apply_single_qubit(op.matrix, op.wire0);
        kernels::count_fused(op.gate_count);
        break;
      case FusedOp::Kind::DiagonalChain:
        batch.apply_diagonal(op.d0, op.d1, op.wire0);
        kernels::count_fused(op.gate_count);
        break;
      case FusedOp::Kind::FusedPair:
        batch.apply_two_qubit(op.matrix4, op.wire0, op.wire1);
        kernels::count_fused(op.gate_count);
        break;
    }
  }
}

}  // namespace qhdl::quantum

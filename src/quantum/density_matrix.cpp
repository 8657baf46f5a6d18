#include "quantum/density_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

namespace qhdl::quantum {

bool KrausChannel::is_trace_preserving(double tolerance) const {
  // Σ K† K must equal I.
  Complex s00{0, 0}, s01{0, 0}, s10{0, 0}, s11{0, 0};
  for (const Mat2& k : operators) {
    const Mat2 ktk = k.dagger() * k;
    s00 += ktk.m00;
    s01 += ktk.m01;
    s10 += ktk.m10;
    s11 += ktk.m11;
  }
  return std::abs(s00 - Complex{1, 0}) < tolerance &&
         std::abs(s11 - Complex{1, 0}) < tolerance &&
         std::abs(s01) < tolerance && std::abs(s10) < tolerance;
}

namespace {

/// 2^q for a supported density-matrix size (ρ holds 4^q amplitudes).
std::size_t checked_dimension(std::size_t num_qubits) {
  if (num_qubits == 0 || num_qubits > 14) {
    throw std::invalid_argument(
        "DensityMatrix: qubit count must be in [1,14]");
  }
  return std::size_t{1} << num_qubits;
}

}  // namespace

DensityMatrixBatch::DensityMatrixBatch(std::size_t num_qubits,
                                       std::size_t rows)
    : columns_(num_qubits, checked_dimension(num_qubits) * rows) {
  // The batch starts every column at |0...0⟩; |0⟩⟨0| keeps only each ρ_r's
  // column 0.
  const std::size_t dim = dimension();
  for (std::size_t lane = 0; lane < columns_.batch(); ++lane) {
    if (lane % dim != 0) elements()[lane] = Complex{0, 0};
  }
}

DensityMatrix::DensityMatrix(std::size_t num_qubits)
    : DensityMatrixBatch(num_qubits, 1) {}

DensityMatrix DensityMatrix::from_statevector(const StateVector& state) {
  DensityMatrix rho{state.num_qubits()};
  const std::size_t dim = rho.dimension();
  const auto amps = state.amplitudes();
  const std::span<Complex> e = rho.elements();
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      e[i * dim + j] = amps[i] * std::conj(amps[j]);
    }
  }
  return rho;
}

DensityMatrix DensityMatrix::maximally_mixed(std::size_t num_qubits) {
  DensityMatrix rho{num_qubits};
  const std::size_t dim = rho.dimension();
  const std::span<Complex> e = rho.elements();
  std::fill(e.begin(), e.end(), Complex{0, 0});
  const double p = 1.0 / static_cast<double>(dim);
  for (std::size_t i = 0; i < dim; ++i) e[i * dim + i] = Complex{p, 0};
  return rho;
}

Complex& DensityMatrix::at(std::size_t row, std::size_t col) {
  if (row >= dimension() || col >= dimension()) {
    throw std::out_of_range("DensityMatrix::at: index out of range");
  }
  return elements()[row * dimension() + col];
}

Complex DensityMatrix::at(std::size_t row, std::size_t col) const {
  if (row >= dimension() || col >= dimension()) {
    throw std::out_of_range("DensityMatrix::at: index out of range");
  }
  return elements()[row * dimension() + col];
}

void DensityMatrixBatch::check_wire(std::size_t wire,
                                    const char* context) const {
  if (wire >= num_qubits()) {
    throw std::out_of_range(std::string{context} + ": wire out of range");
  }
}

namespace {

/// ρ_r ← ρ_r† in place for every ρ_r of a batch of columns (ρ_r[i][j] sits
/// at i * lanes + r * dim + j).
void conjugate_transpose(StateVectorBatch& columns) {
  const std::size_t dim = columns.dimension();
  const std::size_t lanes = columns.batch();
  const std::span<Complex> e = columns.amplitudes();
  for (std::size_t base = 0; base < lanes; base += dim) {
    for (std::size_t i = 0; i < dim; ++i) {
      Complex* row_i = e.data() + i * lanes + base;
      row_i[i] = std::conj(row_i[i]);
      for (std::size_t j = i + 1; j < dim; ++j) {
        Complex& lower = e[j * lanes + base + i];
        const Complex upper = row_i[j];
        row_i[j] = std::conj(lower);
        lower = std::conj(upper);
      }
    }
  }
}

/// ρ_r ← U ρ_r U† for the density matrices held in `columns`, where `apply`
/// multiplies every column by U.
template <typename ApplyToColumns>
void sandwich(StateVectorBatch& columns, const ApplyToColumns& apply) {
  apply(columns);                // U ρ
  conjugate_transpose(columns);  // ρ† U†
  apply(columns);                // U ρ† U†
  conjugate_transpose(columns);  // U ρ U†
}

}  // namespace

void DensityMatrixBatch::apply_gate(GateType type,
                                    std::span<const double> angles,
                                    std::size_t wire0, std::size_t wire1) {
  if (angles.size() != 1 && angles.size() != rows()) {
    throw std::invalid_argument(
        "DensityMatrixBatch::apply_gate: " + std::to_string(angles.size()) +
        " angles for " + std::to_string(rows()) + " density matrices");
  }
  // Built once for both halves of the sandwich; with per-row angles ρ_r's
  // matrix is evaluated once and turns every one of its columns.
  thread_local BatchGate gate;
  gate.build(type, GateForm::Gate, angles,
             angles.size() == 1 ? 1 : dimension());
  sandwich(columns_, [&](StateVectorBatch& columns) {
    gate.apply(columns, wire0, wire1);
  });
}

void DensityMatrixBatch::apply_single_qubit(const Mat2& gate,
                                            std::size_t wire) {
  sandwich(columns_, [&](StateVectorBatch& columns) {
    columns.apply_single_qubit(gate, wire);
  });
}

void DensityMatrixBatch::apply_channel(const KrausChannel& channel,
                                       std::size_t wire) {
  check_wire(wire, "DensityMatrix::apply_channel");
  if (channel.operators.empty()) {
    throw std::invalid_argument("DensityMatrix::apply_channel: empty channel");
  }
  // Σ_k K_k ρ K_k†, summed from zero in k order: every branch but the last
  // evolves a copy of ρ in thread-local scratch, and the last evolves ρ in
  // place, so a channel copies ρ K - 1 times and allocates nothing once the
  // scratch has seen this shape.
  thread_local std::optional<StateVectorBatch> branch_slot;
  thread_local std::vector<Complex> accumulated;
  if (!branch_slot || branch_slot->num_qubits() != num_qubits()) {
    branch_slot.emplace(num_qubits(), columns_.batch());
  } else if (branch_slot->batch() != columns_.batch()) {
    branch_slot->resize(columns_.batch());
  }
  StateVectorBatch& branch = *branch_slot;
  const std::span<Complex> rho = elements();
  accumulated.assign(rho.size(), Complex{0, 0});
  const std::size_t last = channel.operators.size() - 1;
  for (std::size_t k = 0; k < last; ++k) {
    branch.assign_from(columns_);
    sandwich(branch, [&](StateVectorBatch& columns) {
      columns.apply_single_qubit(channel.operators[k], wire);
    });
    const std::span<const Complex> evolved = branch.amplitudes();
    for (std::size_t i = 0; i < evolved.size(); ++i) {
      accumulated[i] += evolved[i];
    }
  }
  apply_single_qubit(channel.operators[last], wire);
  for (std::size_t i = 0; i < rho.size(); ++i) {
    rho[i] = accumulated[i] + rho[i];
  }
}

void DensityMatrixBatch::expval_pauli_z(std::size_t wire,
                                        std::span<double> out) const {
  check_wire(wire, "DensityMatrix::expval_pauli_z");
  if (out.size() != rows()) {
    throw std::invalid_argument(
        "DensityMatrixBatch::expval_pauli_z: out size must be rows()");
  }
  const std::size_t dim = dimension();
  const std::size_t lanes = columns_.batch();
  const std::size_t mask = std::size_t{1} << (num_qubits() - 1 - wire);
  for (std::size_t r = 0; r < out.size(); ++r) {
    double total = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      const double p = elements()[i * lanes + r * dim + i].real();
      total += (i & mask) == 0 ? p : -p;
    }
    out[r] = total;
  }
}

Complex DensityMatrix::trace() const {
  const std::size_t dim = dimension();
  Complex total{0, 0};
  for (std::size_t i = 0; i < dim; ++i) total += elements()[i * dim + i];
  return total;
}

double DensityMatrix::purity() const {
  // Tr(ρ²) = Σ_ij ρ_ij ρ_ji = Σ_ij |ρ_ij|² for Hermitian ρ.
  double total = 0.0;
  for (const Complex& e : elements()) total += std::norm(e);
  return total;
}

std::vector<double> DensityMatrix::probabilities() const {
  const std::size_t dim = dimension();
  std::vector<double> probs(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    probs[i] = elements()[i * dim + i].real();
  }
  return probs;
}

Mat2 DensityMatrix::reduced_single_qubit(std::size_t wire) const {
  check_wire(wire, "DensityMatrix::reduced_single_qubit");
  const std::size_t dim = dimension();
  const std::size_t mask = std::size_t{1} << (num_qubits() - 1 - wire);
  const std::span<const Complex> e = elements();
  Mat2 reduced{Complex{0, 0}, Complex{0, 0}, Complex{0, 0}, Complex{0, 0}};
  for (std::size_t i = 0; i < dim; ++i) {
    // Pair i with j = i ^ mask; diagonal blocks accumulate by wire bit.
    const bool bit = (i & mask) != 0;
    if (bit) {
      reduced.m11 += e[i * dim + i];
    } else {
      reduced.m00 += e[i * dim + i];
      reduced.m01 += e[i * dim + (i | mask)];
      reduced.m10 += e[(i | mask) * dim + i];
    }
  }
  return reduced;
}

double DensityMatrix::hermiticity_error() const {
  const std::size_t dim = dimension();
  const std::span<const Complex> e = elements();
  double worst = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      worst = std::max(worst,
                       std::abs(e[i * dim + j] - std::conj(e[j * dim + i])));
    }
  }
  return worst;
}

Mat2 reduced_single_qubit(const StateVector& state, std::size_t wire) {
  if (wire >= state.num_qubits()) {
    throw std::out_of_range("reduced_single_qubit: wire out of range");
  }
  const std::size_t q = state.num_qubits();
  const std::size_t mask = std::size_t{1} << (q - 1 - wire);
  const auto amps = state.amplitudes();
  Mat2 reduced{Complex{0, 0}, Complex{0, 0}, Complex{0, 0}, Complex{0, 0}};
  for (std::size_t i = 0; i < amps.size(); ++i) {
    if ((i & mask) != 0) continue;
    const Complex a0 = amps[i];
    const Complex a1 = amps[i | mask];
    reduced.m00 += a0 * std::conj(a0);
    reduced.m01 += a0 * std::conj(a1);
    reduced.m10 += a1 * std::conj(a0);
    reduced.m11 += a1 * std::conj(a1);
  }
  return reduced;
}

}  // namespace qhdl::quantum

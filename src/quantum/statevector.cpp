#include "quantum/statevector.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace qhdl::quantum {

StateVector::StateVector(std::size_t num_qubits)
    : StateVectorBatch(num_qubits, 1) {}

StateVector::StateVector(std::vector<Complex> amplitudes)
    : StateVectorBatch(std::move(amplitudes)) {}

void StateVector::set_basis_state(std::size_t basis_index) {
  if (basis_index >= dimension()) {
    throw std::out_of_range("StateVector::set_basis_state: index out of range");
  }
  const auto amps = amplitudes();
  std::fill(amps.begin(), amps.end(), Complex{0.0, 0.0});
  amps[basis_index] = Complex{1.0, 0.0};
}

void StateVector::scale(Complex factor) {
  for (auto& a : amplitudes()) a *= factor;
}

double StateVector::expval_pauli_z(std::size_t wire) const {
  double value = 0.0;
  StateVectorBatch::expval_pauli_z(wire, {&value, 1});
  return value;
}

double StateVector::probability(std::size_t basis_index) const {
  if (basis_index >= dimension()) {
    throw std::out_of_range("StateVector::probability: index out of range");
  }
  return std::norm(amplitudes()[basis_index]);
}

std::vector<double> StateVector::probabilities() const {
  std::vector<double> probs(dimension());
  for (std::size_t i = 0; i < dimension(); ++i) {
    probs[i] = std::norm(amplitudes()[i]);
  }
  return probs;
}

double StateVector::norm_squared() const {
  double total = 0.0;
  for (const auto& a : amplitudes()) total += std::norm(a);
  return total;
}

Complex StateVector::inner_product(const StateVector& other) const {
  if (other.dimension() != dimension()) {
    throw std::invalid_argument("inner_product: dimension mismatch");
  }
  const auto lhs = amplitudes();
  const auto rhs = other.amplitudes();
  Complex total{0.0, 0.0};
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    total += std::conj(lhs[i]) * rhs[i];
  }
  return total;
}

std::string StateVector::to_string() const {
  const auto amps = amplitudes();
  const std::size_t qubits = num_qubits();
  std::ostringstream oss;
  bool first = true;
  for (std::size_t i = 0; i < amps.size(); ++i) {
    if (std::abs(amps[i]) < 1e-12) continue;
    if (!first) oss << " + ";
    first = false;
    oss.precision(4);
    oss << std::fixed << "(" << amps[i].real() << (amps[i].imag() >= 0 ? "+" : "")
        << amps[i].imag() << "i)|";
    for (std::size_t b = 0; b < qubits; ++b) {
      oss << (((i >> (qubits - 1 - b)) & 1) ? '1' : '0');
    }
    oss << "⟩";
  }
  if (first) oss << "0";
  return oss.str();
}

}  // namespace qhdl::quantum

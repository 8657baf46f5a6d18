#include "quantum/executor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "test_helpers.hpp"

namespace qhdl::quantum {
namespace {

Executor make_executor(DiffMethod method) {
  Circuit c{2};
  c.parameterized_gate(GateType::RY, 0, 0);
  c.gate(GateType::CNOT, 0, 1);
  c.parameterized_gate(GateType::RX, 1, 1);
  std::vector<Observable> observables{Observable::pauli_z(0),
                                      Observable::pauli_z(1)};
  return Executor{std::move(c), std::move(observables), method};
}

TEST(Executor, RunReturnsPerObservableExpectations) {
  const Executor ex = make_executor(DiffMethod::Adjoint);
  const std::vector<double> params{0.4, -0.9};
  const auto expectations = ex.run(params);
  ASSERT_EQ(expectations.size(), 2u);
  EXPECT_NEAR(expectations[0], std::cos(0.4), 1e-12);
}

TEST(Executor, RequiresObservables) {
  Circuit c{1};
  EXPECT_THROW(Executor(std::move(c), {}), std::invalid_argument);
}

TEST(Executor, AdjointAndShiftAgreeOnVjp) {
  const Executor adjoint = make_executor(DiffMethod::Adjoint);
  const Executor shift = make_executor(DiffMethod::ParameterShift);
  const std::vector<double> params{0.8, 1.7};
  const std::vector<double> upstream{0.6, -0.3};

  const auto a = adjoint.run_with_vjp(params, upstream);
  const auto s = shift.run_with_vjp(params, upstream);

  ASSERT_EQ(a.gradient.size(), s.gradient.size());
  for (std::size_t i = 0; i < a.gradient.size(); ++i) {
    EXPECT_NEAR(a.gradient[i], s.gradient[i], 1e-10);
  }
  for (std::size_t k = 0; k < a.expectations.size(); ++k) {
    EXPECT_NEAR(a.expectations[k], s.expectations[k], 1e-12);
  }
}

TEST(Executor, VjpUpstreamSizeValidated) {
  const Executor ex = make_executor(DiffMethod::Adjoint);
  const std::vector<double> params{0.1, 0.2};
  EXPECT_THROW(ex.run_with_vjp(params, std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(Executor, RunWithVjpBatchValidatesInputs) {
  // Every differentiation path checks the stride and the params size before
  // it reads a row: adjoint with Z heads, parameter-shift, and adjoint with
  // a non-diagonal observable.
  Circuit circuit{2};
  circuit.parameterized_gate(GateType::RY, 0, 0);
  circuit.gate(GateType::CNOT, 0, 1);
  circuit.parameterized_gate(GateType::RX, 1, 1);
  PauliWord x0;
  x0.factors = {Pauli::X};
  x0.wires = {0};
  const Executor executors[] = {
      make_executor(DiffMethod::Adjoint),
      make_executor(DiffMethod::ParameterShift),
      Executor{circuit, {Observable{x0}, Observable::pauli_z(1)}}};
  constexpr std::size_t kRows = 2;
  const std::vector<double> upstream(kRows * 2, 0.5);
  std::vector<double> gradient(kRows * 2);
  for (const Executor& executor : executors) {
    // Stride below the circuit's two parameters.
    EXPECT_THROW(executor.run_with_vjp_batch(std::vector<double>(kRows, 0.1),
                                             1, kRows, upstream, gradient),
                 std::invalid_argument);
    // One row's worth of params short, and one value long.
    EXPECT_THROW(executor.run_with_vjp_batch(std::vector<double>(2, 0.1), 2,
                                             kRows, upstream, gradient),
                 std::invalid_argument);
    EXPECT_THROW(executor.run_with_vjp_batch(std::vector<double>(5, 0.1), 2,
                                             kRows, upstream, gradient),
                 std::invalid_argument);
    // Well-formed input runs.
    EXPECT_NO_THROW(executor.run_with_vjp_batch(
        std::vector<double>(kRows * 2, 0.1), 2, kRows, upstream, gradient));
  }
}

TEST(Executor, NonDiagonalAdjointBatchMatchesEachRow) {
  // X/Y observables: one batched forward and sweep, each row bitwise the
  // row's own run_with_vjp.
  Circuit circuit{2};
  circuit.parameterized_gate(GateType::RY, 0, 0);
  circuit.gate(GateType::CNOT, 0, 1);
  circuit.parameterized_gate(GateType::RX, 1, 1);
  circuit.parameterized_gate(GateType::CRZ, 2, 1, 0);
  PauliWord xy;
  xy.factors = {Pauli::X, Pauli::Y};
  xy.wires = {0, 1};
  Observable mixed{xy};
  mixed.add_term(0.5, PauliWord::z(1));
  const Executor executor{circuit, {mixed, Observable::pauli_z(0)}};
  const std::vector<double> params{0.3, -1.2, 0.8, 0.3, 2.1, -0.4,
                                   1.7, -1.2, 0.9};
  const std::vector<double> upstream{0.6, -0.3, 0.0, 1.1, -0.8, 0.2};
  std::vector<double> gradient(9);
  executor.run_with_vjp_batch(params, 3, 3, upstream, gradient);
  for (std::size_t b = 0; b < 3; ++b) {
    const AdjointVjpResult row = executor.run_with_vjp(
        std::span<const double>{params}.subspan(b * 3, 3),
        std::span<const double>{upstream}.subspan(b * 2, 2));
    for (std::size_t p = 0; p < 3; ++p) {
      EXPECT_EQ(gradient[b * 3 + p], row.gradient[p])
          << "row " << b << " param " << p;
    }
  }
}

TEST(Executor, JacobianMethodsAgree) {
  const Executor adjoint = make_executor(DiffMethod::Adjoint);
  const Executor shift = make_executor(DiffMethod::ParameterShift);
  const std::vector<double> params{-0.5, 1.1};
  const auto ja = adjoint.jacobian(params);
  const auto js = shift.jacobian(params);
  ASSERT_EQ(ja.size(), 2u);
  ASSERT_EQ(js.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_NEAR(ja[k][j], js[k][j], 1e-10) << "obs " << k << " param " << j;
    }
  }
}

TEST(Executor, AccessorsReportStructure) {
  const Executor ex = make_executor(DiffMethod::Adjoint);
  EXPECT_EQ(ex.observable_count(), 2u);
  EXPECT_EQ(ex.parameter_count(), 2u);
  EXPECT_EQ(ex.diff_method(), DiffMethod::Adjoint);
  EXPECT_EQ(ex.circuit().num_qubits(), 2u);
}

}  // namespace
}  // namespace qhdl::quantum

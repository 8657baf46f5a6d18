#include "quantum/kernels.hpp"

#include <atomic>
#include <sstream>

namespace qhdl::quantum {

std::string KernelStatsSnapshot::to_string() const {
  std::ostringstream oss;
  oss << "kernel dispatches: diagonal=" << diagonal
      << " real_rotation=" << real_rotation << " permutation=" << permutation
      << " controlled=" << controlled << " double_flip=" << double_flip
      << " generic=" << generic << " two_qubit_dense=" << two_qubit_dense
      << " (fused_chains=" << fused
      << " absorbing " << fused_gates << " gates, batched_rows="
      << batched_rows << ")";
  return oss.str();
}

namespace kernels {

namespace {

struct Counters {
  std::atomic<std::uint64_t> diagonal{0};
  std::atomic<std::uint64_t> real_rotation{0};
  std::atomic<std::uint64_t> permutation{0};
  std::atomic<std::uint64_t> controlled{0};
  std::atomic<std::uint64_t> double_flip{0};
  std::atomic<std::uint64_t> generic{0};
  std::atomic<std::uint64_t> two_qubit_dense{0};
  std::atomic<std::uint64_t> fused{0};
  std::atomic<std::uint64_t> fused_gates{0};
  std::atomic<std::uint64_t> batched_rows{0};
};

Counters& counters() {
  static Counters instance;
  return instance;
}

inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t by = 1) {
  c.fetch_add(by, std::memory_order_relaxed);
}

}  // namespace

void count_diagonal() { bump(counters().diagonal); }
void count_real_rotation() { bump(counters().real_rotation); }
void count_permutation() { bump(counters().permutation); }
void count_controlled() { bump(counters().controlled); }
void count_double_flip() { bump(counters().double_flip); }
void count_generic() { bump(counters().generic); }
void count_two_qubit_dense() { bump(counters().two_qubit_dense); }
void count_fused(std::uint64_t gates_absorbed) {
  bump(counters().fused);
  bump(counters().fused_gates, gates_absorbed);
}
void count_batched_rows(std::uint64_t rows) {
  bump(counters().batched_rows, rows);
}

KernelStatsSnapshot stats() {
  const Counters& c = counters();
  KernelStatsSnapshot snapshot;
  snapshot.diagonal = c.diagonal.load(std::memory_order_relaxed);
  snapshot.real_rotation = c.real_rotation.load(std::memory_order_relaxed);
  snapshot.permutation = c.permutation.load(std::memory_order_relaxed);
  snapshot.controlled = c.controlled.load(std::memory_order_relaxed);
  snapshot.double_flip = c.double_flip.load(std::memory_order_relaxed);
  snapshot.generic = c.generic.load(std::memory_order_relaxed);
  snapshot.two_qubit_dense = c.two_qubit_dense.load(std::memory_order_relaxed);
  snapshot.fused = c.fused.load(std::memory_order_relaxed);
  snapshot.fused_gates = c.fused_gates.load(std::memory_order_relaxed);
  snapshot.batched_rows = c.batched_rows.load(std::memory_order_relaxed);
  return snapshot;
}

void reset_stats() {
  Counters& c = counters();
  c.diagonal.store(0, std::memory_order_relaxed);
  c.real_rotation.store(0, std::memory_order_relaxed);
  c.permutation.store(0, std::memory_order_relaxed);
  c.controlled.store(0, std::memory_order_relaxed);
  c.double_flip.store(0, std::memory_order_relaxed);
  c.generic.store(0, std::memory_order_relaxed);
  c.two_qubit_dense.store(0, std::memory_order_relaxed);
  c.fused.store(0, std::memory_order_relaxed);
  c.fused_gates.store(0, std::memory_order_relaxed);
  c.batched_rows.store(0, std::memory_order_relaxed);
}

}  // namespace kernels
}  // namespace qhdl::quantum

// The counter registry (util/metrics.hpp): exact concurrent sums, monotonic
// snapshots, reset, merge, and the dotted-name JSON nesting.
#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace qhdl::util {
namespace {

TEST(Metrics, ConcurrentAddsSumExactlyAndSnapshotsNeverGoBackwards) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAdds = 100000;
  Metrics metrics;
  Counter& ones = metrics.counter("ones");
  Counter& twos = metrics.counter("group.twos");

  std::atomic<bool> done{false};
  std::uint64_t last_ones = 0;
  std::uint64_t last_twos = 0;
  bool backwards = false;
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const MetricsSnapshot snapshot = metrics.snapshot();
      const std::uint64_t o = snapshot.at("ones");
      const std::uint64_t t = snapshot.at("group.twos");
      if (o < last_ones || t < last_twos) backwards = true;
      last_ones = o;
      last_twos = t;
    }
  });
  std::vector<std::thread> writers;
  for (int i = 0; i < kThreads; ++i) {
    writers.emplace_back([&] {
      for (std::uint64_t n = 0; n < kAdds; ++n) {
        ones.add();
        twos.add(2);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_FALSE(backwards);
  const MetricsSnapshot snapshot = metrics.snapshot();
  EXPECT_EQ(snapshot.at("ones"), kThreads * kAdds);
  EXPECT_EQ(snapshot.at("group.twos"), 2 * kThreads * kAdds);
}

TEST(Metrics, CounterRegistrationIsIdempotentAndAddressStable) {
  Metrics metrics;
  Counter& first = metrics.counter("a");
  for (int i = 0; i < 100; ++i) metrics.counter(std::to_string(i));
  EXPECT_EQ(&metrics.counter("a"), &first);
  first.add(3);
  EXPECT_EQ(metrics.snapshot().at("a"), 3u);
  EXPECT_EQ(metrics.snapshot().at("7"), 0u);
  EXPECT_THROW((void)metrics.snapshot().at("missing"), std::out_of_range);
}

TEST(Metrics, ResetZeroesEveryCounterAndKeepsTheNames) {
  Metrics metrics;
  Counter& a = metrics.counter("a");
  Counter& b = metrics.counter("x.b");
  a.add(5);
  b.add(7);
  metrics.reset();
  const MetricsSnapshot snapshot = metrics.snapshot();
  EXPECT_EQ(snapshot.values.size(), 2u);
  EXPECT_EQ(snapshot.at("a"), 0u);
  EXPECT_EQ(snapshot.at("x.b"), 0u);
  a.add();  // the references stay live across a reset
  EXPECT_EQ(metrics.snapshot().at("a"), 1u);
}

TEST(Metrics, MergeAddsIntoRegisteredNamesOnly) {
  Metrics pool;
  pool.counter("pool_restarts").add(2);
  pool.counter("pool_remote_lost").add(9);

  Metrics server;
  server.counter("pool_restarts").add(1);
  server.counter("accepted");
  server.merge(pool.snapshot());
  server.merge(pool.snapshot());

  const MetricsSnapshot snapshot = server.snapshot();
  EXPECT_EQ(snapshot.at("pool_restarts"), 5u);
  EXPECT_EQ(snapshot.at("accepted"), 0u);
  // The server never registered pool_remote_lost, so its name set is
  // unchanged by the merge.
  EXPECT_EQ(snapshot.values.count("pool_remote_lost"), 0u);
  EXPECT_EQ(snapshot.values.size(), 2u);
}

TEST(Metrics, ToJsonNestsDottedNames) {
  Metrics metrics;
  metrics.counter("accepted").add(2);
  metrics.counter("cache.unit_hits").add(3);
  metrics.counter("cache.unit_misses");
  metrics.counter("a.b.c").add(4);
  EXPECT_EQ(metrics.snapshot().to_json().dump(),
            "{\"a\":{\"b\":{\"c\":4}},\"accepted\":2,"
            "\"cache\":{\"unit_hits\":3,\"unit_misses\":0}}");
  EXPECT_EQ(metrics.snapshot().to_string(),
            "a.b.c=4 accepted=2 cache.unit_hits=3 cache.unit_misses=0");
}

TEST(Metrics, GlobalRegistryListsKernelAndFastpathCounters) {
  const MetricsSnapshot snapshot = Metrics::global().snapshot();
  for (const char* name :
       {"kernel.diagonal", "kernel.permutation", "kernel.controlled",
        "kernel.double_flip", "kernel.generic", "kernel.two_qubit_dense",
        "kernel.fused", "kernel.fused_gates", "kernel.batched_rows",
        "fastpath.workspace_runs",
        "fastpath.module_runs", "fastpath.workspace_steps"}) {
    EXPECT_EQ(snapshot.values.count(name), 1u) << name;
  }
}

}  // namespace
}  // namespace qhdl::util

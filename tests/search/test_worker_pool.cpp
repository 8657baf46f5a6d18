// Supervised multi-process execution (DESIGN.md §11).
//
// The golden property throughout: a sweep executed on crash-isolated worker
// processes is byte-identical to the in-process sweep — including when
// workers are killed by signals, wedge silently, or emit garbage, as long
// as the retry budget absorbs the failures (retries reuse the same shipped
// RNG streams). Tests that exhaust the budget instead pin the quarantine
// path: the sweep completes with the poisoned units excluded from means.
//
// These tests spawn REAL worker processes: the shared test main dispatches
// --worker-mode to search::worker_main, so this binary is its own worker.
#include "search/worker_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "core/config.hpp"
#include "search/checkpoint.hpp"
#include "search/results.hpp"
#include "util/deadline.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"
#include "util/subprocess.hpp"

namespace qhdl::search {
namespace {

/// Tiny but non-trivial: 3 candidates x 2 runs at one level, threshold
/// unreachable so every candidate is evaluated (deterministic unit count).
SweepConfig sweep_config() {
  SweepConfig config = core::test_scale();
  config.search.runs_per_model = 2;
  config.search.repetitions = 1;
  config.search.train.epochs = 2;
  config.search.max_candidates = 3;
  config.search.prune_margin = 0.0;
  config.search.accuracy_threshold = 1.1;
  config.search.run_retries = 1;
  config.search.threads = 2;
  return config;
}

std::string sweep_bytes(const SweepConfig& config, WorkerPool* pool) {
  return sweep_to_json(
             run_complexity_sweep(Family::Classical, config, nullptr, pool))
      .dump(2);
}

// --- protocol codecs ------------------------------------------------------

TEST(WorkerProtocol, FrameReaderReassemblesSplitFrames) {
  FrameReader reader;
  const std::string payload = "{\"type\":\"heartbeat\"}";
  const auto length = static_cast<std::uint32_t>(payload.size());
  std::string wire;
  wire.push_back(static_cast<char>((length >> 24) & 0xff));
  wire.push_back(static_cast<char>((length >> 16) & 0xff));
  wire.push_back(static_cast<char>((length >> 8) & 0xff));
  wire.push_back(static_cast<char>(length & 0xff));
  wire += payload;
  wire += wire;  // two identical frames back to back

  // Feed one byte at a time: frames must reassemble across arbitrary pipe
  // read boundaries.
  std::size_t complete = 0;
  for (char c : wire) {
    reader.feed(&c, 1);
    while (auto frame = reader.next()) {
      EXPECT_EQ(*frame, payload);
      ++complete;
    }
  }
  EXPECT_EQ(complete, 2u);
}

TEST(WorkerProtocol, FrameReaderRejectsOversizedLength) {
  FrameReader reader;
  const char junk[4] = {0x7f, 0x7f, 0x7f, 0x7f};  // ~2 GB length prefix
  reader.feed(junk, 4);
  EXPECT_THROW(reader.next(), ProtocolError);
}

TEST(WorkerProtocol, SweepConfigRoundTripsEveryResultAffectingField) {
  SweepConfig config = sweep_config();
  config.search.seed = 0xfedcba9876543210ULL;  // must survive as a string
  config.dataset_seed = 0xffffffffffffffffULL;
  const SweepConfig back =
      sweep_config_from_json(sweep_config_to_json(config));
  // sweep_config_hash covers every result-affecting field, so equal hashes
  // mean the worker will reproduce the supervisor's protocol exactly.
  EXPECT_EQ(sweep_config_hash(back), sweep_config_hash(config));
  EXPECT_EQ(back.search.seed, config.search.seed);
  EXPECT_EQ(back.dataset_seed, config.dataset_seed);
}

TEST(WorkerProtocol, SweepConfigRejectsNonIntegralCounts) {
  // A negative, fractional or out-of-range count is an error naming the
  // field, never a cast of the double to size_t (undefined behaviour).
  for (const double bad : {-1.0, 1.5, 1e300}) {
    util::Json json = sweep_config_to_json(sweep_config());
    json["search"]["runs_per_model"] = bad;
    try {
      (void)sweep_config_from_json(json);
      ADD_FAILURE() << "runs_per_model = " << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("'runs_per_model'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(WorkerProtocol, RngRoundTripResumesExactSequence) {
  util::Rng rng{12345};
  (void)rng.normal();  // populate the Box-Muller cache mid-pair
  util::Rng restored = rng_from_json(rng_to_json(rng));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(restored.next_u64(), rng.next_u64());
    EXPECT_EQ(restored.normal(), rng.normal());
  }
}

TEST(WorkerProtocol, WorkUnitRoundTrips) {
  WorkUnit unit;
  unit.key = UnitKey{"classical", 6, 1, 2};
  unit.spec = ModelSpec::make_classical({4, 8});
  util::Rng base{7};
  unit.streams = {base.split(), base.split()};
  const WorkUnit back = work_unit_from_json(work_unit_to_json(unit));
  EXPECT_EQ(back.key.to_string(), unit.key.to_string());
  EXPECT_EQ(back.spec.to_string(), unit.spec.to_string());
  ASSERT_EQ(back.streams.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    util::Rng a = unit.streams[i];
    util::Rng b = back.streams[i];
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(WorkerProtocol, EvaluateUnitRejectsWidthOutsideTheConfig) {
  // The width sizes the derived dataset: only the config's levels are
  // evaluated, and the error names the field before any data is built.
  SweepConfig config = sweep_config();
  config.feature_sizes = {10};
  WorkUnit unit;
  unit.key = UnitKey{"classical", 11, 0, 0};
  unit.spec = ModelSpec::make_classical({2});
  unit.streams = {util::Rng{1}, util::Rng{2}};
  try {
    (void)evaluate_unit(config, unit);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string{error.what()}.find("'features'"), std::string::npos)
        << error.what();
  }
}

// --- framing hardening (PR-9) ---------------------------------------------

#if defined(__unix__) || defined(__APPLE__)

/// A pipe whose write end we control byte-by-byte, standing in for a
/// misbehaving peer on the other side of read_frame().
struct PipePair {
  int fds[2] = {-1, -1};
  PipePair() { EXPECT_EQ(pipe(fds), 0); }
  ~PipePair() {
    if (fds[0] >= 0) close(fds[0]);
    if (fds[1] >= 0) close(fds[1]);
  }
  void write_bytes(const std::string& bytes) {
    ASSERT_EQ(::write(fds[1], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }
  void close_writer() {
    close(fds[1]);
    fds[1] = -1;
  }
};

TEST(WorkerProtocolFraming, FrameWireAcceptsCapRejectsBeyondNamingLength) {
  // Exactly at the 16 MB cap is legal...
  const std::string at_cap(kMaxFrameBytes, 'x');
  EXPECT_EQ(frame_wire(at_cap).size(), at_cap.size() + 4);
  // ...one byte beyond is refused, and the error names the actual length
  // so a truncated log line still identifies the offender.
  const std::string beyond(kMaxFrameBytes + 1, 'x');
  try {
    frame_wire(beyond);
    FAIL() << "oversized frame was not rejected";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("16777217"), std::string::npos)
        << e.what();
  }
}

TEST(WorkerProtocolFraming, OversizedLengthPrefixErrorNamesLength) {
  FrameReader reader;
  // Big-endian 0x01000001 = kMaxFrameBytes + 1.
  const char prefix[4] = {0x01, 0x00, 0x00, 0x01};
  reader.feed(prefix, 4);
  try {
    (void)reader.next();
    FAIL() << "garbage length prefix was not rejected";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("16777217"), std::string::npos)
        << e.what();
  }
}

TEST(WorkerProtocolFraming, ReadFrameReturnsFrameThenCleanEof) {
  PipePair pipe_pair;
  pipe_pair.write_bytes(frame_wire("{\"type\":\"ready\"}"));
  pipe_pair.close_writer();
  FrameReader reader;
  std::string payload;
  EXPECT_EQ(read_frame(pipe_pair.fds[0], reader,
                       util::Deadline::after_ms(2000), &payload),
            FrameReadStatus::Frame);
  EXPECT_EQ(payload, "{\"type\":\"ready\"}");
  // The peer closed at a frame boundary: that is a clean EOF, not an error.
  EXPECT_EQ(read_frame(pipe_pair.fds[0], reader,
                       util::Deadline::after_ms(2000), &payload),
            FrameReadStatus::Eof);
}

TEST(WorkerProtocolFraming, MidFrameEofNamesHowMuchArrived) {
  PipePair pipe_pair;
  // Header promises a 10-byte payload; only 3 bytes ever arrive.
  const char header[4] = {0x00, 0x00, 0x00, 0x0a};
  pipe_pair.write_bytes(std::string(header, 4) + "abc");
  pipe_pair.close_writer();
  FrameReader reader;
  std::string payload;
  try {
    (void)read_frame(pipe_pair.fds[0], reader, util::Deadline::after_ms(2000),
                     &payload);
    FAIL() << "truncated frame was not rejected";
  } catch (const ProtocolError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
    EXPECT_NE(what.find("3 of 10"), std::string::npos) << what;
  }
}

TEST(WorkerProtocolFraming, MidHeaderEofIsAlsoTruncation) {
  PipePair pipe_pair;
  pipe_pair.write_bytes(std::string("\x00\x00", 2));  // half a header
  pipe_pair.close_writer();
  FrameReader reader;
  std::string payload;
  try {
    (void)read_frame(pipe_pair.fds[0], reader, util::Deadline::after_ms(2000),
                     &payload);
    FAIL() << "truncated header was not rejected";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("2 of 4"), std::string::npos)
        << e.what();
  }
}

TEST(WorkerProtocolFraming, ReadFrameTimesOutOnSilentPeer) {
  // A peer that connects and then sends nothing must not wedge the reader:
  // the deadline converts the hang into a Timeout the caller can act on.
  PipePair pipe_pair;
  FrameReader reader;
  std::string payload;
  const std::uint64_t start = util::monotonic_now_ms();
  EXPECT_EQ(read_frame(pipe_pair.fds[0], reader,
                       util::Deadline::after_ms(150), &payload),
            FrameReadStatus::Timeout);
  const std::uint64_t elapsed = util::monotonic_now_ms() - start;
  EXPECT_GE(elapsed, 100u);
  EXPECT_LT(elapsed, 5000u);
  // Nothing consumed, nothing buffered: a later retry starts clean.
  EXPECT_FALSE(reader.mid_frame());
}

TEST(WorkerProtocolFraming, ReadFrameSurvivesHungPeerFault) {
  // The sock=slow site emulates a peer that dribbles nothing for a while:
  // read_frame must keep honoring its deadline rather than block.
  util::FaultInjector::instance().configure("sock=slow@1+");
  PipePair pipe_pair;
  pipe_pair.write_bytes(frame_wire("{}"));
  FrameReader reader;
  std::string payload;
  EXPECT_EQ(read_frame(pipe_pair.fds[0], reader,
                       util::Deadline::after_ms(100), &payload),
            FrameReadStatus::Timeout);
  util::FaultInjector::instance().configure("");
  // With the fault cleared the buffered frame is readable as usual.
  EXPECT_EQ(read_frame(pipe_pair.fds[0], reader,
                       util::Deadline::after_ms(2000), &payload),
            FrameReadStatus::Frame);
  EXPECT_EQ(payload, "{}");
}

#endif  // defined(__unix__) || defined(__APPLE__)

// --- golden byte-identity -------------------------------------------------

TEST(WorkerPoolGolden, MultiProcessSweepMatchesInProcessBytes) {
  if (!util::subprocess_supported()) GTEST_SKIP() << "no subprocess support";
  const SweepConfig config = sweep_config();
  const std::string baseline = sweep_bytes(config, nullptr);

  WorkerPoolConfig pool_config;
  pool_config.workers = 4;
  WorkerPool pool{config, pool_config};
  ASSERT_FALSE(pool.degraded()) << pool.degraded_reason();
  EXPECT_EQ(sweep_bytes(config, &pool), baseline);
  const util::MetricsSnapshot stats = pool.metrics();
  EXPECT_EQ(stats.at("pool_retried_units"), 0u);
  EXPECT_EQ(stats.at("pool_quarantined_units"), 0u);
}

// --- dispatch latency -----------------------------------------------------

TEST(WorkerPoolDispatch, IdlePoolDispatchesQueuedUnitWithoutWaitingForTick) {
  if (!util::subprocess_supported()) GTEST_SKIP() << "no subprocess support";
  // A unit queued on an idle pool must wake the dispatcher, not wait out
  // its 50 ms poll tick: each evaluate() below would take >= 45 ms then.
  SweepConfig config = sweep_config();
  config.search.runs_per_model = 1;
  config.search.train.epochs = 1;
  WorkerPoolConfig pool_config;
  pool_config.workers = 1;
  WorkerPool pool{config, pool_config};
  ASSERT_FALSE(pool.degraded()) << pool.degraded_reason();

  const auto unit = [&](std::size_t candidate) {
    WorkUnit u;
    u.key = UnitKey{"classical", config.feature_sizes.front(), 0, candidate};
    u.spec = ModelSpec::make_classical({2});
    u.streams = {util::Rng{candidate + 1}};
    return u;
  };
  // Warm-up: worker start-up and dataset generation are not dispatch.
  ASSERT_EQ(pool.evaluate({unit(0)}).size(), 1u);

  using Clock = std::chrono::steady_clock;
  Clock::duration total{};
  for (std::size_t i = 1; i <= 10; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));  // go idle
    const auto start = Clock::now();
    ASSERT_EQ(pool.evaluate({unit(i)}).size(), 1u);
    total += Clock::now() - start;
  }
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(total)
                .count(),
            10 * 20);
}

// --- supervised failure handling -----------------------------------------

/// Runs the pooled sweep with a fault spec armed in the WORKERS only (the
/// supervisor's injector never sees it) and returns the result bytes.
std::string faulted_sweep_bytes(const SweepConfig& config,
                                const std::string& fault_spec,
                                WorkerPoolConfig pool_config,
                                util::MetricsSnapshot* stats_out = nullptr) {
  pool_config.worker_env = {"QHDL_FAULT_SPEC=" + fault_spec};
  WorkerPool pool{config, pool_config};
  EXPECT_FALSE(pool.degraded()) << pool.degraded_reason();
  const std::string bytes = sweep_bytes(config, &pool);
  if (stats_out != nullptr) *stats_out = pool.metrics();
  return bytes;
}

TEST(WorkerPoolFaults, CrashedWorkerIsRespawnedAndUnitRetried) {
  if (!util::subprocess_supported()) GTEST_SKIP() << "no subprocess support";
  const SweepConfig config = sweep_config();
  const std::string baseline = sweep_bytes(config, nullptr);

  // Every worker instance std::abort()s on its 2nd unit (fresh per-process
  // counters), so respawned workers make progress one unit at a time.
  WorkerPoolConfig pool_config;
  pool_config.workers = 2;
  pool_config.backoff_initial_ms = 50;
  util::MetricsSnapshot stats;
  EXPECT_EQ(faulted_sweep_bytes(config, "worker=crash@2", pool_config,
                                &stats),
            baseline);
  EXPECT_GT(stats.at("pool_restarts"), 0u);
  EXPECT_GT(stats.at("pool_retried_units"), 0u);
  EXPECT_EQ(stats.at("pool_quarantined_units"), 0u);
}

TEST(WorkerPoolFaults, HungWorkerIsKilledByUnitDeadline) {
  if (!util::subprocess_supported()) GTEST_SKIP() << "no subprocess support";
  const SweepConfig config = sweep_config();
  const std::string baseline = sweep_bytes(config, nullptr);

  // The hang emits nothing at all; with a generous heartbeat budget the
  // per-unit deadline is what must reap it.
  WorkerPoolConfig pool_config;
  pool_config.workers = 2;
  pool_config.unit_timeout_ms = 1500;
  pool_config.heartbeat_timeout_ms = 60000;
  pool_config.backoff_initial_ms = 50;
  util::MetricsSnapshot stats;
  EXPECT_EQ(
      faulted_sweep_bytes(config, "worker=hang@2", pool_config, &stats),
      baseline);
  EXPECT_GT(stats.at("pool_restarts"), 0u);
  EXPECT_GT(stats.at("pool_retried_units"), 0u);
  EXPECT_EQ(stats.at("pool_quarantined_units"), 0u);
}

TEST(WorkerPoolFaults, HungWorkerIsKilledByHeartbeatLiveness) {
  if (!util::subprocess_supported()) GTEST_SKIP() << "no subprocess support";
  const SweepConfig config = sweep_config();
  const std::string baseline = sweep_bytes(config, nullptr);

  // No unit deadline at all: heartbeat silence alone must reap the hang.
  WorkerPoolConfig pool_config;
  pool_config.workers = 2;
  pool_config.unit_timeout_ms = 0;
  pool_config.heartbeat_interval_ms = 100;
  pool_config.heartbeat_timeout_ms = 700;
  pool_config.backoff_initial_ms = 50;
  util::MetricsSnapshot stats;
  EXPECT_EQ(
      faulted_sweep_bytes(config, "worker=hang@2", pool_config, &stats),
      baseline);
  EXPECT_GT(stats.at("pool_restarts"), 0u);
  EXPECT_GT(stats.at("pool_retried_units"), 0u);
  EXPECT_EQ(stats.at("pool_quarantined_units"), 0u);
}

TEST(WorkerPoolFaults, GarbageEmittingWorkerIsKilledAndUnitRetried) {
  if (!util::subprocess_supported()) GTEST_SKIP() << "no subprocess support";
  const SweepConfig config = sweep_config();
  const std::string baseline = sweep_bytes(config, nullptr);

  WorkerPoolConfig pool_config;
  pool_config.workers = 2;
  pool_config.backoff_initial_ms = 50;
  util::MetricsSnapshot stats;
  EXPECT_EQ(faulted_sweep_bytes(config, "worker=garbage@2", pool_config,
                                &stats),
            baseline);
  EXPECT_GT(stats.at("pool_restarts"), 0u);
  EXPECT_GT(stats.at("pool_retried_units"), 0u);
  EXPECT_EQ(stats.at("pool_quarantined_units"), 0u);
}

TEST(WorkerPoolFaults, ExhaustedRetriesQuarantineUnitsAndSweepCompletes) {
  if (!util::subprocess_supported()) GTEST_SKIP() << "no subprocess support";
  const SweepConfig config = sweep_config();

  // Every attempt of every unit crashes; with 1 retry each unit burns its
  // 2 attempts and is quarantined. The sweep must still complete.
  WorkerPoolConfig pool_config;
  pool_config.workers = 2;
  pool_config.unit_retries = 1;
  pool_config.backoff_initial_ms = 50;
  pool_config.worker_env = {"QHDL_FAULT_SPEC=worker=crash@1+"};
  WorkerPool pool{config, pool_config};
  ASSERT_FALSE(pool.degraded()) << pool.degraded_reason();

  const SweepResult sweep =
      run_complexity_sweep(Family::Classical, config, nullptr, &pool);
  const SearchOutcome& outcome = sweep.levels.at(0).search.repetitions.at(0);
  ASSERT_EQ(outcome.evaluated.size(), config.search.max_candidates);
  EXPECT_FALSE(outcome.winner.has_value());
  for (const CandidateResult& result : outcome.evaluated) {
    // The PR-4 quarantine shape: zero successful runs (excluded from every
    // mean), the full run budget recorded as failed, and worker-prefixed
    // causes documenting each attempt.
    EXPECT_EQ(result.runs, 0u);
    EXPECT_EQ(result.failed_runs, config.search.runs_per_model);
    EXPECT_FALSE(result.meets_threshold);
    ASSERT_EQ(result.failures.size(), 2u);  // 1 + unit_retries attempts
    for (const RunFailure& failure : result.failures) {
      EXPECT_EQ(failure.cause.rfind("worker:", 0), 0u) << failure.cause;
    }
    // Analytic metadata survives quarantine.
    EXPECT_GT(result.flops, 0.0);
    EXPECT_GT(result.parameter_count, 0u);
  }
  const util::MetricsSnapshot stats = pool.metrics();
  EXPECT_EQ(stats.at("pool_quarantined_units"), config.search.max_candidates);
}

TEST(WorkerPoolFaults, OutOfConfigUnitsGetErrorFramesNamingTheField) {
  if (!util::subprocess_supported()) GTEST_SKIP() << "no subprocess support";
  // A worker serves its sweep's units only: a width outside
  // config.feature_sizes or a repetition past config.search.repetitions is
  // answered with an error frame naming the field (quarantined here, with
  // no retries), not trained.
  SweepConfig config = sweep_config();
  config.feature_sizes = {10};
  WorkerPoolConfig pool_config;
  pool_config.workers = 1;
  pool_config.unit_retries = 0;
  WorkerPool pool{config, pool_config};
  ASSERT_FALSE(pool.degraded()) << pool.degraded_reason();

  const auto unit = [](std::size_t features, std::size_t repetition) {
    WorkUnit u;
    u.key = UnitKey{"classical", features, repetition, 0};
    u.spec = ModelSpec::make_classical({2});
    u.streams = {util::Rng{1}, util::Rng{2}};
    return u;
  };
  const std::vector<CandidateResult> results =
      pool.evaluate({unit(11, 0), unit(10, 1)});
  ASSERT_EQ(results.size(), 2u);
  const std::string fields[] = {"'features'", "'repetition'"};
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].runs, 0u);
    ASSERT_EQ(results[i].failures.size(), 1u);
    EXPECT_NE(results[i].failures[0].cause.find(fields[i]),
              std::string::npos)
        << results[i].failures[0].cause;
  }
  EXPECT_EQ(pool.metrics().at("pool_quarantined_units"), 2u);
}

// --- graceful degradation -------------------------------------------------

TEST(WorkerPoolDegraded, UnspawnableWorkersFallBackToInProcessIdentically) {
  const SweepConfig config = sweep_config();
  const std::string baseline = sweep_bytes(config, nullptr);

  WorkerPoolConfig pool_config;
  pool_config.workers = 2;
  pool_config.worker_command = {"/nonexistent/qhdl-no-such-worker",
                                "--worker-mode"};
  WorkerPool pool{config, pool_config};
  EXPECT_TRUE(pool.degraded());
  EXPECT_FALSE(pool.degraded_reason().empty());
  // Degraded execution is the same arithmetic on the same shipped streams.
  EXPECT_EQ(sweep_bytes(config, &pool), baseline);
}

// --- start on first use ---------------------------------------------------

TEST(WorkerPoolLazyStart, FullyReplayedSweepSpawnsNoWorker) {
  if (!util::subprocess_supported()) GTEST_SKIP() << "no subprocess support";
  namespace fs = std::filesystem;
  // A replayed winner cuts its window, so a fully checkpointed pooled sweep
  // ships no unit, and a pool that never gets a unit never forks. The
  // worker command is a shell wrapper that leaves a marker file before it
  // execs the real worker, so any spawn is visible.
  SweepConfig config = sweep_config();
  config.search.accuracy_threshold = 0.5;
  config.search.train.epochs = 10;
  config.search.max_candidates = 8;
  const std::string baseline = sweep_bytes(config, nullptr);
  ASSERT_NE(baseline.find("\"winner\""), std::string::npos)
      << "no repetition found a winner; the window cut is not exercised";

  const fs::path dir = fs::temp_directory_path();
  const std::string manifest = (dir / "qhdl_lazy_pool.json").string();
  const std::string marker = (dir / "qhdl_lazy_pool.spawned").string();
  fs::remove(manifest);
  fs::remove(marker);
  StudyCheckpoint checkpoint{manifest, sweep_config_hash(config)};
  ASSERT_EQ(sweep_to_json(
                run_complexity_sweep(Family::Classical, config, &checkpoint))
                .dump(2),
            baseline);

  WorkerPoolConfig pool_config;
  pool_config.workers = 2;
  pool_config.worker_command = {"/bin/sh", "-c", "touch \"$0\" && exec \"$@\"",
                                marker, util::current_executable_path(),
                                "--worker-mode"};
  {
    WorkerPool pool{config, pool_config};
    EXPECT_EQ(sweep_to_json(run_complexity_sweep(Family::Classical, config,
                                                 &checkpoint, &pool))
                  .dump(2),
              baseline);
  }
  EXPECT_FALSE(fs::exists(marker)) << "a fully replayed sweep spawned a worker";

  // The wrapper does mark a real spawn, and degraded() counts as a use.
  {
    WorkerPool pool{config, pool_config};
    ASSERT_FALSE(pool.degraded()) << pool.degraded_reason();
    const util::Deadline deadline = util::Deadline::after_ms(10000);
    while (!fs::exists(marker) && !deadline.expired()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(fs::exists(marker));
  fs::remove(manifest);
  fs::remove(marker);
}

TEST(WorkerPoolLazyStart, ConcurrentFirstUseSpawnsEachWorkerOnce) {
  if (!util::subprocess_supported()) GTEST_SKIP() << "no subprocess support";
  namespace fs = std::filesystem;
  // Two sweep levels on two threads reach the fresh pool's first
  // evaluate() together; the pool must start exactly once (one spawn per
  // worker slot, every spawn appending one line to the log) and still
  // return the in-process bytes.
  SweepConfig config = sweep_config();
  config.feature_sizes = {4, 6};
  const std::string baseline = sweep_bytes(config, nullptr);

  const std::string log =
      (fs::temp_directory_path() / "qhdl_lazy_pool.spawns").string();
  fs::remove(log);
  WorkerPoolConfig pool_config;
  pool_config.workers = 2;
  pool_config.worker_command = {"/bin/sh", "-c",
                                "echo spawn >> \"$0\" && exec \"$@\"", log,
                                util::current_executable_path(),
                                "--worker-mode"};
  {
    WorkerPool pool{config, pool_config};
    EXPECT_EQ(sweep_bytes(config, &pool), baseline);
    EXPECT_EQ(pool.metrics().at("pool_restarts"), 0u);
  }
  std::ifstream in{log};
  std::size_t spawns = 0;
  for (std::string line; std::getline(in, line);) ++spawns;
  EXPECT_EQ(spawns, pool_config.workers);
  fs::remove(log);
}

// --- CI fault-matrix leg --------------------------------------------------

// Env-driven like FaultMatrix.*: CI sets QHDL_FAULT_SPEC to a worker-site
// spec; workers inherit it from the environment (the supervisor disarms its
// own injector). Skipped without the env var. CI must select this with an
// anchored regex (^WorkerFaultMatrix\.) — "FaultMatrix" is a substring.
TEST(WorkerFaultMatrix, PooledSweepSurvivesConfiguredWorkerFault) {
  const char* env = std::getenv("QHDL_FAULT_SPEC");
  if (env == nullptr || std::string{env}.find("worker=") == std::string::npos) {
    GTEST_SKIP() << "set QHDL_FAULT_SPEC to a worker= spec to run this";
  }
  if (!util::subprocess_supported()) GTEST_SKIP() << "no subprocess support";
  const std::string spec = env;

  // Disarm the supervisor's injector (it read the env at first touch);
  // workers re-read the inherited variable in their own processes.
  util::FaultInjector::instance().configure("");
  const SweepConfig config = sweep_config();
  const std::string baseline = sweep_bytes(config, nullptr);

  WorkerPoolConfig pool_config;
  pool_config.workers = 2;
  pool_config.unit_timeout_ms = 2000;  // bounds injected hangs
  pool_config.backoff_initial_ms = 50;
  WorkerPool pool{config, pool_config};
  ASSERT_FALSE(pool.degraded()) << pool.degraded_reason();
  const std::string faulted = sweep_bytes(config, &pool);
  const util::MetricsSnapshot stats = pool.metrics();

  if (spec.find('+') != std::string::npos) {
    // Open-ended fault: every attempt fails, so units are quarantined but
    // the sweep still completes (exit 0 in the driver).
    EXPECT_GT(stats.at("pool_quarantined_units"), 0u);
  } else {
    // Bounded fault: retries absorb it and the bytes are the baseline's.
    EXPECT_EQ(faulted, baseline);
    EXPECT_GT(stats.at("pool_retried_units"), 0u);
    EXPECT_EQ(stats.at("pool_quarantined_units"), 0u);
  }
}

}  // namespace
}  // namespace qhdl::search

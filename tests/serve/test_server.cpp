// End-to-end serve-layer tests over real TCP connections: admission
// control, the golden cache-determinism property, per-job deadlines,
// client-disconnect cancellation, and graceful drain.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "search/checkpoint.hpp"
#include "search/experiment.hpp"
#include "search/results.hpp"
#include "search/worker_protocol.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "util/deadline.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"

namespace qhdl::serve {
namespace {

/// Tiny but non-trivial study: 2 candidates x 1 run, threshold unreachable
/// so the unit count is deterministic (2 units).
search::SweepConfig tiny_study() {
  search::SweepConfig config = core::test_scale();
  config.feature_sizes = {4};
  config.search.max_candidates = 2;
  config.search.repetitions = 1;
  config.search.runs_per_model = 1;
  config.search.train.epochs = 2;
  config.search.prune_margin = 0.0;
  config.search.accuracy_threshold = 1.1;
  return config;
}

util::Json sleep_request(int ms) {
  util::Json request = util::Json::object();
  request["type"] = "sleep";
  request["ms"] = ms;
  return request;
}

/// A `train` request for one classical candidate of tiny_study().
util::Json train_request(const search::SweepConfig& config,
                         const search::ModelSpec& spec, double features,
                         double repetition) {
  util::Json request = util::Json::object();
  request["type"] = "train";
  request["config"] = search::sweep_config_to_json(config);
  request["features"] = features;
  request["repetition"] = repetition;
  request["spec"] = search::model_spec_to_json(spec);
  return request;
}

/// Polls `predicate` against the server's stats until it holds or the
/// deadline expires.
bool wait_for_stats(
    const Server& server,
    const std::function<bool(const util::MetricsSnapshot&)>& predicate,
    std::uint64_t budget_ms = 5000) {
  const util::Deadline deadline = util::Deadline::after_ms(budget_ms);
  while (!deadline.expired()) {
    if (predicate(server.metrics())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return predicate(server.metrics());
}

class ServeServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!util::sockets_supported()) GTEST_SKIP() << "no socket support";
    util::FaultInjector::instance().configure("");
  }
  void TearDown() override {
    util::FaultInjector::instance().configure("");
  }
};

TEST_F(ServeServerTest, StartStopIsCleanAndIdempotent) {
  ServerConfig config;
  Server server{config};
  server.start();
  EXPECT_GT(server.port(), 0);
  server.stop();
  server.stop();  // idempotent
  EXPECT_EQ(server.metrics().at("accepted"), 0u);
}

TEST_F(ServeServerTest, PingAndStatsAreServedInline) {
  Server server{ServerConfig{}};
  server.start();
  util::Json request = util::Json::object();
  request["type"] = "ping";
  const util::Json pong =
      round_trip("127.0.0.1", server.port(), request, 5000);
  EXPECT_EQ(pong.at("type").as_string(), "pong");
  EXPECT_EQ(static_cast<int>(pong.at("version").as_number()),
            kServeProtocolVersion);

  request["type"] = "stats";
  const util::Json stats =
      round_trip("127.0.0.1", server.port(), request, 5000);
  EXPECT_EQ(stats.at("type").as_string(), "stats");
  for (const char* key :
       {"accepted", "rejected_overloaded", "jobs_completed", "cache"}) {
    EXPECT_TRUE(stats.contains(key)) << key;
  }
  EXPECT_EQ(static_cast<std::size_t>(stats.at("accepted").as_number()), 2u);
}

// The `stats` wire format: a fresh server's reply, byte for byte. Only the
// stats connection itself has been accepted.
TEST_F(ServeServerTest, FreshStatsReplyBytesArePinned) {
  Server server{ServerConfig{}};
  server.start();
  util::Json request = util::Json::object();
  request["type"] = "stats";
  const util::Json stats =
      round_trip("127.0.0.1", server.port(), request, 5000);
  EXPECT_EQ(stats.dump(),
            "{\"accept_failures\":0,\"accepted\":1,\"cache\":{\"disk_loads\":0,"
            "\"entries\":0,\"evictions\":0,\"unit_hits\":0,\"unit_misses\":0},"
            "\"client_disconnects\":0,\"deadlines_expired\":0,"
            "\"jobs_cancelled\":0,\"jobs_completed\":0,\"jobs_failed\":0,"
            "\"pool_quarantined_units\":0,\"pool_restarts\":0,"
            "\"pool_retried_units\":0,\"pool_steals\":0,"
            "\"progress_frames\":0,\"protocol_errors\":0,\"read_timeouts\":0,"
            "\"rejected_draining\":0,\"rejected_overloaded\":0,"
            "\"type\":\"stats\"}");
}

TEST_F(ServeServerTest, UnknownRequestTypeIsAnErrorNotADisconnect) {
  Server server{ServerConfig{}};
  server.start();
  util::Json request = util::Json::object();
  request["type"] = "frobnicate";
  const util::Json reply =
      round_trip("127.0.0.1", server.port(), request, 5000);
  EXPECT_EQ(reply.at("type").as_string(), "error");
  EXPECT_NE(reply.at("message").as_string().find("frobnicate"),
            std::string::npos);
}

TEST_F(ServeServerTest, DeeplyNestedRequestIsAnErrorNotACrash) {
  Server server{ServerConfig{}};
  server.start();
  // One frame of 100 000 '[': the parser must refuse the nesting depth
  // with an error reply instead of recursing off the end of the stack.
  util::Socket socket = util::connect_tcp("127.0.0.1", server.port());
  ASSERT_TRUE(socket.write_all(search::frame_wire(std::string(100000, '['))));
  search::FrameReader reader;
  std::string payload;
  ASSERT_EQ(search::read_frame(socket.fd(), reader,
                               util::Deadline::after_ms(5000), &payload),
            search::FrameReadStatus::Frame);
  const util::Json reply = util::Json::parse(payload);
  EXPECT_EQ(reply.at("type").as_string(), "error");
  EXPECT_NE(reply.at("message").as_string().find("nesting"),
            std::string::npos)
      << reply.dump(2);
  EXPECT_EQ(server.metrics().at("protocol_errors"), 1u);

  util::Json ping = util::Json::object();
  ping["type"] = "ping";
  EXPECT_EQ(round_trip("127.0.0.1", server.port(), ping, 5000)
                .at("type")
                .as_string(),
            "pong");
}

// The golden property of the serving layer: submitting the same study twice
// returns byte-identical results, with the second pass served entirely from
// the content-addressed cache (counters asserted, not assumed) — and both
// passes byte-identical to a direct in-process sweep.
TEST_F(ServeServerTest, GoldenRepeatedStudyIsCacheServedByteIdentical) {
  const search::SweepConfig config = tiny_study();
  const std::string direct =
      search::sweep_to_json(
          search::run_complexity_sweep(search::Family::Classical, config))
          .dump(2);

  Server server{ServerConfig{}};
  server.start();
  const util::Json request =
      make_study_request(search::Family::Classical, config);

  const util::Json first =
      round_trip("127.0.0.1", server.port(), request, 120000);
  ASSERT_EQ(first.at("type").as_string(), "result");
  // Cold pass: every unit trained.
  EXPECT_EQ(first.at("cache").at("unit_hits").as_number(), 0.0);
  EXPECT_EQ(first.at("cache").at("unit_misses").as_number(), 2.0);

  const util::Json second =
      round_trip("127.0.0.1", server.port(), request, 120000);
  ASSERT_EQ(second.at("type").as_string(), "result");
  // Warm pass: 100% of unit lookups served from the cache (>= the 90%
  // acceptance bar), zero retraining.
  EXPECT_EQ(second.at("cache").at("unit_hits").as_number(), 2.0);
  EXPECT_EQ(second.at("cache").at("unit_misses").as_number(), 0.0);

  // Byte-identical across passes AND against the in-process baseline.
  EXPECT_EQ(first.at("sweep").dump(2), direct);
  EXPECT_EQ(second.at("sweep").dump(2), first.at("sweep").dump(2));
  EXPECT_EQ(first.at("config_hash").as_string(),
            search::sweep_config_hash(config));

  const util::MetricsSnapshot stats = server.metrics();
  EXPECT_EQ(stats.at("jobs_completed"), 2u);
  EXPECT_EQ(stats.at("cache.unit_hits"), 2u);
  EXPECT_EQ(stats.at("cache.unit_misses"), 2u);
}

TEST_F(ServeServerTest, PoolBackedStudyMatchesInProcessBytes) {
  if (!util::subprocess_supported()) GTEST_SKIP() << "no subprocess support";
  const search::SweepConfig config = tiny_study();
  const util::Json request =
      make_study_request(search::Family::Classical, config);

  ServerConfig in_process;
  Server baseline{in_process};
  baseline.start();
  const util::Json direct =
      round_trip("127.0.0.1", baseline.port(), request, 120000);
  baseline.stop();

  ServerConfig pooled;
  pooled.pool_workers = 2;
  Server server{pooled};
  server.start();
  const util::Json reply =
      round_trip("127.0.0.1", server.port(), request, 120000);
  ASSERT_EQ(reply.at("type").as_string(), "result");
  EXPECT_EQ(reply.at("sweep").dump(2), direct.at("sweep").dump(2));
}

// Each study job's pool counters merge into the server's: a served study
// on a 2-worker pool whose workers crash on their 2nd unit still returns the
// in-process bytes, and the restarts and retries show in `stats`.
TEST_F(ServeServerTest, PoolCrashCountersMergeIntoStatsReply) {
  if (!util::subprocess_supported()) GTEST_SKIP() << "no subprocess support";
  search::SweepConfig config = tiny_study();
  config.search.max_candidates = 4;  // > 2 units, so some worker gets two
  const std::string direct =
      search::sweep_to_json(
          search::run_complexity_sweep(search::Family::Classical, config))
          .dump(2);

  ServerConfig pooled;
  pooled.pool_workers = 2;
  pooled.pool.backoff_initial_ms = 50;
  pooled.pool.worker_env = {"QHDL_FAULT_SPEC=worker=crash@2"};
  Server server{pooled};
  server.start();
  const util::Json reply = round_trip(
      "127.0.0.1", server.port(),
      make_study_request(search::Family::Classical, config), 120000);
  ASSERT_EQ(reply.at("type").as_string(), "result");
  EXPECT_EQ(reply.at("sweep").dump(2), direct);

  util::Json request = util::Json::object();
  request["type"] = "stats";
  const util::Json stats =
      round_trip("127.0.0.1", server.port(), request, 5000);
  EXPECT_GE(stats.at("pool_restarts").as_number(), 1.0) << stats.dump();
  EXPECT_GE(stats.at("pool_retried_units").as_number(), 1.0) << stats.dump();
  EXPECT_EQ(stats.at("pool_quarantined_units").as_number(), 0.0);
  // The pool's remote counters are not part of the server's reply.
  EXPECT_FALSE(stats.contains("pool_remote_registered"));
}

TEST_F(ServeServerTest, TrainRepeatIsCacheServedAndMatchesEvaluateUnit) {
  const search::SweepConfig config = tiny_study();
  const search::ModelSpec spec = search::ModelSpec::make_classical({3});
  const util::Json request = train_request(config, spec, 4, 1);

  // The same unit in-process: the repetition stream is the root seed's
  // (repetition + 1)-th split, and the run streams are drawn from it.
  search::WorkUnit unit;
  unit.spec = spec;
  util::Rng root{config.search.seed};
  util::Rng rep_rng = root;
  for (int r = 0; r <= 1; ++r) rep_rng = root.split();
  for (std::size_t r = 0; r < config.search.runs_per_model; ++r) {
    unit.streams.push_back(rep_rng.split());
  }
  unit.key.features = 4;
  unit.key.repetition = 1;
  search::UnitDataCache data_cache;
  const std::string direct =
      search::candidate_result_to_json(
          search::evaluate_unit(config, unit, data_cache))
          .dump();

  Server server{ServerConfig{}};
  server.start();
  const util::Json first =
      round_trip("127.0.0.1", server.port(), request, 120000);
  ASSERT_EQ(first.at("type").as_string(), "result") << first.dump();
  EXPECT_FALSE(first.at("cached").as_bool());
  EXPECT_EQ(first.at("unit").dump(), direct);

  const util::Json second =
      round_trip("127.0.0.1", server.port(), request, 120000);
  ASSERT_EQ(second.at("type").as_string(), "result") << second.dump();
  EXPECT_TRUE(second.at("cached").as_bool());
  EXPECT_EQ(second.at("unit").dump(), first.at("unit").dump());
}

TEST_F(ServeServerTest, TrainAndSleepRejectInvalidNumericFields) {
  const search::SweepConfig config = tiny_study();
  const search::ModelSpec spec = search::ModelSpec::make_classical({3});
  util::Json negative_ms = sleep_request(0);
  negative_ms["ms"] = -1;
  const std::pair<util::Json, std::string> cases[] = {
      {negative_ms, "ms"},
      {train_request(config, spec, 4, 1.5), "repetition"},
      {train_request(config, spec, -3, 0), "features"},
  };

  Server server{ServerConfig{}};
  server.start();
  for (const auto& [request, field] : cases) {
    const util::Json reply =
        round_trip("127.0.0.1", server.port(), request, 5000);
    ASSERT_EQ(reply.at("type").as_string(), "error") << reply.dump();
    EXPECT_NE(reply.at("message").as_string().find("'" + field + "'"),
              std::string::npos)
        << reply.dump();
    // The executor is free again at once.
    const util::Json slept =
        round_trip("127.0.0.1", server.port(), sleep_request(0), 1000);
    EXPECT_EQ(slept.at("type").as_string(), "result");
  }
  EXPECT_EQ(server.metrics().at("jobs_failed"), 3u);
}

TEST_F(ServeServerTest, TrainHugeRepetitionIsCancelledByJobDeadline) {
  // 10^12 stream splits would wedge an executor for hours; the split loop
  // must honour the job's cancellation token.
  ServerConfig server_config;
  server_config.job_timeout_ms = 200;
  Server server{server_config};
  server.start();
  const util::Json reply = round_trip(
      "127.0.0.1", server.port(),
      train_request(tiny_study(), search::ModelSpec::make_classical({3}), 4,
                    1e12),
      30000);
  EXPECT_EQ(reply.at("type").as_string(), "cancelled") << reply.dump();
  EXPECT_EQ(server.metrics().at("deadlines_expired"), 1u);
}

TEST_F(ServeServerTest, StudyWithProgressStreamsFramesBeforeTheReply) {
  const search::SweepConfig config = tiny_study();
  const std::string direct =
      search::sweep_to_json(
          search::run_complexity_sweep(search::Family::Classical, config))
          .dump(2);

  Server server{ServerConfig{}};
  server.start();
  util::Json request = make_study_request(search::Family::Classical, config);
  request["progress"] = true;

  std::vector<util::Json> progress;
  const util::Json reply = round_trip(
      "127.0.0.1", server.port(), request,
      [&progress](const util::Json& frame) { progress.push_back(frame); },
      120000);
  ASSERT_EQ(reply.at("type").as_string(), "result");
  // One frame per committed unit window; the tiny study has 2 units and a
  // window of at least 1, so at least one frame must have streamed.
  ASSERT_GE(progress.size(), 1u);
  for (const util::Json& frame : progress) {
    EXPECT_EQ(frame.at("type").as_string(), "progress");
    EXPECT_EQ(frame.at("family").as_string(), "classical");
    EXPECT_EQ(frame.at("features").as_number(), 4.0);
    EXPECT_GE(frame.at("units_done").as_number(), 1.0);
    EXPECT_LE(frame.at("units_done").as_number(),
              frame.at("total_units").as_number());
    EXPECT_TRUE(frame.contains("last_spec"));
  }
  // Progress observation must not perturb the bytes: the streamed study's
  // result is the in-process baseline's.
  EXPECT_EQ(reply.at("sweep").dump(2), direct);
  EXPECT_GE(server.metrics().at("progress_frames"), progress.size());

  // A plain request on the same server still gets exactly one frame.
  const util::Json plain = round_trip(
      "127.0.0.1", server.port(),
      make_study_request(search::Family::Classical, config), 120000);
  EXPECT_EQ(plain.at("sweep").dump(2), direct);
}

TEST_F(ServeServerTest, OverloadedQueueShedsDeterministically) {
  ServerConfig config;
  config.executors = 1;
  config.max_queue = 1;
  Server server{config};
  server.start();

  // A occupies the single executor...
  std::thread a([&] {
    const util::Json reply =
        round_trip("127.0.0.1", server.port(), sleep_request(1500), 30000);
    EXPECT_EQ(reply.at("type").as_string(), "result");
  });
  // ...wait until it has actually been dequeued into the executor...
  ASSERT_TRUE(wait_for_stats(server, [](const util::MetricsSnapshot& s) {
    return s.at("accepted") >= 1;
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // ...B fills the queue slot...
  std::thread b([&] {
    const util::Json reply =
        round_trip("127.0.0.1", server.port(), sleep_request(1500), 30000);
    EXPECT_EQ(reply.at("type").as_string(), "result");
  });
  ASSERT_TRUE(wait_for_stats(server, [](const util::MetricsSnapshot& s) {
    return s.at("accepted") >= 2;
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // ...so C must be shed, immediately, with reason "overloaded".
  const util::Json reply =
      round_trip("127.0.0.1", server.port(), sleep_request(1500), 30000);
  EXPECT_EQ(reply.at("type").as_string(), "rejected");
  EXPECT_EQ(reply.at("reason").as_string(), "overloaded");

  a.join();
  b.join();
  const util::MetricsSnapshot stats = server.metrics();
  EXPECT_EQ(stats.at("jobs_completed"), 2u);
  EXPECT_GE(stats.at("rejected_overloaded"), 1u);
}

TEST_F(ServeServerTest, SequentialNoopJobsAreNotPollBound) {
  // The connection thread must wake when the executor resolves the reply,
  // not when its 50 ms socket poll times out: ten back-to-back no-op jobs
  // would take >= 500 ms if each round trip waited out one poll.
  Server server{ServerConfig{}};
  server.start();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) {
    const util::Json reply =
        round_trip("127.0.0.1", server.port(), sleep_request(0), 5000);
    ASSERT_EQ(reply.at("type").as_string(), "result");
  }
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed_ms, 250);
  EXPECT_EQ(server.metrics().at("jobs_completed"), 10u);
}

TEST_F(ServeServerTest, ConcurrentHotJobsCountOnlyTheirOwnCacheHits) {
  // A reply's cache counts belong to its own sweep call: two hot jobs on
  // one config, running side by side on two executors, must each report
  // exactly their own committed units as hits, never the other's replays.
  search::SweepConfig config = tiny_study();
  config.feature_sizes = {4, 5, 6};
  config.search.repetitions = 2;
  config.search.max_candidates = 4;
  ServerConfig server_config;
  server_config.executors = 2;
  Server server{server_config};
  server.start();
  const util::Json request =
      make_study_request(search::Family::Classical, config);

  const util::Json cold =
      round_trip("127.0.0.1", server.port(), request, 120000);
  ASSERT_EQ(cold.at("type").as_string(), "result");
  double committed = 0.0;
  const util::Json& levels = cold.at("sweep").at("levels");
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const util::Json& reps = levels.at(l).at("repetitions");
    for (std::size_t r = 0; r < reps.size(); ++r) {
      committed += reps.at(r).at("candidates_trained").as_number();
    }
  }
  EXPECT_EQ(cold.at("cache").at("unit_hits").as_number(), 0.0);
  EXPECT_EQ(cold.at("cache").at("unit_misses").as_number(), committed);

  for (int round = 0; round < 5; ++round) {
    util::Json replies[2];
    std::thread jobs[2];
    for (int j = 0; j < 2; ++j) {
      jobs[j] = std::thread([&, j] {
        replies[j] = round_trip("127.0.0.1", server.port(), request, 120000);
      });
    }
    for (std::thread& job : jobs) job.join();
    for (const util::Json& reply : replies) {
      ASSERT_EQ(reply.at("type").as_string(), "result");
      EXPECT_EQ(reply.at("cache").at("unit_hits").as_number(), committed);
      EXPECT_EQ(reply.at("cache").at("unit_misses").as_number(), 0.0);
      EXPECT_EQ(reply.at("sweep").dump(2), cold.at("sweep").dump(2));
    }
  }
}

TEST_F(ServeServerTest, SequentialStartStopCyclesAreNotTickBound) {
  // stop() must wake the accept loop through its drain waker, not wait out
  // the accept loop's 100 ms slice: stopping a freshly started idle server
  // would then cost up to 100 ms, about 1 s over ten cycles.
  using Clock = std::chrono::steady_clock;
  Clock::duration stopping{};
  for (int i = 0; i < 10; ++i) {
    Server server{ServerConfig{}};
    server.start();
    // Let the accept loop enter its wait; a stop() that lands before the
    // loop's first drain check returns at once on any implementation.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const auto start = Clock::now();
    server.stop();
    stopping += Clock::now() - start;
  }
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(stopping)
                .count(),
            250);
}

TEST_F(ServeServerTest, JobDeadlineCancelsSleep) {
  ServerConfig config;
  config.job_timeout_ms = 200;
  Server server{config};
  server.start();
  const util::Json reply =
      round_trip("127.0.0.1", server.port(), sleep_request(10000), 30000);
  EXPECT_EQ(reply.at("type").as_string(), "cancelled");
  EXPECT_NE(reply.at("reason").as_string().find("deadline"),
            std::string::npos);
  const util::MetricsSnapshot stats = server.metrics();
  EXPECT_EQ(stats.at("jobs_cancelled"), 1u);
  EXPECT_EQ(stats.at("deadlines_expired"), 1u);
}

TEST_F(ServeServerTest, JobDeadlineCancelsStudyCompute) {
  // A heavy study against a tiny budget: the deadline must interrupt real
  // compute at a unit-window boundary, not just the diagnostic sleep job.
  search::SweepConfig config = tiny_study();
  config.search.max_candidates = 8;
  config.search.runs_per_model = 3;
  config.search.train.epochs = 400;
  ServerConfig server_config;
  server_config.job_timeout_ms = 100;
  Server server{server_config};
  server.start();
  const util::Json reply = round_trip(
      "127.0.0.1", server.port(),
      make_study_request(search::Family::Classical, config), 120000);
  EXPECT_EQ(reply.at("type").as_string(), "cancelled");
  EXPECT_EQ(server.metrics().at("deadlines_expired"), 1u);
}

TEST_F(ServeServerTest, ClientDisconnectCancelsOrphanedJob) {
  Server server{ServerConfig{}};
  server.start();
  {
    // Submit a long sleep and hang up without reading the reply.
    util::Socket socket = util::connect_tcp("127.0.0.1", server.port());
    ASSERT_TRUE(socket.write_all(
        search::frame_wire(sleep_request(30000).dump())));
    // Give the server a moment to admit the job before the disconnect.
    ASSERT_TRUE(wait_for_stats(server, [](const util::MetricsSnapshot& s) {
      return s.at("accepted") >= 1;
    }));
  }  // socket closes here: the client is gone

  // The orphaned job must be cancelled, not run to completion.
  EXPECT_TRUE(wait_for_stats(server, [](const util::MetricsSnapshot& s) {
    return s.at("client_disconnects") >= 1 && s.at("jobs_cancelled") >= 1;
  }));

  // And the server is still healthy.
  util::Json ping = util::Json::object();
  ping["type"] = "ping";
  EXPECT_EQ(round_trip("127.0.0.1", server.port(), ping, 5000)
                .at("type")
                .as_string(),
            "pong");
}

TEST_F(ServeServerTest, GracefulDrainFinishesInFlightJobs) {
  Server server{ServerConfig{}};
  server.start();
  std::thread in_flight([&] {
    const util::Json reply =
        round_trip("127.0.0.1", server.port(), sleep_request(600), 30000);
    // The job was already executing when the drain began: it must finish
    // and the client must receive its real reply, not a rejection.
    EXPECT_EQ(reply.at("type").as_string(), "result");
  });
  ASSERT_TRUE(wait_for_stats(server, [](const util::MetricsSnapshot& s) {
    return s.at("accepted") >= 1;
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  server.stop();  // request_drain + join everything
  in_flight.join();
  EXPECT_EQ(server.metrics().at("jobs_completed"), 1u);
}

}  // namespace
}  // namespace qhdl::serve

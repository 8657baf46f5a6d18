// qhdl_serve: a long-running study/train service over TCP (DESIGN.md §15).
//
// Architecture: one accept thread, one detached-lifetime connection thread
// per client, and a small pool of executor threads draining a *bounded*
// admission queue. Robustness is structural, not incidental:
//
//   * Load shedding — a full queue (or connection table) answers
//     {"type":"rejected","reason":"overloaded"} immediately instead of
//     queueing without bound; the shed is counted and visible in `stats`.
//   * Per-job deadlines — `job_timeout_ms` arms a util::Deadline on the
//     job's CancelToken; the compute layer polls it at unit-window
//     boundaries and the client receives {"type":"cancelled"}.
//   * Client-disconnect detection — the connection thread polls its socket
//     while the job is pending; EOF cancels the orphaned job so executor
//     slots are never burned for an absent client.
//   * Graceful drain — request_drain() (wired to SIGTERM in qhdl_serve)
//     stops accepting, lets in-flight jobs finish, rejects queued-but-
//     unstarted ones with reason "draining", and flushes the result cache.
//   * Worker-crash tolerance — study jobs with `pool_workers > 0` run on a
//     search::WorkerPool (kill/respawn, retry, quarantine, backoff); each
//     job's pool counters merge into the server's.
//
// Results are memoized in a content-addressed ResultCache keyed by the
// sweep-config hash: a repeated study replays its units byte-identically,
// and a cancelled job's completed units survive for the retry.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "search/worker_pool.hpp"
#include "serve/result_cache.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

namespace qhdl::serve {

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back with port()
  /// Executor threads (concurrent jobs).
  std::size_t executors = 1;
  /// Jobs allowed to wait beyond the executing ones; admission beyond this
  /// is shed with "rejected: overloaded".
  std::size_t max_queue = 8;
  /// Concurrent connections; beyond this new clients are shed immediately.
  std::size_t max_connections = 64;
  /// Per-job wall-clock budget in ms (0 = none).
  std::uint64_t job_timeout_ms = 0;
  /// Budget for reading one request frame off a connection.
  std::uint64_t read_timeout_ms = 5000;
  /// Result cache: spill directory ("" = memory-only) and LRU capacity.
  std::string cache_dir;
  std::size_t cache_capacity = 8;
  /// Worker processes per study job (0 = in-process execution). Knobs for
  /// the spawned pools (deadlines, retries, backoff) ride in `pool`;
  /// its `workers` field is overridden by pool_workers when > 0.
  /// `pool.remote_workers > 0` makes each study job's pool listen on
  /// `pool.listen_port` for qhdl_worker daemons (which should run with
  /// --persist, since each job binds the port afresh); with concurrent
  /// executors only one job holds the port at a time and the others fall
  /// back to local workers.
  std::size_t pool_workers = 0;
  search::WorkerPoolConfig pool;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();  ///< stop()s if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the accept/executor threads. Throws
  /// std::runtime_error when the socket cannot be bound.
  void start();

  /// The bound port (valid after start(); resolves port 0).
  std::uint16_t port() const;

  /// Stops accepting and rejects jobs that have not started yet;
  /// in-flight jobs keep running. Idempotent, async-signal-unsafe (call
  /// from a signal *watcher*, not a handler).
  void request_drain();

  /// Full graceful shutdown: request_drain(), join all threads (in-flight
  /// jobs finish first), flush the result cache. Idempotent.
  void stop();

  /// The counters behind the `stats` reply since server start (DESIGN.md
  /// §17): admission, job-outcome and protocol counters, progress_frames
  /// written, four pool_* counters summed over every per-job WorkerPool,
  /// and the result cache's cache.* counters.
  util::MetricsSnapshot metrics() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace qhdl::serve

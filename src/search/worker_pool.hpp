// Supervised multi-process study execution (DESIGN.md §11, §16).
//
// WorkerPool shards candidate evaluations across crash-isolated workers
// speaking the length-prefixed JSON protocol of worker_protocol.hpp over
// one of two transports: stdin/stdout pipes to re-exec'd instances of the
// current binary in --worker-mode, or TCP connections from remote
// qhdl_worker daemons that register themselves against the pool's listener
// (remote_workers > 0). The supervisor:
//
//   * enforces a per-unit wall-clock deadline and heartbeat liveness, and
//     SIGKILLs a worker that exceeds either;
//   * reaps workers killed by signals (segfault, OOM killer, external
//     kill -9) and workers that emit corrupt frames;
//   * retries the failed unit — with the SAME shipped RNG streams, so a
//     successful retry is bit-identical to a never-failed run — up to
//     `unit_retries` times, respawning workers with exponential backoff;
//   * quarantines a unit whose every attempt failed through the same
//     failure path PR 4 uses for non-finite training runs (runs = 0,
//     cause "worker:<reason>"), so one poisoned unit can never abort or
//     bias the sweep;
//   * degrades gracefully to in-process execution — at start-up when
//     workers cannot be spawned at all, or mid-run when respawns keep
//     failing — with the reason logged and queryable.
//
// Determinism: the supervisor pre-splits every unit's RNG streams in FLOPs
// order (grid_search.cpp) and ships them in the unit frame; workers
// re-derive datasets/splits from the sweep config; results merge back in
// submission order. A multi-process sweep is therefore byte-identical to an
// in-process one (pinned by the worker-pool golden test), regardless of
// worker count, scheduling, crashes, or retries that eventually succeed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "search/worker_protocol.hpp"
#include "util/metrics.hpp"

namespace qhdl::search {

struct WorkerPoolConfig {
  /// Number of worker processes (>= 1).
  std::size_t workers = 2;
  /// Worker argv; empty means re-exec the current binary with
  /// `--worker-mode` appended (util::current_executable_path()).
  std::vector<std::string> worker_command;
  /// Extra "KEY=value" environment entries for workers (override inherited
  /// values). Tests use this to arm fault injection in workers only.
  std::vector<std::string> worker_env;
  /// Thread width inside each worker (its runs_per_model parallelism).
  std::size_t worker_threads = 1;
  /// Wall-clock budget per unit attempt in ms; 0 = no deadline.
  std::uint64_t unit_timeout_ms = 0;
  /// Cadence at which a busy worker emits heartbeat frames.
  std::uint64_t heartbeat_interval_ms = 250;
  /// A busy worker silent for this long is presumed wedged and killed.
  std::uint64_t heartbeat_timeout_ms = 10000;
  /// Failed attempts allowed per unit beyond the first; a unit is
  /// quarantined after 1 + unit_retries failed attempts.
  std::size_t unit_retries = 2;
  /// Respawn backoff after consecutive failures of one worker slot:
  /// jittered exponential, initial * 2^(failures-1) capped at max, then
  /// drawn from [base/2, base] with backoff_with_jitter_ms (seeded — the
  /// schedule is reproducible under the fault matrix).
  std::uint64_t backoff_initial_ms = 100;
  std::uint64_t backoff_max_ms = 5000;
  /// Seed for the jittered backoff draw (worker slot index is the salt).
  std::uint64_t backoff_jitter_seed = 0x71686a69ULL;

  // --- distributed mode (DESIGN.md §16) ---------------------------------
  /// Expected remote worker registrations. 0 keeps the pool purely local;
  /// > 0 makes it listen on listen_host:listen_port for qhdl_worker
  /// daemons and widens the dispatch window to this count. Local pipe
  /// workers are only spawned as a fallback when no daemon registers (or
  /// the whole fleet is lost) within handshake_timeout_ms.
  std::size_t remote_workers = 0;
  std::string listen_host = "127.0.0.1";
  /// 0 binds an ephemeral port; query it with WorkerPool::listen_port().
  std::uint16_t listen_port = 0;
  /// Registration deadline: per accepted connection (register frame must
  /// arrive within it) and for the fleet as a whole before the pool falls
  /// back to local pipe workers.
  std::uint64_t handshake_timeout_ms = 5000;
  /// Straggler work-stealing: an idle worker duplicates a unit that has
  /// been in flight longer than this (first result wins; replicas are
  /// byte-identical by construction). 0 disables stealing — orphaned-unit
  /// re-dispatch on transport loss is always on.
  std::uint64_t steal_after_ms = 0;
};

class WorkerPool {
 public:
  /// Local mode starts on first use: the first non-empty evaluate() or
  /// degraded()/degraded_reason() query spawns one worker (then the rest)
  /// and the dispatcher, exactly once even under concurrent callers. A pool
  /// that never receives a unit — a fully replayed study — never forks. If
  /// no worker can be spawned the pool comes up degraded — evaluate() runs
  /// in-process — with the reason in degraded_reason(); neither
  /// construction nor first use throws for spawn problems. Distributed mode
  /// (remote_workers > 0) binds the listener and starts the dispatcher in
  /// the constructor, and degrades along the chain remote -> local pipes ->
  /// in-process as deadlines expire, each step logged.
  WorkerPool(SweepConfig config, WorkerPoolConfig pool_config);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Evaluates the units, blocking until all have a result (in submission
  /// order). Thread-safe: concurrent sweep levels share the pool, and their
  /// units interleave on the workers. Throws util::Interrupted when a
  /// cooperative shutdown arrives while units are pending (after forwarding
  /// SIGTERM to live workers).
  std::vector<CandidateResult> evaluate(std::vector<WorkUnit> units);

  /// True when the pool executes in-process (spawn failure at start-up or
  /// persistent respawn failure mid-run). Counts as a use: a local pool
  /// that has not started yet starts here, so the answer is real.
  bool degraded() const;
  std::string degraded_reason() const;

  /// Current dispatch width: the wider of the live slot count and the
  /// configured worker target (remote_workers when listening, workers
  /// otherwise). Also the dispatch width in degraded mode.
  std::size_t worker_count() const;

  /// Bound port when listening for remote workers, 0 otherwise. Lets a
  /// caller bind an ephemeral port and then tell daemons where to connect.
  std::uint16_t listen_port() const;

  /// Supervisor health counters over the pool's lifetime (DESIGN.md §17):
  /// pool_restarts, pool_retried_units (units retried at least once),
  /// pool_quarantined_units, pool_steals (units re-dispatched or
  /// duplicated), pool_remote_registered, pool_remote_lost and
  /// pool_handshake_rejects. The names are the serve `stats` reply's.
  util::MetricsSnapshot metrics() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace qhdl::search

#include "search/worker_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>
#endif

#include "search/worker_transport.hpp"
#include "util/backend_registry.hpp"
#include "util/deadline.hpp"
#include "util/fault_injection.hpp"
#include "util/interrupt.hpp"
#include "util/logging.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"
#include "util/thread_pool.hpp"
#include "util/waker.hpp"

namespace qhdl::search {

struct WorkerPool::Impl {
  /// A transport loss may re-dispatch a unit without charging a retry
  /// attempt; this cap stops a unit that somehow kills every transport it
  /// touches from cycling forever.
  static constexpr std::size_t kMaxOrphanRedispatch = 8;

  /// A unit somewhere between submission and resolution. `attempts` counts
  /// failed attempts; the promise is set exactly once (result, quarantine,
  /// or exception).
  struct PendingUnit {
    WorkUnit unit;
    std::size_t attempts = 0;
    std::size_t replicas = 0;    ///< dispatched copies currently in flight
    std::size_t orphanings = 0;  ///< uncharged re-dispatches (transport loss)
    std::uint64_t first_dispatch_ms = 0;  ///< straggler clock, per dispatch
    std::vector<std::string> causes;
    std::promise<CandidateResult> promise;
    bool resolved = false;
  };

  /// One worker slot — a pipe child (respawned in place on failure) or a
  /// registered remote connection (erased on loss; the daemon's reconnect
  /// shows up as a fresh registration). Slots are touched only by start()
  /// and the dispatcher thread.
  struct Slot {
    std::unique_ptr<WorkerTransport> transport;
    bool remote = false;
    bool partitioned = false;  ///< injected partition: reads blackholed
    std::size_t index = 0;     ///< stable salt for jittered backoff draws
    FrameReader reader;
    bool ready = false;
    std::shared_ptr<PendingUnit> current;
    util::Deadline unit_deadline;
    std::uint64_t last_heard_ms = 0;
    std::size_t consecutive_failures = 0;
    util::Deadline respawn_gate = util::Deadline::after_ms(0);
  };

  /// An accepted connection that has not sent its register frame yet.
  struct PendingConn {
    util::Socket socket;
    FrameReader reader;
    util::Deadline deadline;
  };

  SweepConfig worker_config;  ///< sweep config as shipped (worker threads)
  WorkerPoolConfig cfg;
  std::vector<std::string> command;
  std::string init_wire;
  std::string shutdown_wire;
  std::string local_backend;

  mutable std::mutex mutex;
  std::deque<std::shared_ptr<PendingUnit>> queue;
  std::vector<Slot> slots;
  std::vector<PendingConn> pending_conns;
  util::ListenSocket listener;
  bool remote_mode = false;    ///< listening for remote registrations
  bool local_spawned = false;  ///< local pipe slots exist (or were tried)
  util::Deadline remote_gate;  ///< first-registration deadline
  std::optional<util::Deadline> lost_fleet_gate;  ///< all-remote-lost timer
  std::size_t next_slot_index = 0;
  bool degraded = false;
  std::string degraded_reason;
  bool dispatcher_running = false;
  bool interrupt_forwarded = false;
  std::size_t spawn_failure_streak = 0;
  bool remote_ever_registered = false;

  util::Metrics metrics;
  util::Counter& restarts = metrics.counter("pool_restarts");
  util::Counter& retried_units = metrics.counter("pool_retried_units");
  util::Counter& quarantined_units = metrics.counter("pool_quarantined_units");
  util::Counter& steals = metrics.counter("pool_steals");
  util::Counter& remote_registered = metrics.counter("pool_remote_registered");
  util::Counter& remote_lost = metrics.counter("pool_remote_lost");
  util::Counter& handshake_rejects = metrics.counter("pool_handshake_rejects");

  std::atomic<bool> stop{false};
  /// Ends the dispatcher's poll when units are queued or the pool stops.
  util::Waker waker;
  /// Guards start(): the constructor in remote mode, else the first use.
  std::once_flag started;
  std::thread dispatcher;

  // --- promise resolution (mutex held) ------------------------------------

  void resolve_result(PendingUnit& unit, CandidateResult result) {
    if (unit.resolved) return;
    unit.resolved = true;
    unit.promise.set_value(std::move(result));
  }

  void resolve_exception(PendingUnit& unit, std::exception_ptr error) {
    if (unit.resolved) return;
    unit.resolved = true;
    unit.promise.set_exception(std::move(error));
  }

  void requeue_front(const std::shared_ptr<PendingUnit>& unit) {
    // With straggler replicas a unit can fail on two slots in one tick;
    // never let it occupy two queue positions.
    if (std::find(queue.begin(), queue.end(), unit) == queue.end()) {
      queue.push_front(unit);
    }
  }

  /// Books one failed attempt: requeues (front, so the retry preempts new
  /// work) while the retry budget lasts, else quarantines through the PR-4
  /// failure path. The unit's RNG streams are untouched, so a successful
  /// retry is bit-identical to a never-failed attempt.
  void fail_attempt(const std::shared_ptr<PendingUnit>& unit,
                    const std::string& cause) {
    unit->causes.push_back(cause);
    unit->attempts += 1;
    const std::string key = unit->unit.key.to_string();
    if (unit->attempts > cfg.unit_retries) {
      quarantined_units.add();
      std::string all;
      for (const std::string& c : unit->causes) {
        if (!all.empty()) all += "; ";
        all += c;
      }
      util::log_error("worker pool: quarantining " + key + " after " +
                      std::to_string(unit->attempts) +
                      " failed attempts (" + all + ")");
      resolve_result(*unit,
                     quarantined_unit_result(worker_config, unit->unit,
                                             unit->causes));
    } else {
      if (unit->attempts == 1) retried_units.add();
      util::log_warn("worker pool: retrying " + key + " (attempt " +
                     std::to_string(unit->attempts + 1) + "): " + cause);
      requeue_front(unit);
    }
  }

  /// Requeues a unit whose worker's TRANSPORT died (daemon crash, connection
  /// reset, heartbeat-silent partition). The unit itself is not implicated,
  /// so no retry attempt is charged — the same shipped streams go straight
  /// back to the queue front and a lost host never stalls the sweep.
  void orphan_requeue(const std::shared_ptr<PendingUnit>& unit,
                      const std::string& cause) {
    const std::string key = unit->unit.key.to_string();
    if (unit->replicas > 0) {
      util::log_info("worker pool: lost one replica of " + key + " (" +
                     cause + "); " + std::to_string(unit->replicas) +
                     " still in flight");
      return;
    }
    unit->orphanings += 1;
    if (unit->orphanings > kMaxOrphanRedispatch) {
      fail_attempt(unit, cause + " (after " +
                             std::to_string(unit->orphanings - 1) +
                             " uncharged re-dispatches)");
      return;
    }
    steals.add();
    util::log_warn("worker pool: re-dispatching orphaned " + key + " (" +
                   cause + "); no retry attempt charged");
    requeue_front(unit);
  }

  // --- worker lifecycle (mutex held) ---------------------------------------

  std::uint64_t backoff_ms(const Slot& slot) const {
    return backoff_with_jitter_ms(cfg.backoff_initial_ms, cfg.backoff_max_ms,
                                  slot.consecutive_failures,
                                  cfg.backoff_jitter_seed, slot.index);
  }

  /// Spawns a pipe worker into `slot` and sends the init frame. Returns
  /// false (with the slot left empty and its backoff gate armed) on failure.
  bool spawn_slot(Slot& slot) {
    try {
      util::Subprocess process =
          util::Subprocess::spawn(command, cfg.worker_env);
      if (!process.write_all(init_wire.data(), init_wire.size())) {
        throw std::runtime_error("worker died before the init frame");
      }
      slot.transport = make_pipe_transport(std::move(process));
    } catch (const std::exception& error) {
      slot.transport.reset();
      slot.consecutive_failures += 1;
      const std::uint64_t wait = backoff_ms(slot);
      slot.respawn_gate = util::Deadline::after_ms(wait);
      spawn_failure_streak += 1;
      util::log_warn(std::string{"worker pool: spawn failed: "} +
                     error.what() + " (backoff " + std::to_string(wait) +
                     " ms)");
      return false;
    }
    slot.reader = FrameReader{};
    slot.ready = false;
    slot.partitioned = false;
    slot.current.reset();
    slot.last_heard_ms = util::monotonic_now_ms();
    spawn_failure_streak = 0;
    return true;
  }

  /// Tears down a slot whose worker is done for. `charge_attempt` separates
  /// unit failures (deadline, worker error — the unit burns a retry) from
  /// transport losses (remote EOF/reset/partition — the unit is orphaned
  /// and re-dispatched for free).
  void retire_slot(Slot& slot, std::string cause, bool kill,
                   bool charge_attempt = true) {
    if (slot.transport != nullptr) {
      const std::string ending = slot.transport->finish(kill);
      if (cause.empty()) cause = ending;
      if (slot.remote) remote_lost.add();
      slot.transport.reset();
    }
    slot.ready = false;
    slot.partitioned = false;
    if (slot.current != nullptr) {
      std::shared_ptr<PendingUnit> unit = std::move(slot.current);
      slot.current.reset();
      if (unit->replicas > 0) unit->replicas -= 1;
      if (!unit->resolved) {
        if (charge_attempt) {
          fail_attempt(unit, cause);
        } else {
          orphan_requeue(unit, cause);
        }
      }
    }
    slot.consecutive_failures += 1;
    slot.respawn_gate = util::Deadline::after_ms(backoff_ms(slot));
  }

  bool any_live_worker() const {
    for (const Slot& slot : slots) {
      if (slot.transport != nullptr) return true;
    }
    return false;
  }

  void enter_degraded(const std::string& reason) {
    degraded = true;
    degraded_reason = reason;
    util::log_error("worker pool: degrading to in-process execution: " +
                    reason);
  }

  // --- dispatcher phases ----------------------------------------------------

  /// Forwards the interrupt to live workers once (SIGTERM to pipe children,
  /// a shutdown frame to remote daemons) and fails every pending unit with
  /// util::Interrupted, so evaluate() unwinds to the search loop's own
  /// interrupt poll (the checkpoint holds only committed units, hence a
  /// resume retrains this window identically).
  void handle_interrupt_locked() {
    if (!util::interrupt_requested()) return;
    if (!interrupt_forwarded) {
      interrupt_forwarded = true;
      std::size_t live = 0;
      for (Slot& slot : slots) {
        if (slot.transport != nullptr) {
          slot.transport->interrupt(shutdown_wire);
          ++live;
        }
      }
      util::log_warn("worker pool: interrupt — forwarded stop to " +
                     std::to_string(live) + " worker(s)");
    }
    const auto interrupted = std::make_exception_ptr(util::Interrupted{});
    for (const std::shared_ptr<PendingUnit>& unit : queue) {
      resolve_exception(*unit, interrupted);
    }
    queue.clear();
    for (Slot& slot : slots) {
      if (slot.current != nullptr) {
        resolve_exception(*slot.current, interrupted);
        slot.current.reset();
      }
    }
  }

#if defined(__unix__) || defined(__APPLE__)
  /// Drains the listener backlog (bounded per tick) into pending_conns,
  /// where each connection gets one handshake deadline to register.
  void accept_remote_locked() {
    if (!listener.valid()) return;
    for (int i = 0; i < 4; ++i) {
      pollfd pfd{listener.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, 0) <= 0 || (pfd.revents & POLLIN) == 0) return;
      std::optional<util::Socket> conn =
          listener.accept(util::Deadline::after_ms(1));
      if (!conn.has_value()) return;
      const int flags = ::fcntl(conn->fd(), F_GETFL, 0);
      if (flags >= 0) ::fcntl(conn->fd(), F_SETFL, flags | O_NONBLOCK);
      PendingConn pending;
      pending.socket = std::move(*conn);
      pending.deadline = util::Deadline::after_ms(cfg.handshake_timeout_ms);
      pending_conns.push_back(std::move(pending));
    }
  }

  /// Reads pending connections until each yields a register frame (promoted
  /// to a slot), dies, misbehaves, or times out. Observes the `conn` fault
  /// site at the handshake: reset drops the connection, partition/slow
  /// withhold reads so the handshake deadline does the dropping.
  void read_pending_conns_locked() {
    char buffer[4096];
    for (std::size_t i = 0; i < pending_conns.size();) {
      PendingConn& conn = pending_conns[i];
      std::string drop_reason;
      bool stalled = false;
      switch (util::FaultInjector::instance().on_connection("handshake")) {
        case util::ConnFaultMode::Reset:
          drop_reason = "injected reset during handshake";
          break;
        case util::ConnFaultMode::Partition:
        case util::ConnFaultMode::Slow:
          stalled = true;
          break;
        default:
          break;
      }
      if (drop_reason.empty() && !stalled) {
        while (true) {
          const ssize_t n = ::read(conn.socket.fd(), buffer, sizeof(buffer));
          if (n > 0) {
            conn.reader.feed(buffer, static_cast<std::size_t>(n));
            continue;
          }
          if (n == 0) {
            drop_reason = "peer closed before registering";
          } else {
            if (errno == EINTR) continue;
            if (errno != EAGAIN && errno != EWOULDBLOCK) {
              drop_reason = "read failed during handshake";
            }
          }
          break;
        }
      }
      if (drop_reason.empty()) {
        try {
          std::optional<std::string> payload = conn.reader.next();
          if (payload.has_value()) {
            if (try_register_locked(conn, *payload)) {
              pending_conns.erase(pending_conns.begin() +
                                  static_cast<std::ptrdiff_t>(i));
              continue;
            }
            drop_reason = "registration rejected";
          }
        } catch (const std::exception& error) {
          drop_reason = std::string{"bad handshake: "} + error.what();
        }
      }
      if (drop_reason.empty() && conn.deadline.expired()) {
        drop_reason = "no register frame within " +
                      std::to_string(cfg.handshake_timeout_ms) + " ms";
      }
      if (!drop_reason.empty()) {
        handshake_rejects.add();
        util::log_warn("worker pool: dropping worker connection (" +
                       drop_reason + ")");
        pending_conns.erase(pending_conns.begin() +
                            static_cast<std::ptrdiff_t>(i));
        continue;
      }
      ++i;
    }
  }
#else
  void accept_remote_locked() {}
  void read_pending_conns_locked() {}
#endif

  /// Validates a register frame and promotes the connection to a live slot
  /// (init frame sent). Returns false when the worker must be dropped.
  bool try_register_locked(PendingConn& conn, const std::string& payload) {
    util::Json frame = util::Json::parse(payload);
    const WorkerRegistration reg = registration_from_json(frame);
    if (reg.version != kWorkerProtocolVersion) {
      util::Json reply = util::Json::object();
      reply["type"] = "error";
      reply["message"] = "protocol version mismatch: supervisor speaks " +
                         std::to_string(kWorkerProtocolVersion) +
                         ", worker speaks " + std::to_string(reg.version);
      (void)conn.socket.write_all(frame_wire(reply.dump()));
      util::log_warn("worker pool: rejecting worker with protocol version " +
                     std::to_string(reg.version));
      return false;
    }
    if (reg.backend != local_backend) {
      // Every backend is bit-identical by contract (DESIGN.md §14), so a
      // mixed fleet keeps byte-identity with a local run.
      util::log_info("worker pool: remote backend '" + reg.backend +
                     "' differs from supervisor backend '" + local_backend +
                     "' (backends are bit-identical)");
    }
    Slot slot;
    slot.remote = true;
    slot.index = next_slot_index++;
    slot.reader = std::move(conn.reader);
    slot.transport = make_tcp_transport(std::move(conn.socket));
    slot.respawn_gate = util::Deadline::never();
    slot.last_heard_ms = util::monotonic_now_ms();
    const std::string who = slot.transport->describe();
    if (!slot.transport->write_wire(init_wire)) {
      util::log_warn("worker pool: worker " + who +
                     " vanished before the init frame");
      return false;
    }
    remote_registered.add();
    remote_ever_registered = true;
    util::log_info("worker pool: registered remote worker " + who +
                   " (pid " + std::to_string(reg.pid) + ", slot " +
                   std::to_string(reg.slot + 1) + "/" +
                   std::to_string(reg.slots) + ", backend " + reg.backend +
                   ")");
    slots.push_back(std::move(slot));
    return true;
  }

  /// Remote slots are not respawned in place — the daemon reconnects and
  /// registers afresh — so dead ones are simply removed.
  void reap_dead_remote_locked() {
    slots.erase(std::remove_if(slots.begin(), slots.end(),
                               [](const Slot& slot) {
                                 return slot.remote &&
                                        slot.transport == nullptr;
                               }),
                slots.end());
  }

  /// The degradation chain of distributed mode: if no remote worker
  /// registers within the handshake deadline — or a once-live fleet is
  /// entirely lost with work pending and stays gone for another deadline —
  /// local pipe workers take over. The listener stays open either way, so
  /// late or reconnecting daemons still add capacity.
  void maybe_fallback_locked() {
    if (!remote_mode || local_spawned || degraded) return;
    if (!slots.empty() || !pending_conns.empty()) {
      lost_fleet_gate.reset();
      return;
    }
    if (!remote_ever_registered) {
      if (!remote_gate.expired()) return;
      util::log_warn("worker pool: no remote workers registered within " +
                     std::to_string(cfg.handshake_timeout_ms) +
                     " ms; falling back to local pipe workers");
    } else {
      if (queue.empty()) return;
      if (!lost_fleet_gate.has_value()) {
        lost_fleet_gate = util::Deadline::after_ms(cfg.handshake_timeout_ms);
        return;
      }
      if (!lost_fleet_gate->expired()) return;
      util::log_warn("worker pool: all remote workers lost for " +
                     std::to_string(cfg.handshake_timeout_ms) +
                     " ms with work pending; falling back to local pipe "
                     "workers");
    }
    spawn_local_locked();
  }

  void spawn_local_locked() {
    local_spawned = true;
    if (command.empty()) {
      enter_degraded("no remote workers and subprocess spawning is "
                     "unavailable on this platform");
      return;
    }
    const std::size_t base = slots.size();
    for (std::size_t i = 0; i < cfg.workers; ++i) {
      Slot slot;
      slot.index = next_slot_index++;
      slots.push_back(std::move(slot));
    }
    std::size_t live = 0;
    for (std::size_t i = base; i < slots.size(); ++i) {
      if (spawn_slot(slots[i])) live += 1;
    }
    if (live == 0) {
      // respawn_slots_locked keeps retrying with backoff and degrades the
      // pool if nothing ever comes up.
      util::log_warn("worker pool: local fallback spawn failed; retrying");
    } else {
      util::log_info("worker pool: " + std::to_string(live) +
                     " local pipe worker(s) spawned as fallback");
    }
  }

  void respawn_slots_locked() {
    for (Slot& slot : slots) {
      if (slot.remote || slot.transport != nullptr) continue;
      if (!slot.respawn_gate.expired()) continue;
      if (spawn_slot(slot)) {
        restarts.add();
      } else if (spawn_failure_streak >= 2 * slots.size() &&
                 !any_live_worker()) {
        // Every slot has failed to come (back) up repeatedly and nothing is
        // running: give up on processes, keep the study going in-process.
        enter_degraded("cannot spawn workers (" +
                       std::to_string(spawn_failure_streak) +
                       " consecutive failures)");
        return;
      }
    }
  }

  std::string unit_wire(const PendingUnit& unit) const {
    util::Json frame = util::Json::object();
    frame["type"] = "unit";
    frame["unit"] = work_unit_to_json(unit.unit);
    return frame_wire(frame.dump());
  }

  void dispatch_locked() {
    for (Slot& slot : slots) {
      // Units resolved while queued (e.g. quarantined through a replica's
      // failure chain) are dropped, not dispatched.
      while (!queue.empty() && queue.front()->resolved) queue.pop_front();
      if (queue.empty()) return;
      if (slot.transport == nullptr || !slot.ready || slot.partitioned ||
          slot.current != nullptr) {
        continue;
      }
      std::shared_ptr<PendingUnit> unit = queue.front();
      queue.pop_front();
      if (!slot.transport->write_wire(unit_wire(*unit))) {
        // The worker died between units; the unit never reached it, so no
        // attempt is consumed — requeue and retire the slot.
        queue.push_front(unit);
        retire_slot(slot, "", /*kill=*/true);
        continue;
      }
      unit->replicas += 1;
      unit->first_dispatch_ms = util::monotonic_now_ms();
      slot.current = std::move(unit);
      slot.unit_deadline = cfg.unit_timeout_ms > 0
                               ? util::Deadline::after_ms(cfg.unit_timeout_ms)
                               : util::Deadline::never();
      slot.last_heard_ms = util::monotonic_now_ms();
    }
  }

  /// Straggler work-stealing: when the queue is dry, an idle worker
  /// duplicates the oldest single-replica unit that has been in flight
  /// longer than steal_after_ms. Both replicas compute the same
  /// deterministic function of the same shipped streams, and resolution is
  /// idempotent — first result wins, bytes unchanged.
  void steal_stragglers_locked() {
    if (cfg.steal_after_ms == 0 || !queue.empty()) return;
    const std::uint64_t now = util::monotonic_now_ms();
    for (Slot& idle : slots) {
      if (idle.transport == nullptr || !idle.ready || idle.partitioned ||
          idle.current != nullptr) {
        continue;
      }
      Slot* victim = nullptr;
      for (Slot& busy : slots) {
        if (busy.current == nullptr || busy.current->resolved) continue;
        if (busy.current->replicas >= 2) continue;
        if (now - busy.current->first_dispatch_ms < cfg.steal_after_ms) {
          continue;
        }
        if (victim == nullptr || busy.current->first_dispatch_ms <
                                     victim->current->first_dispatch_ms) {
          victim = &busy;
        }
      }
      if (victim == nullptr) return;
      std::shared_ptr<PendingUnit> unit = victim->current;
      if (!idle.transport->write_wire(unit_wire(*unit))) {
        retire_slot(idle, "", /*kill=*/true);
        continue;
      }
      unit->replicas += 1;
      steals.add();
      util::log_warn("worker pool: stealing straggler " +
                     unit->unit.key.to_string() + " from " +
                     victim->transport->describe() + " onto " +
                     idle.transport->describe() + " (in flight " +
                     std::to_string(now - unit->first_dispatch_ms) + " ms)");
      idle.current = std::move(unit);
      idle.unit_deadline = cfg.unit_timeout_ms > 0
                               ? util::Deadline::after_ms(cfg.unit_timeout_ms)
                               : util::Deadline::never();
      idle.last_heard_ms = now;
    }
  }

  /// Consumes every complete frame a worker has produced. Returns false when
  /// the worker must be retired (corrupt stream).
  bool process_frames_locked(Slot& slot) {
    while (true) {
      std::optional<std::string> payload;
      try {
        payload = slot.reader.next();
      } catch (const ProtocolError& error) {
        retire_slot(slot, std::string{"corrupt frame: "} + error.what(),
                    /*kill=*/true);
        return false;
      }
      if (!payload.has_value()) return true;

      util::Json frame;
      std::string type;
      try {
        frame = util::Json::parse(*payload);
        type = frame.at("type").as_string();
      } catch (const std::exception& error) {
        retire_slot(slot, std::string{"corrupt frame: "} + error.what(),
                    /*kill=*/true);
        return false;
      }

      slot.last_heard_ms = util::monotonic_now_ms();
      if (type == "ready") {
        slot.ready = true;
      } else if (type == "heartbeat") {
        // liveness timestamp already updated
      } else if (type == "result") {
        if (slot.current == nullptr) {
          util::log_warn("worker pool: stray result frame ignored");
          continue;
        }
        CandidateResult result;
        try {
          result = candidate_result_from_json(frame.at("result"));
        } catch (const std::exception& error) {
          retire_slot(slot, std::string{"corrupt result: "} + error.what(),
                      /*kill=*/true);
          return false;
        }
        // First result wins: with straggler stealing a twin may already
        // have resolved this unit, in which case this is a no-op.
        resolve_result(*slot.current, std::move(result));
        if (slot.current->replicas > 0) slot.current->replicas -= 1;
        slot.current.reset();
        slot.consecutive_failures = 0;
      } else if (type == "error") {
        // The worker survived but the unit failed cleanly in-process.
        std::string message = "unknown error";
        if (frame.contains("message")) {
          message = frame.at("message").as_string();
        }
        if (slot.current != nullptr) {
          std::shared_ptr<PendingUnit> unit = std::move(slot.current);
          slot.current.reset();
          if (unit->replicas > 0) unit->replicas -= 1;
          if (!unit->resolved) fail_attempt(unit, "worker error: " + message);
        }
      } else {
        retire_slot(slot, "unknown frame type '" + type + "'",
                    /*kill=*/true);
        return false;
      }
    }
  }

#if defined(__unix__) || defined(__APPLE__)
  void read_workers_locked() {
    char buffer[8192];
    for (Slot& slot : slots) {
      if (slot.transport == nullptr) continue;
      if (slot.remote && slot.current != nullptr) {
        // Mid-unit connection faults (`conn=reset/partition/slow`).
        const std::string where =
            "unit " + slot.current->unit.key.to_string();
        switch (util::FaultInjector::instance().on_connection(where)) {
          case util::ConnFaultMode::Reset:
            retire_slot(slot, "injected connection reset", /*kill=*/true,
                        /*charge_attempt=*/false);
            continue;
          case util::ConnFaultMode::Partition:
            slot.partitioned = true;
            break;
          case util::ConnFaultMode::Slow:
            continue;  // drop this read tick; frames arrive next round
          default:
            break;
        }
      }
      // A partitioned connection blackholes reads; the heartbeat reaper
      // retires it and the daemon's reconnect is the heal.
      if (slot.partitioned) continue;
      bool eof = false;
      while (true) {
        const ssize_t n =
            ::read(slot.transport->read_fd(), buffer, sizeof(buffer));
        if (n > 0) {
          slot.reader.feed(buffer, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) {
          eof = true;
          break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        eof = true;  // unexpected read error (e.g. ECONNRESET): worker gone
        break;
      }
      if (!process_frames_locked(slot)) continue;  // slot already retired
      if (eof) {
        // A vanished pipe child failed its unit (the process owning the
        // computation died — charge the attempt, as always); a vanished
        // connection merely orphans it.
        retire_slot(slot, "", /*kill=*/false,
                    /*charge_attempt=*/!slot.remote);
      }
    }
  }
#else
  void read_workers_locked() {}
#endif

  void check_liveness_locked() {
    const std::uint64_t now = util::monotonic_now_ms();
    for (Slot& slot : slots) {
      if (slot.transport == nullptr) continue;
      const bool busy = slot.current != nullptr;
      if (busy && slot.unit_deadline.expired()) {
        // The unit itself is slow — charge the attempt on either transport.
        retire_slot(slot,
                    "deadline exceeded after " +
                        std::to_string(cfg.unit_timeout_ms) + " ms",
                    /*kill=*/true);
        continue;
      }
      // An idle ready worker is legitimately silent; a busy one must tick,
      // and a fresh one must answer the init frame. For a remote worker
      // silence means the HOST or network is gone, not the unit — orphan it.
      if ((busy || !slot.ready) &&
          now - slot.last_heard_ms > cfg.heartbeat_timeout_ms) {
        retire_slot(slot,
                    std::string{busy ? "no heartbeat for "
                                     : "worker failed to initialize within "} +
                        std::to_string(cfg.heartbeat_timeout_ms) + " ms",
                    /*kill=*/true, /*charge_attempt=*/!slot.remote);
      }
    }
  }

#if defined(__unix__) || defined(__APPLE__)
  /// Blocks until a worker fd, a registration, or the waker is readable,
  /// or 50 ms pass (the liveness/deadline/backoff tick). The waker is
  /// drained here, before the next loop iteration re-reads the queue.
  void wait_for_io() {
    std::vector<pollfd> fds{pollfd{waker.fd(), POLLIN, 0}};
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (const Slot& slot : slots) {
        // Partitioned fds are excluded: their buffered bytes would turn
        // poll() into a busy loop while reads are withheld.
        if (slot.transport == nullptr || slot.partitioned) continue;
        fds.push_back(pollfd{slot.transport->read_fd(), POLLIN, 0});
      }
      for (const PendingConn& conn : pending_conns) {
        fds.push_back(pollfd{conn.socket.fd(), POLLIN, 0});
      }
      if (listener.valid()) {
        fds.push_back(pollfd{listener.fd(), POLLIN, 0});
      }
    }
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);
    waker.drain();
  }
#else
  void wait_for_io() {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
#endif

  /// In-process execution of a batch (degraded mode), same arithmetic as a
  /// worker: evaluate_unit on the shipped streams.
  void run_inline(std::vector<std::shared_ptr<PendingUnit>>& units) {
    util::parallel_for(
        0, units.size(), std::max<std::size_t>(1, cfg.workers),
        [&](std::size_t i) {
          std::exception_ptr error;
          CandidateResult result;
          try {
            result = evaluate_unit(worker_config, units[i]->unit);
          } catch (...) {
            error = std::current_exception();
          }
          std::lock_guard<std::mutex> lock(mutex);
          if (error != nullptr) {
            resolve_exception(*units[i], error);
          } else {
            resolve_result(*units[i], std::move(result));
          }
        });
  }

  /// Brings the pool up: local mode spawns its workers here, on first use
  /// (a non-empty evaluate() or a degraded() query), so a pool that never
  /// receives a unit never forks. Spawn validation is synchronous: if the
  /// very first worker cannot be created (missing binary, fork failure, exec
  /// failure via the status pipe), the pool degrades before any unit is
  /// dispatched and runs without a dispatcher. Remote mode only starts the
  /// dispatcher; its listener is already bound.
  void start() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (!remote_mode) {
        if (command.empty()) {
          enter_degraded("subprocess spawning is unavailable on this platform");
          return;
        }
        local_spawned = true;
        slots.resize(cfg.workers);
        for (std::size_t i = 0; i < slots.size(); ++i) slots[i].index = i;
        next_slot_index = slots.size();
        if (!spawn_slot(slots[0])) {
          enter_degraded("cannot spawn worker process (" + command[0] + ")");
          slots.clear();
          return;
        }
        for (std::size_t i = 1; i < slots.size(); ++i) {
          // Later failures are not fatal: the dispatcher keeps retrying
          // them with backoff while the first worker carries the load.
          spawn_slot(slots[i]);
        }
        util::log_info("worker pool: " + std::to_string(cfg.workers) +
                       " worker(s), command " + command[0]);
      }
      dispatcher_running = true;
    }
    dispatcher = std::thread([this] { dispatcher_loop(); });
  }

  void ensure_started() {
    std::call_once(started, [this] { start(); });
  }

  void dispatcher_loop() {
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<std::shared_ptr<PendingUnit>> inline_batch;
      {
        std::lock_guard<std::mutex> lock(mutex);
        handle_interrupt_locked();
        if (degraded) {
          inline_batch.assign(queue.begin(), queue.end());
          queue.clear();
        } else {
          accept_remote_locked();
          read_pending_conns_locked();
          maybe_fallback_locked();
          respawn_slots_locked();
          dispatch_locked();
          steal_stragglers_locked();
        }
      }
      if (!inline_batch.empty()) {
        run_inline(inline_batch);
        continue;
      }
      wait_for_io();
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (!degraded) {
          read_workers_locked();
          check_liveness_locked();
          reap_dead_remote_locked();
        }
      }
    }
  }
};

WorkerPool::WorkerPool(SweepConfig config, WorkerPoolConfig pool_config)
    : impl_(std::make_unique<Impl>()) {
  // A worker dying mid-write must come back as EPIPE from write_all, never
  // as a supervisor-killing signal (spawn() also installs this, but the
  // guard must exist even when the pool degrades before the first spawn).
  util::install_sigpipe_guard();
  impl_->cfg = pool_config;
  impl_->cfg.workers = std::max<std::size_t>(1, impl_->cfg.workers);
  impl_->worker_config = std::move(config);
  // Inside a worker the only parallelism is a unit's runs_per_model.
  impl_->worker_config.search.threads =
      std::max<std::size_t>(1, pool_config.worker_threads);
  impl_->worker_config.search.lookahead = 0;
  impl_->local_backend = util::simd::active_backend().name;

  if (pool_config.worker_command.empty()) {
    const std::string self = util::current_executable_path();
    if (util::subprocess_supported() && !self.empty()) {
      impl_->command = {self, "--worker-mode"};
    }
  } else {
    impl_->command = pool_config.worker_command;
  }

  util::Json init = util::Json::object();
  init["type"] = "init";
  init["version"] = kWorkerProtocolVersion;
  init["heartbeat_interval_ms"] = impl_->cfg.heartbeat_interval_ms;
  init["config"] = sweep_config_to_json(impl_->worker_config);
  impl_->init_wire = frame_wire(init.dump());
  util::Json shutdown = util::Json::object();
  shutdown["type"] = "shutdown";
  impl_->shutdown_wire = frame_wire(shutdown.dump());

  if (impl_->cfg.remote_workers > 0) {
    if (util::sockets_supported()) {
      try {
        impl_->listener = util::ListenSocket::listen_tcp(
            impl_->cfg.listen_host, impl_->cfg.listen_port);
        impl_->remote_mode = true;
        impl_->remote_gate =
            util::Deadline::after_ms(impl_->cfg.handshake_timeout_ms);
        util::log_info(
            "worker pool: listening on " + impl_->cfg.listen_host + ":" +
            std::to_string(impl_->listener.port()) + " for " +
            std::to_string(impl_->cfg.remote_workers) +
            " remote worker(s), handshake deadline " +
            std::to_string(impl_->cfg.handshake_timeout_ms) + " ms");
      } catch (const std::exception& error) {
        util::log_warn(
            std::string{"worker pool: cannot listen for remote workers: "} +
            error.what() + "; using local workers");
      }
    } else {
      util::log_warn(
          "worker pool: TCP sockets unavailable on this platform; using "
          "local workers");
    }
  }

  // A listening pool must accept registrations at once; a local one spawns
  // its workers on first use.
  if (impl_->remote_mode) impl_->ensure_started();
}

WorkerPool::~WorkerPool() {
  if (impl_ == nullptr) return;
  impl_->stop.store(true, std::memory_order_relaxed);
  impl_->waker.notify();
  if (impl_->dispatcher.joinable()) impl_->dispatcher.join();
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    const auto destroyed = std::make_exception_ptr(
        std::runtime_error("worker pool destroyed with units pending"));
    for (const auto& unit : impl_->queue) {
      impl_->resolve_exception(*unit, destroyed);
    }
    impl_->queue.clear();
    for (Impl::Slot& slot : impl_->slots) {
      if (slot.current != nullptr) {
        impl_->resolve_exception(*slot.current, destroyed);
        slot.current.reset();
      }
      // Pipe children get stdin EOF (the Subprocess destructor SIGKILLs and
      // reaps whatever does not comply); remote daemons get a shutdown
      // frame so a non-persistent one exits instead of reconnect-looping.
      if (slot.transport != nullptr) {
        slot.transport->request_shutdown(impl_->shutdown_wire);
      }
    }
    impl_->pending_conns.clear();
    impl_->listener.close();
  }
}

std::vector<CandidateResult> WorkerPool::evaluate(
    std::vector<WorkUnit> units) {
  util::throw_if_interrupted();
  if (units.empty()) return {};
  impl_->ensure_started();

  bool inline_now = false;
  std::vector<std::shared_ptr<Impl::PendingUnit>> pending;
  std::vector<std::future<CandidateResult>> futures;
  pending.reserve(units.size());
  futures.reserve(units.size());
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    inline_now = impl_->degraded && !impl_->dispatcher_running;
    for (WorkUnit& unit : units) {
      auto p = std::make_shared<Impl::PendingUnit>();
      p->unit = std::move(unit);
      futures.push_back(p->promise.get_future());
      pending.push_back(std::move(p));
    }
    if (!inline_now) {
      for (const auto& p : pending) impl_->queue.push_back(p);
    }
  }
  // A pool that never came up has no dispatcher; evaluate on the caller.
  if (inline_now) {
    impl_->run_inline(pending);
  } else {
    impl_->waker.notify();
  }

  std::vector<CandidateResult> results;
  results.reserve(futures.size());
  for (std::future<CandidateResult>& future : futures) {
    results.push_back(future.get());
  }
  return results;
}

bool WorkerPool::degraded() const {
  impl_->ensure_started();
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->degraded;
}

std::string WorkerPool::degraded_reason() const {
  impl_->ensure_started();
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->degraded_reason;
}

std::size_t WorkerPool::worker_count() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const std::size_t target =
      impl_->remote_mode ? impl_->cfg.remote_workers : impl_->cfg.workers;
  return std::max<std::size_t>(1, std::max(impl_->slots.size(), target));
}

std::uint16_t WorkerPool::listen_port() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->listener.valid() ? impl_->listener.port() : 0;
}

util::MetricsSnapshot WorkerPool::metrics() const {
  return impl_->metrics.snapshot();
}

void add_pool_flags(util::Cli& cli) {
  cli.add_int("workers", 0,
              "Crash-isolated worker processes for candidate evaluation "
              "(0 = in-process); results are identical either way");
  cli.add_double("unit-timeout", 0.0,
                 "Wall-clock budget per candidate evaluation in seconds "
                 "when using --workers (0 = no deadline)");
  cli.add_int("worker-retries", 2,
              "Failed attempts allowed per unit beyond the first before it "
              "is quarantined (with --workers)");
  cli.add_string("listen", "",
                 "Listen address host:port (port 0 = ephemeral, printed at "
                 "startup) for remote qhdl_worker daemons; requires "
                 "--workers-remote");
  cli.add_int("workers-remote", 0,
              "Expected remote worker registrations; falls back to local "
              "--workers if none arrive within --handshake-timeout");
  cli.add_double("handshake-timeout", 5.0,
                 "Registration deadline in seconds (per connection, and for "
                 "the remote fleet before local fallback)");
  cli.add_double("steal-after", 0.0,
                 "Duplicate a unit onto an idle worker once it has been in "
                 "flight this many seconds (0 = off); first result wins, "
                 "results unchanged");
}

std::unique_ptr<WorkerPool> pool_from_flags(const SweepConfig& config,
                                            const util::Cli& cli) {
  WorkerPoolConfig pool_config;
  const std::size_t workers = cli.get_count("workers");
  if (workers > 0) pool_config.workers = workers;
  pool_config.remote_workers = cli.get_count("workers-remote");
  pool_config.unit_timeout_ms = cli.get_duration_ms("unit-timeout");
  pool_config.unit_retries = cli.get_count("worker-retries");
  const std::uint64_t handshake_ms = cli.get_duration_ms("handshake-timeout");
  pool_config.steal_after_ms = cli.get_duration_ms("steal-after");
  if (pool_config.remote_workers > 0) {
    pool_config.handshake_timeout_ms = handshake_ms;
    if (!cli.get_string("listen").empty() &&
        !parse_host_port(cli.get_string("listen"), &pool_config.listen_host,
                         &pool_config.listen_port)) {
      throw std::invalid_argument(
          "--listen requires host:port (e.g. --listen 0.0.0.0:7200)");
    }
  }
  if (workers == 0 && pool_config.remote_workers == 0) return nullptr;

  auto pool = std::make_unique<WorkerPool>(config, pool_config);
  if (pool->listen_port() != 0) {
    std::printf("listening for qhdl_worker daemons on %s:%u\n",
                pool_config.listen_host.c_str(), pool->listen_port());
  }
  if (pool->degraded()) {
    std::fprintf(stderr,
                 "warning: worker pool degraded to in-process execution: "
                 "%s\n",
                 pool->degraded_reason().c_str());
  }
  return pool;
}

}  // namespace qhdl::search

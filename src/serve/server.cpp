#include "serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <poll.h>
#include <unistd.h>
#endif

#include "search/results.hpp"
#include "search/worker_protocol.hpp"
#include "serve/protocol.hpp"
#include "util/cancel.hpp"
#include "util/deadline.hpp"
#include "util/logging.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"
#include "util/waker.hpp"

namespace qhdl::serve {

using search::FrameReader;
using search::FrameReadStatus;
using search::ProtocolError;

namespace {

/// One admitted job: the request, its cancellation channel, and the
/// promise the executor resolves with the reply frame. shared_ptr-owned so
/// a connection thread may abandon it (client gone) while the executor
/// still holds it.
struct Job {
  util::Json request;
  util::CancelToken cancel;
  std::promise<util::Json> promise;
  std::shared_future<util::Json> reply;
  /// Polled by the connection thread next to the client socket; notified
  /// after the reply is resolved and after each queued progress frame.
  util::Waker waker;

  void resolve(util::Json reply_frame) {
    promise.set_value(std::move(reply_frame));
    waker.notify();
  }

  /// Streaming progress (study requests with "progress": true): the
  /// executor enqueues frames here and the connection thread drains them
  /// to the socket while waiting for the reply. Bounded — progress is
  /// advisory, so under backpressure the oldest frames are dropped.
  bool wants_progress = false;
  std::mutex progress_mutex;
  std::deque<util::Json> progress_frames;

  Job() : reply(promise.get_future().share()) {}
};

constexpr std::size_t kMaxQueuedProgressFrames = 256;

}  // namespace

struct Server::Impl {
  ServerConfig cfg;
  ResultCache cache;

  util::ListenSocket listener;
  std::thread accept_thread;
  std::vector<std::thread> executors;

  /// Connection threads plus a done flag so the accept loop can reap
  /// finished ones (join is instant once done is set) instead of letting
  /// handles accumulate for the life of the server.
  struct Conn {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::mutex conn_mutex;
  std::vector<Conn> connections;
  std::size_t active_connections = 0;

  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<std::shared_ptr<Job>> queue;

  std::atomic<bool> draining{false};
  /// Notified by request_drain(); ends the accept loop's poll at once.
  util::Waker drain_waker;
  std::atomic<bool> stop_executors{false};
  bool started = false;
  bool stopped = false;

  util::Metrics metrics;
  util::Counter& accepted = metrics.counter("accepted");
  util::Counter& accept_failures = metrics.counter("accept_failures");
  util::Counter& rejected_overloaded = metrics.counter("rejected_overloaded");
  util::Counter& rejected_draining = metrics.counter("rejected_draining");
  util::Counter& jobs_completed = metrics.counter("jobs_completed");
  util::Counter& jobs_failed = metrics.counter("jobs_failed");
  util::Counter& jobs_cancelled = metrics.counter("jobs_cancelled");
  util::Counter& deadlines_expired = metrics.counter("deadlines_expired");
  util::Counter& client_disconnects = metrics.counter("client_disconnects");
  util::Counter& protocol_errors = metrics.counter("protocol_errors");
  util::Counter& read_timeouts = metrics.counter("read_timeouts");
  util::Counter& progress_frames = metrics.counter("progress_frames");

  explicit Impl(ServerConfig config)
      : cfg(std::move(config)), cache(cfg.cache_dir, cfg.cache_capacity) {
    // Registered so a fresh `stats` reply lists them at zero; merge() adds
    // each study job's WorkerPool::metrics() into them.
    for (const char* name : {"pool_restarts", "pool_retried_units",
                             "pool_quarantined_units", "pool_steals"}) {
      metrics.counter(name);
    }
  }

  util::MetricsSnapshot snapshot() const {
    util::MetricsSnapshot snapshot = metrics.snapshot();
    snapshot.values.merge(cache.metrics().values);
    // The process-wide repetition data cache (search::repetition_data).
    for (const auto& [name, value] :
         util::Metrics::global().snapshot().values) {
      if (name.starts_with("data.")) snapshot.values.emplace(name, value);
    }
    return snapshot;
  }

  // --- accept / connection side -------------------------------------------

  void reap_finished_locked() {
    for (auto it = connections.begin(); it != connections.end();) {
      if (it->done->load(std::memory_order_acquire)) {
        it->thread.join();
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Blocks until a connection is pending, request_drain() notifies the
  /// drain waker, or a 100 ms slice passes. True when accept() should run.
  bool wait_for_connection() {
#if defined(__unix__) || defined(__APPLE__)
    pollfd fds[2] = {pollfd{listener.fd(), POLLIN, 0},
                     pollfd{drain_waker.fd(), POLLIN, 0}};
    return ::poll(fds, 2, 100) > 0 && (fds[0].revents & POLLIN) != 0;
#else
    return true;
#endif
  }

  void accept_loop() {
    while (!draining.load(std::memory_order_acquire)) {
      bool injected = false;
      std::optional<util::Socket> socket;
      if (wait_for_connection()) {
        socket = listener.accept(util::Deadline::after_ms(100), &injected);
      }
      {
        std::lock_guard<std::mutex> lock(conn_mutex);
        reap_finished_locked();
      }
      if (injected) {
        accept_failures.add();
        continue;
      }
      if (!socket.has_value()) continue;  // slice elapsed; re-check drain
      accepted.add();

      std::lock_guard<std::mutex> lock(conn_mutex);
      if (active_connections >= cfg.max_connections) {
        rejected_overloaded.add();
        socket->write_all(
            search::frame_wire(make_rejected("overloaded").dump()));
        continue;  // Socket destructor closes the connection
      }
      ++active_connections;
      auto done = std::make_shared<std::atomic<bool>>(false);
      Conn conn;
      conn.done = done;
      conn.thread = std::thread(
          [this, done, sock = std::move(*socket)]() mutable {
            handle_connection(std::move(sock));
            std::lock_guard<std::mutex> inner(conn_mutex);
            --active_connections;
            done->store(true, std::memory_order_release);
          });
      connections.push_back(std::move(conn));
    }
    listener.close();
  }

  void reply_and_close(util::Socket& socket, const util::Json& reply) {
    socket.write_all(search::frame_wire(reply.dump()));
  }

  void handle_connection(util::Socket socket) {
    FrameReader reader;
    std::string payload;
    try {
      const auto status =
          search::read_frame(socket.fd(), reader,
                             util::Deadline::after_ms(cfg.read_timeout_ms),
                             &payload);
      if (status == FrameReadStatus::Eof) return;  // connected and left
      if (status == FrameReadStatus::Timeout) {
        read_timeouts.add();
        reply_and_close(socket, make_error("request read timed out"));
        return;
      }
    } catch (const ProtocolError& e) {
      protocol_errors.add();
      util::log_warn(std::string{"serve: bad request stream: "} + e.what());
      reply_and_close(socket, make_error(e.what()));
      return;
    }

    util::Json request;
    std::string type;
    try {
      request = util::Json::parse(payload);
      type = request.at("type").as_string();
    } catch (const std::exception& e) {
      protocol_errors.add();
      reply_and_close(socket,
                      make_error(std::string{"bad request: "} + e.what()));
      return;
    }

    if (type == "ping") {
      util::Json pong = util::Json::object();
      pong["type"] = "pong";
      pong["version"] = kServeProtocolVersion;
      reply_and_close(socket, pong);
      return;
    }
    if (type == "stats") {
      util::Json reply = snapshot().to_json();
      reply["type"] = "stats";
      reply_and_close(socket, reply);
      return;
    }
    if (type != "study" && type != "train" && type != "sleep") {
      protocol_errors.add();
      reply_and_close(socket,
                      make_error("unknown request type '" + type + "'"));
      return;
    }

    // Admission control for compute jobs.
    if (draining.load(std::memory_order_acquire)) {
      rejected_draining.add();
      reply_and_close(socket, make_rejected("draining"));
      return;
    }
    auto job = std::make_shared<Job>();
    job->request = std::move(request);
    job->wants_progress = type == "study" &&
                          job->request.contains("progress") &&
                          job->request.at("progress").as_bool();
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      if (queue.size() >= cfg.max_queue) {
        rejected_overloaded.add();
        reply_and_close(socket, make_rejected("overloaded"));
        return;
      }
      queue.push_back(job);
    }
    queue_cv.notify_one();

    // Monitor the socket while the job is pending: EOF means the client
    // went away, and an orphaned job must not burn an executor slot any
    // longer than one unit window.
    if (!wait_with_disconnect_watch(socket, *job)) {
      client_disconnects.add();
      job->cancel.cancel("client disconnected");
      return;  // nobody left to reply to
    }
    reply_and_close(socket, job->reply.get());
  }

  /// Drains queued progress frames for `job` onto the socket. Returns
  /// false when a write fails (client gone). No-op unless the job asked
  /// for progress.
  bool flush_progress(util::Socket& socket, Job& job) {
    if (!job.wants_progress) return true;
    std::deque<util::Json> frames;
    {
      std::lock_guard<std::mutex> lock(job.progress_mutex);
      frames.swap(job.progress_frames);
    }
    for (const util::Json& frame : frames) {
      if (!socket.write_all(search::frame_wire(frame.dump()))) return false;
      progress_frames.add();
    }
    return true;
  }

  /// True when the reply became ready; false when the client disconnected
  /// first. Streams queued progress frames to the client while waiting.
  bool wait_with_disconnect_watch(util::Socket& socket, Job& job) {
#if defined(__unix__) || defined(__APPLE__)
    while (job.reply.wait_for(std::chrono::milliseconds(0)) !=
           std::future_status::ready) {
      if (!flush_progress(socket, job)) return false;
      pollfd fds[2] = {pollfd{socket.fd(), POLLIN, 0},
                       pollfd{job.waker.fd(), POLLIN, 0}};
      const int ready = ::poll(fds, 2, 50);
      if (ready < 0 && errno != EINTR) return false;
      // Drained before the loop re-checks the reply, so a notify racing
      // with that check stays pending for the next poll.
      job.waker.drain();
      if (ready > 0 && fds[0].revents != 0) {
        char scratch[256];
        const ssize_t n = ::read(socket.fd(), scratch, sizeof(scratch));
        if (n == 0) return false;  // clean EOF: client gone
        if (n < 0 && errno != EINTR && errno != EAGAIN) return false;
        // Extra bytes on a one-request connection are ignored (the reply
        // is still owed for the request already admitted).
      }
    }
    // Frames enqueued between the last flush and reply-readiness must land
    // before the terminal reply frame.
    return flush_progress(socket, job);
#else
    job.reply.wait();
    return flush_progress(socket, job);
#endif
  }

  // --- executor side -------------------------------------------------------

  void executor_loop() {
    while (true) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(queue_mutex);
        queue_cv.wait(lock, [&] {
          return stop_executors.load(std::memory_order_acquire) ||
                 !queue.empty();
        });
        if (queue.empty()) {
          if (stop_executors.load(std::memory_order_acquire)) return;
          continue;
        }
        job = std::move(queue.front());
        queue.pop_front();
      }
      // Queued-but-unstarted jobs are shed on drain; only jobs already
      // executing count as "in flight".
      if (draining.load(std::memory_order_acquire)) {
        rejected_draining.add();
        job->resolve(make_rejected("draining"));
        continue;
      }
      if (cfg.job_timeout_ms > 0) {
        job->cancel.set_deadline(
            util::Deadline::after_ms(cfg.job_timeout_ms));
      }
      job->resolve(run_job(*job));
    }
  }

  util::Json run_job(Job& job) {
    const std::string type = job.request.at("type").as_string();
    try {
      util::Json result;
      if (type == "study") {
        result = run_study(job);
      } else if (type == "train") {
        result = run_train(job);
      } else {
        result = run_sleep(job);
      }
      jobs_completed.add();
      return result;
    } catch (const util::Cancelled& e) {
      jobs_cancelled.add();
      if (job.cancel.deadline_expired()) deadlines_expired.add();
      util::log_info(std::string{"serve: job cancelled: "} + e.what());
      return make_cancelled(job.cancel.reason());
    } catch (const std::exception& e) {
      jobs_failed.add();
      util::log_warn(std::string{"serve: job failed: "} + e.what());
      return make_error(e.what());
    }
  }

  util::Json run_study(Job& job) {
    const search::Family family =
        family_from_name(job.request.at("family").as_string());
    const search::SweepConfig config =
        search::sweep_config_from_json(job.request.at("config"));

    auto checkpoint = cache.checkpoint_for(config);

    std::unique_ptr<search::WorkerPool> pool;
    // Remote fleets don't need local subprocess support: the pool's own
    // fallback chain (remote -> local pipes -> in-process) handles the
    // degenerate cases.
    const bool want_pool = cfg.pool_workers > 0 || cfg.pool.remote_workers > 0;
    if (want_pool &&
        (cfg.pool.remote_workers > 0 || util::subprocess_supported())) {
      search::WorkerPoolConfig pool_cfg = cfg.pool;
      if (cfg.pool_workers > 0) pool_cfg.workers = cfg.pool_workers;
      pool = std::make_unique<search::WorkerPool>(config, pool_cfg);
    }

    // Progress streaming: fires from concurrent level threads after each
    // committed unit window; frames queue on the job (bounded, oldest
    // dropped) and the connection thread drains them to the socket.
    search::ProgressFn progress_fn;
    if (job.wants_progress) {
      Job* job_ptr = &job;
      progress_fn = [job_ptr](const search::ProgressEvent& event) {
        util::Json frame = util::Json::object();
        frame["type"] = "progress";
        frame["family"] = event.family;
        frame["features"] = event.features;
        frame["repetition"] = event.repetition;
        frame["units_done"] = event.units_done;
        frame["total_units"] = event.total_units;
        frame["last_spec"] = event.last_spec;
        frame["last_val_accuracy"] = event.last_val_accuracy;
        frame["winner_found"] = event.winner_found;
        std::lock_guard<std::mutex> lock(job_ptr->progress_mutex);
        if (job_ptr->progress_frames.size() >= kMaxQueuedProgressFrames) {
          job_ptr->progress_frames.pop_front();
        }
        job_ptr->progress_frames.push_back(std::move(frame));
        job_ptr->waker.notify();
      };
    }

    const search::SweepResult sweep = search::run_complexity_sweep(
        family, config, checkpoint.get(), pool.get(), &job.cancel,
        progress_fn ? &progress_fn : nullptr);
    if (pool != nullptr) metrics.merge(pool->metrics());
    checkpoint->flush();

    util::Json reply = util::Json::object();
    reply["type"] = "result";
    reply["family"] = search::family_name(family);
    reply["config_hash"] = checkpoint->config_hash();
    reply["sweep"] = search::sweep_to_json(sweep);
    // Counted per sweep call, not as a delta of the shared checkpoint's
    // counters, so concurrent jobs on one config never count each other.
    std::size_t unit_hits = 0;
    std::size_t unit_misses = 0;
    for (const search::LevelResult& level : sweep.levels) {
      for (const search::SearchOutcome& outcome : level.search.repetitions) {
        unit_hits += outcome.units_replayed;
        unit_misses += outcome.units_trained;
      }
    }
    util::Json cache_json = util::Json::object();
    cache_json["unit_hits"] = unit_hits;
    cache_json["unit_misses"] = unit_misses;
    reply["cache"] = std::move(cache_json);
    return reply;
  }

  util::Json run_train(Job& job) {
    const search::SweepConfig config =
        search::sweep_config_from_json(job.request.at("config"));
    const std::size_t features = job.request.count_at("features");
    const std::size_t repetition =
        job.request.contains("repetition")
            ? job.request.count_at("repetition")
            : 0;
    const search::ModelSpec spec =
        search::model_spec_from_json(job.request.at("spec"));

    search::WorkUnit unit;
    // The unit family carries the spec identity so distinct specs at the
    // same (features, repetition) occupy distinct cache slots.
    unit.key.family =
        "train:" + search::model_spec_to_json(spec).dump();
    unit.key.features = features;
    unit.key.repetition = repetition;
    unit.key.candidate = 0;
    unit.spec = spec;

    auto checkpoint = cache.checkpoint_for(config);
    bool cached = true;
    std::optional<search::CandidateResult> result =
        checkpoint->find(unit.key);
    if (!result.has_value()) {
      cached = false;
      util::throw_if_cancelled(&job.cancel);
      // The run streams for this one candidate are drawn from the
      // repetition stream as it stands before the split draws from it;
      // the split itself comes from the process-wide repetition cache.
      util::Rng rep_rng = search::repetition_stream(
          config.search.seed, repetition, &job.cancel);
      unit.streams.reserve(config.search.runs_per_model);
      for (std::size_t r = 0; r < config.search.runs_per_model; ++r) {
        unit.streams.push_back(rep_rng.split());
      }
      result = search::evaluate_unit(config, unit, &job.cancel);
      checkpoint->record(unit.key, *result);
      checkpoint->flush();
    }

    util::Json reply = util::Json::object();
    reply["type"] = "result";
    reply["cached"] = cached;
    reply["unit"] = search::candidate_result_to_json(*result);
    return reply;
  }

  util::Json run_sleep(Job& job) {
    const std::uint64_t total_ms = job.request.count_at("ms");
    const util::Deadline done = util::Deadline::after_ms(
        total_ms == 0 ? 1 : total_ms);
    // Sleeps in slices of at most 10 ms so cancellation stays prompt, and
    // never past the deadline.
    while (!done.expired()) {
      job.cancel.throw_if_cancelled();
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min<std::uint64_t>(done.remaining_ms(), 10)));
    }
    util::Json reply = util::Json::object();
    reply["type"] = "result";
    reply["slept_ms"] = total_ms;
    return reply;
  }
};

Server::Server(ServerConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

Server::~Server() { stop(); }

void Server::start() {
  if (impl_->started) return;
  if (!util::sockets_supported()) {
    throw std::runtime_error(
        "qhdl_serve: TCP sockets are not supported on this platform");
  }
  // A client that disconnects mid-reply must surface as EPIPE from the
  // socket writer, never as a process-killing signal.
  util::install_sigpipe_guard();
  impl_->listener = util::ListenSocket::listen_tcp(
      impl_->cfg.host, impl_->cfg.port,
      static_cast<int>(impl_->cfg.max_connections));
  impl_->started = true;
  impl_->stopped = false;
  const std::size_t executors =
      std::max<std::size_t>(1, impl_->cfg.executors);
  impl_->executors.reserve(executors);
  for (std::size_t i = 0; i < executors; ++i) {
    impl_->executors.emplace_back([this] { impl_->executor_loop(); });
  }
  impl_->accept_thread = std::thread([this] { impl_->accept_loop(); });
  util::log_info("qhdl_serve: listening on " + impl_->cfg.host + ":" +
                 std::to_string(impl_->listener.port()));
}

std::uint16_t Server::port() const { return impl_->listener.port(); }

void Server::request_drain() {
  impl_->draining.store(true, std::memory_order_release);
  impl_->drain_waker.notify();
  impl_->queue_cv.notify_all();
}

void Server::stop() {
  if (!impl_->started || impl_->stopped) return;
  request_drain();
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
  // Executors shed everything still queued (reason "draining"), finish
  // the jobs they are executing, then exit.
  // Stored under the queue lock: an executor between its predicate check
  // and its wait would otherwise miss the notify and never exit.
  {
    std::lock_guard<std::mutex> lock(impl_->queue_mutex);
    impl_->stop_executors.store(true, std::memory_order_release);
  }
  impl_->queue_cv.notify_all();
  for (std::thread& t : impl_->executors) {
    if (t.joinable()) t.join();
  }
  impl_->executors.clear();
  // Every job future is resolved now, so connection threads are writing
  // their replies and exiting.
  std::vector<Impl::Conn> connections;
  {
    std::lock_guard<std::mutex> lock(impl_->conn_mutex);
    connections.swap(impl_->connections);
  }
  for (Impl::Conn& conn : connections) {
    if (conn.thread.joinable()) conn.thread.join();
  }
  impl_->cache.flush_all();
  impl_->stopped = true;
  util::log_info("qhdl_serve: drained and stopped");
}

util::MetricsSnapshot Server::metrics() const { return impl_->snapshot(); }

}  // namespace qhdl::serve

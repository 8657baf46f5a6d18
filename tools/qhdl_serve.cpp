// qhdl_serve: the long-running study/train service (DESIGN.md §15).
//
//   ./qhdl_serve --port 7117 --executors 2 --workers 2 --cache-dir /tmp/qc
//
// Serves study/train jobs over TCP (length-prefixed JSON frames, one
// request per connection — see src/serve/protocol.hpp) with bounded
// admission, per-job deadlines, client-disconnect cancellation, and a
// content-addressed result cache. SIGTERM (or the first SIGINT) starts a
// graceful drain: in-flight jobs finish, queued and new work is rejected,
// the cache is flushed, and the process exits 0. A second SIGINT escalates
// to immediate exit 130, mirroring the study drivers.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "search/worker_protocol.hpp"
#include "serve/server.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

namespace {

// NOTE: deliberately NOT util::install_interrupt_handler() — that flag is
// process-global and the worker-pool dispatcher aborts in-flight units when
// it is set, which would contradict "finish in-flight jobs" drain
// semantics. The server gets its own flag; only the signal watcher in
// main() reads it.
volatile std::sig_atomic_t g_drain = 0;
volatile std::sig_atomic_t g_sigint_count = 0;

void handle_signal(int sig) {
  if (sig == SIGINT) {
    g_sigint_count = g_sigint_count + 1;
    if (g_sigint_count >= 2) {
      std::_Exit(130);  // second Ctrl-C: the user means now
    }
  }
  g_drain = 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qhdl;
  // Per-job worker pools re-exec this binary; dispatch before CLI parsing.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--worker-mode") == 0) {
      return search::worker_main();
    }
  }
  util::Cli cli{"qhdl_serve",
                "Serve study/train jobs over TCP with admission control, "
                "deadlines, and a content-addressed result cache"};
  cli.add_string("host", "127.0.0.1", "Bind address (numeric IPv4)");
  cli.add_int("port", 7117, "TCP port (0 = ephemeral; see --port-file)");
  cli.add_string("port-file", "",
                 "Write the bound port to this file once listening "
                 "(atomic; lets scripts use --port 0)");
  cli.add_int("executors", 1, "Concurrent job executor threads");
  cli.add_int("max-queue", 8,
              "Jobs allowed to wait beyond the executing ones; excess is "
              "rejected with reason 'overloaded'");
  cli.add_int("max-connections", 64, "Concurrent client connections");
  cli.add_double("job-timeout", 0.0,
                 "Per-job wall-clock budget in seconds (0 = none); an "
                 "expired job replies 'cancelled: deadline exceeded'");
  cli.add_double("read-timeout", 5.0,
                 "Budget for reading one request frame in seconds");
  cli.add_string("cache-dir", "",
                 "Result-cache spill directory (empty = memory-only)");
  cli.add_int("cache-capacity", 8, "In-memory result-cache entries (LRU)");
  cli.add_int("workers", 0,
              "Crash-isolated worker processes per study job "
              "(0 = in-process execution)");
  cli.add_double("unit-timeout", 0.0,
                 "Wall-clock budget per candidate evaluation in seconds "
                 "when using --workers (0 = no deadline)");
  cli.add_int("worker-retries", 2,
              "Failed attempts allowed per unit beyond the first before "
              "quarantine (with --workers)");
  cli.add_int("workers-listen", 0,
              "Fixed port for remote qhdl_worker daemons (requires "
              "--workers-remote; daemons should use --persist since each "
              "study job runs its own pool). With --executors > 1 only one "
              "job can bind the port at a time; the others fall back to "
              "local workers");
  cli.add_int("workers-remote", 0,
              "Expected remote worker registrations per study job; falls "
              "back to local --workers (or 2) if none arrive within "
              "--handshake-timeout");
  cli.add_double("handshake-timeout", 5.0,
                 "Remote registration deadline in seconds");
  cli.add_double("steal-after", 0.0,
                 "Duplicate a straggling unit onto an idle worker after "
                 "this many seconds in flight (0 = off)");
  cli.add_flag("quiet", "Suppress progress logging");
  try {
    if (!cli.parse(argc, argv)) return 0;
    if (!cli.flag("quiet")) util::set_log_level(util::LogLevel::Info);

    serve::ServerConfig config;
    config.host = cli.get_string("host");
    if (cli.get_int("port") < 0 || cli.get_int("port") > 65535) {
      throw std::runtime_error("--port must be in [0, 65535]");
    }
    config.port = static_cast<std::uint16_t>(cli.get_int("port"));
    config.executors = cli.get_count("executors");
    config.max_queue = cli.get_count("max-queue");
    config.max_connections = cli.get_count("max-connections");
    config.job_timeout_ms = cli.get_duration_ms("job-timeout");
    config.read_timeout_ms = cli.get_duration_ms("read-timeout");
    config.cache_dir = cli.get_string("cache-dir");
    config.cache_capacity = cli.get_count("cache-capacity");
    config.pool_workers = cli.get_count("workers");
    config.pool.unit_timeout_ms = cli.get_duration_ms("unit-timeout");
    config.pool.unit_retries = cli.get_count("worker-retries");
    const std::size_t remote_workers = cli.get_count("workers-remote");
    const std::uint64_t handshake_ms = cli.get_duration_ms("handshake-timeout");
    if (remote_workers > 0) {
      if (cli.get_int("workers-listen") <= 0 ||
          cli.get_int("workers-listen") > 65535) {
        throw std::runtime_error(
            "--workers-remote needs --workers-listen <port>: per-job pools "
            "must rebind a port the daemons know");
      }
      config.pool.remote_workers = remote_workers;
      config.pool.listen_port =
          static_cast<std::uint16_t>(cli.get_int("workers-listen"));
      config.pool.handshake_timeout_ms = handshake_ms;
    }
    config.pool.steal_after_ms = cli.get_duration_ms("steal-after");

    // Handlers go in before the port file exists: a supervisor may signal
    // as soon as it sees the file, and that signal must drain, not kill.
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);
    serve::Server server{std::move(config)};
    server.start();
    std::printf("qhdl_serve: listening on %s:%u\n",
                cli.get_string("host").c_str(),
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    const std::string port_file = cli.get_string("port-file");
    if (!port_file.empty()) {
      util::atomic_write_file(port_file,
                              std::to_string(server.port()) + "\n");
    }

    while (g_drain == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    util::log_info("qhdl_serve: drain requested, finishing in-flight jobs");
    server.stop();

    std::printf("qhdl_serve: done — %s\n",
                server.metrics().to_string().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qhdl_serve: error: %s\n", e.what());
    return 1;
  }
}

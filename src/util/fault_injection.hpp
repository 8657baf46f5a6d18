// Deterministic fault injection for the durability layer.
//
// Crash-safe execution (search/checkpoint.hpp), atomic result persistence
// (util/atomic_file.hpp), and the training loop's non-finite guards
// (nn/trainer.cpp) all have failure paths that would otherwise only run when
// real hardware misbehaves. This injector makes those paths testable: named
// sites count their arrivals with process-global counters, and a spec —
// taken from the QHDL_FAULT_SPEC environment variable or set directly by
// tests — declares at which arrivals a site fires and what failure it
// emulates.
//
// Spec grammar (sites separated by ';'):
//   <site>=<action>@<trigger>[,<trigger>...]
// where
//   site    = unit | io | dir | loss | worker | accept | sock | conn
//   action  = crash (unit/io: throw InjectedCrash; worker: std::abort(),
//                    so the worker process dies by signal mid-unit)
//           | fail  (io/dir: throw std::runtime_error, like a full disk /
//                    a directory fsync error after rename;
//                    accept: the accepted connection is closed immediately,
//                    as if the listener hit a transient accept failure)
//           | nan   (loss: the guarded loss value becomes quiet NaN)
//           | hang  (worker: wedge silently without emitting frames, so the
//                    supervisor's deadline/heartbeat reaper must act)
//           | garbage (worker: emit a corrupt protocol frame and exit)
//           | short (sock: the framed read delivers at most one byte, so
//                    frames arrive maximally fragmented — reassembly must
//                    still produce identical results)
//           | drop  (sock: the framed read observes EOF, emulating a peer
//                    that disconnected; mid-frame this must surface as a
//                    descriptive truncated-frame error)
//           | slow  (sock: the framed read stalls without consuming data,
//                    emulating a slow-loris peer — the read deadline, not
//                    the peer, must bound the wait;
//                    conn: the supervisor stalls reading a worker connection
//                    this arrival — a slow registration handshake must be
//                    bounded by the handshake deadline)
//           | refuse (conn: an outbound connect_tcp throws as if the peer
//                    refused — reconnect/backoff must retry)
//           | reset (conn: an established remote-worker connection is torn
//                    down as if the peer sent RST — the unit it was running
//                    must be re-dispatched without losing determinism)
//           | partition (conn: the supervisor stops reading a remote-worker
//                    connection without closing it — heartbeat liveness, not
//                    the transport, must detect the split; the daemon's
//                    reconnect is the heal)
// and trigger = 1-based arrival count, with an optional '+' suffix meaning
// "this arrival and every one after it".
// Examples:
//   QHDL_FAULT_SPEC="unit=crash@3"      crash at the 3rd unit boundary
//   QHDL_FAULT_SPEC="io=fail@2"         2nd atomic file write fails
//   QHDL_FAULT_SPEC="dir=fail@1"        1st post-rename directory fsync fails
//   QHDL_FAULT_SPEC="loss=nan@5,8"      losses 5 and 8 become NaN
//   QHDL_FAULT_SPEC="loss=nan@1+"       every loss becomes NaN
//   QHDL_FAULT_SPEC="worker=crash@2"    worker aborts on its 2nd unit
//   QHDL_FAULT_SPEC="accept=fail@1"     1st accepted connection is dropped
//   QHDL_FAULT_SPEC="sock=short@1+"     every socket read is 1 byte
//   QHDL_FAULT_SPEC="sock=short@1;sock=drop@2"  disconnect mid-frame
//   QHDL_FAULT_SPEC="conn=refuse@1"     1st outbound connect is refused
//   QHDL_FAULT_SPEC="conn=reset@1"      1st worker-connection event resets
//
// The worker site only arrives inside --worker-mode processes (each with its
// own fresh counters), so "worker=crash@2" means "every worker instance dies
// on the second unit it receives" — the supervisor retries the unit on a
// respawned worker whose counter starts over.
//
// Counters are deterministic whenever the arrivals are (serial execution, or
// sites placed in serialized sections such as the search's commit loop).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace qhdl::util {

enum class FaultSite {
  UnitBoundary = 0,
  IoWrite = 1,
  Loss = 2,
  Worker = 3,
  DirSync = 4,
  SocketAccept = 5,
  SocketRead = 6,
  Connection = 7,  ///< last site: sizes the arrival-counter array
};

/// What a worker process should do with the unit it just received.
enum class WorkerFaultMode { None, Crash, Hang, Garbage };

/// What a framed socket read should emulate for this read attempt.
enum class SocketFaultMode { None, ShortRead, Disconnect, Slow };

/// What a remote-worker connection event should emulate (supervisor side).
enum class ConnFaultMode { None, Refuse, Reset, Partition, Slow };

/// Emulates a process kill at an injection site. Deliberately NOT derived
/// from std::runtime_error: ordinary error handling must not absorb it, so
/// a crash propagates out of the study exactly like a real SIGKILL would
/// erase it — only the fault tests catch this type.
class InjectedCrash : public std::exception {
 public:
  explicit InjectedCrash(std::string message) : message_(std::move(message)) {}
  const char* what() const noexcept override { return message_.c_str(); }

 private:
  std::string message_;
};

class FaultInjector {
 public:
  /// Process-wide instance; reads QHDL_FAULT_SPEC once on first access.
  static FaultInjector& instance();

  /// Replaces the active spec and zeroes all arrival counters. Empty spec
  /// disables injection. Throws std::invalid_argument on a malformed spec.
  void configure(const std::string& spec);

  /// True when any trigger is armed.
  bool armed() const;

  /// Counts one arrival at `site`; true when a trigger fires for it.
  bool fires(FaultSite site);

  /// Arrivals counted at `site` since the last configure().
  std::uint64_t arrivals(FaultSite site) const;

  // --- site helpers (count an arrival, then act) --------------------------

  /// Work-unit boundary: throws InjectedCrash when a `unit=crash` fires.
  void on_unit_boundary(const std::string& where);

  /// Durable write: throws InjectedCrash (`io=crash`) or std::runtime_error
  /// (`io=fail`) when a trigger fires.
  void on_io_write(const std::string& path);

  /// Loss computation: true when a `loss=nan` trigger fires and the guarded
  /// loss value should be replaced with quiet NaN.
  bool poison_loss();

  /// Post-rename parent-directory fsync: throws std::runtime_error when a
  /// `dir=fail` trigger fires (the content is committed but its durability
  /// is not provable — see util/atomic_file.cpp).
  void on_io_dir_sync(const std::string& path);

  /// Worker-process unit receipt: which failure the worker should emulate
  /// for this unit (None when no trigger fires). The caller acts on it —
  /// crash/hang/garbage happen in search::worker_main, not here, because
  /// they are process-level behaviours.
  WorkerFaultMode on_worker_unit(const std::string& key);

  /// Listener accept: true when an `accept=fail` trigger fires and the
  /// freshly accepted connection should be closed immediately, emulating a
  /// transient accept-path failure (see util/socket.cpp).
  bool on_socket_accept();

  /// Framed socket read attempt: which peer misbehaviour to emulate for
  /// this read (None when no trigger fires). The caller acts on it —
  /// short/drop/slow happen in the frame-read loop, not here (see
  /// search::read_frame in worker_protocol.cpp).
  SocketFaultMode on_socket_read();

  /// Outbound TCP connect attempt: true when a `conn=refuse` trigger fires
  /// and connect_tcp should throw as if the peer refused the connection.
  /// Other conn actions do not fire here (the arrival is still counted).
  bool on_connect_attempt(const std::string& target);

  /// Remote-worker connection event on the supervisor (one arrival per
  /// handshaking or busy connection per dispatcher tick): which network
  /// misbehaviour to emulate (None when no trigger fires). Reset/partition/
  /// slow are acted on by the worker pool; `conn=refuse` does not fire here.
  ConnFaultMode on_connection(const std::string& where);

 private:
  FaultInjector();

  struct Impl;
  Impl* impl_;  // leaked singleton state; never destroyed
};

}  // namespace qhdl::util

// Self-pipe wakeup for poll()-driven loops.
//
// A thread blocked in poll() on pipes and sockets cannot also wait on a
// condition variable, so work handed to it from another thread (a queued
// unit, a resolved reply) would otherwise sit until the poll timeout. A
// Waker is a pipe whose read end the waiting thread polls next to its I/O:
// notify() writes one byte, which makes fd() readable and ends the poll,
// and the waiter drain()s the pipe before it re-checks its shared state.
// Draining before the re-check (never after) is what makes a notify racing
// with the check impossible to lose: its byte is either consumed by a
// drain that precedes the check, or still pending at the next poll.
//
// Both ends are non-blocking and close-on-exec (worker processes forked by
// the pool must not inherit them). When the pipe cannot be created — fd
// exhaustion, or a platform without pipes — fd() is -1, which poll()
// ignores, so the waiter falls back to its timeout instead of failing.
#pragma once

namespace qhdl::util {

class Waker {
 public:
  Waker();
  Waker(const Waker&) = delete;
  Waker& operator=(const Waker&) = delete;
  ~Waker();

  /// The read end, for a pollfd with POLLIN; -1 when unavailable.
  int fd() const { return read_fd_; }

  /// Wakes the waiter. Safe from any thread; never blocks (a full pipe
  /// already holds a pending wakeup).
  void notify();

  /// Consumes every pending wakeup.
  void drain();

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
};

}  // namespace qhdl::util

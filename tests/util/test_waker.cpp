// Self-pipe wakeup (util/waker.hpp): notify() ends a poll() on fd() from
// another thread, and drain() re-arms it.
#include "util/waker.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <poll.h>
#endif

namespace qhdl::util {
namespace {

#if defined(__unix__) || defined(__APPLE__)

bool readable(const Waker& waker, int timeout_ms) {
  pollfd pfd{waker.fd(), POLLIN, 0};
  return ::poll(&pfd, 1, timeout_ms) == 1 && (pfd.revents & POLLIN) != 0;
}

TEST(Waker, NotifyMakesFdReadableUntilDrained) {
  Waker waker;
  ASSERT_GE(waker.fd(), 0);
  EXPECT_FALSE(readable(waker, 0));
  waker.notify();
  waker.notify();  // coalesces with the pending wakeup
  EXPECT_TRUE(readable(waker, 0));
  waker.drain();
  EXPECT_FALSE(readable(waker, 0));
  waker.drain();  // draining an empty pipe returns instead of blocking
}

TEST(Waker, NotifyFromAnotherThreadEndsABlockedPoll) {
  Waker waker;
  ASSERT_GE(waker.fd(), 0);
  std::thread notifier([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    waker.notify();
  });
  EXPECT_TRUE(readable(waker, 10000));
  notifier.join();
}

TEST(Waker, FullPipeNeverBlocksTheNotifier) {
  Waker waker;
  ASSERT_GE(waker.fd(), 0);
  // Far beyond any pipe buffer: every notify past capacity is a no-op.
  for (int i = 0; i < 200000; ++i) waker.notify();
  waker.drain();
  EXPECT_FALSE(readable(waker, 0));
}

TEST(Waker, ReadEndIsNonBlockingAndCloseOnExec) {
  Waker waker;
  ASSERT_GE(waker.fd(), 0);
  EXPECT_NE(::fcntl(waker.fd(), F_GETFD) & FD_CLOEXEC, 0);
  EXPECT_NE(::fcntl(waker.fd(), F_GETFL) & O_NONBLOCK, 0);
}

#endif  // defined(__unix__) || defined(__APPLE__)

}  // namespace
}  // namespace qhdl::util

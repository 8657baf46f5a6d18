#include "util/waker.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <fcntl.h>
#include <unistd.h>
#endif

namespace qhdl::util {

#if defined(__unix__) || defined(__APPLE__)

Waker::Waker() {
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) return;
  for (int fd : fds) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0 ||
        ::fcntl(fd, F_SETFD, FD_CLOEXEC) < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return;
    }
  }
  read_fd_ = fds[0];
  write_fd_ = fds[1];
}

Waker::~Waker() {
  if (read_fd_ >= 0) ::close(read_fd_);
  if (write_fd_ >= 0) ::close(write_fd_);
}

void Waker::notify() {
  if (write_fd_ < 0) return;
  const char byte = 1;
  // EAGAIN means the pipe is full of pending wakeups already.
  while (::write(write_fd_, &byte, 1) < 0 && errno == EINTR) {
  }
}

void Waker::drain() {
  if (read_fd_ < 0) return;
  char scratch[64];
  while (true) {
    const ssize_t n = ::read(read_fd_, scratch, sizeof(scratch));
    if (n > 0) continue;
    if (n < 0 && errno == EINTR) continue;
    return;  // EAGAIN: empty
  }
}

#else

Waker::Waker() = default;
Waker::~Waker() = default;
void Waker::notify() {}
void Waker::drain() {}

#endif

}  // namespace qhdl::util

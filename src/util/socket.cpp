#include "util/socket.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/fault_injection.hpp"
#include "util/logging.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define QHDL_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace qhdl::util {

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Socket::~Socket() { close(); }

ListenSocket::ListenSocket(ListenSocket&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

ListenSocket& ListenSocket::operator=(ListenSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

ListenSocket::~ListenSocket() { close(); }

#ifdef QHDL_HAVE_SOCKETS

bool sockets_supported() { return true; }

namespace {

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("socket: not a numeric IPv4 address: '" + host +
                             "'");
  }
  return addr;
}

/// Sockets must not leak into spawned workers: an inherited listener keeps
/// its port bound after the pool closes it, and an inherited connection
/// keeps the peer from seeing EOF.
int close_on_exec(int fd) {
  if (fd >= 0) ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  return fd;
}

}  // namespace

bool Socket::write_all(const char* data, std::size_t size) {
  if (fd_ < 0) return false;
  std::size_t written = 0;
  while (written < size) {
#ifdef MSG_NOSIGNAL
    const ssize_t n =
        ::send(fd_, data + written, size - written, MSG_NOSIGNAL);
#else
    const ssize_t n = ::write(fd_, data + written, size - written);
#endif
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        // Clean peer disconnect: the client went away mid-reply. The
        // connection handler treats this as the end of the conversation.
        log_debug("Socket::write_all: peer disconnected (EPIPE/ECONNRESET)");
      } else {
        log_warn(std::string{"Socket::write_all: send failed: "} +
                 std::strerror(errno));
      }
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

void Socket::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket connect_tcp(const std::string& host, std::uint16_t port,
                   std::uint64_t timeout_ms) {
  const std::string target = host + ":" + std::to_string(port);
  if (FaultInjector::instance().on_connect_attempt(target)) {
    throw std::runtime_error("connect_tcp: injected connection refused (" +
                             target + ")");
  }
  const sockaddr_in addr = make_addr(host, port);
  const int fd = close_on_exec(::socket(AF_INET, SOCK_STREAM, 0));
  if (fd < 0) {
    throw std::runtime_error(std::string{"connect_tcp: socket failed: "} +
                             std::strerror(errno));
  }
  if (timeout_ms == 0) {
    int rc;
    do {
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) {
      const int saved = errno;
      ::close(fd);
      throw std::runtime_error("connect_tcp: connect to " + target +
                               " failed: " + std::strerror(saved));
    }
  } else {
    // Deadline-bounded connect: a plain ::connect against a black-holed
    // host blocks for the OS default (often minutes). Flip the socket
    // non-blocking, poll for writability, and read the outcome back with
    // SO_ERROR before restoring blocking mode.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
      const int saved = errno;
      ::close(fd);
      throw std::runtime_error(std::string{"connect_tcp: fcntl failed: "} +
                               std::strerror(saved));
    }
    int rc;
    do {
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc < 0 && errno == EINTR);
    if (rc < 0 && errno != EINPROGRESS) {
      const int saved = errno;
      ::close(fd);
      throw std::runtime_error("connect_tcp: connect to " + target +
                               " failed: " + std::strerror(saved));
    }
    if (rc < 0) {  // in progress: wait for the handshake or the deadline
      const Deadline deadline = Deadline::after_ms(timeout_ms);
      bool writable = false;
      while (!deadline.expired()) {
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = POLLOUT;
        const std::uint64_t remaining = deadline.remaining_ms();
        const int slice = static_cast<int>(remaining < 100 ? remaining : 100);
        const int ready = ::poll(&pfd, 1, slice);
        if (ready < 0) {
          if (errno == EINTR) continue;
          const int saved = errno;
          ::close(fd);
          throw std::runtime_error(
              std::string{"connect_tcp: poll failed: "} +
              std::strerror(saved));
        }
        if (ready > 0) {
          writable = true;
          break;
        }
      }
      if (!writable) {
        ::close(fd);
        throw std::runtime_error("connect_tcp: connect to " + target +
                                 " timed out after " +
                                 std::to_string(timeout_ms) + " ms");
      }
      int err = 0;
      socklen_t len = sizeof(err);
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
        err = errno;
      }
      if (err != 0) {
        ::close(fd);
        throw std::runtime_error("connect_tcp: connect to " + target +
                                 " failed: " + std::strerror(err));
      }
    }
    if (::fcntl(fd, F_SETFL, flags) < 0) {
      const int saved = errno;
      ::close(fd);
      throw std::runtime_error(std::string{"connect_tcp: fcntl failed: "} +
                               std::strerror(saved));
    }
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one));
  return Socket{fd};
}

ListenSocket ListenSocket::listen_tcp(const std::string& host,
                                      std::uint16_t port, int backlog) {
  const sockaddr_in addr = make_addr(host, port);
  const int fd = close_on_exec(::socket(AF_INET, SOCK_STREAM, 0));
  if (fd < 0) {
    throw std::runtime_error(std::string{"listen_tcp: socket failed: "} +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error("listen_tcp: bind to " + host + ":" +
                             std::to_string(port) + " failed: " +
                             std::strerror(saved));
  }
  if (::listen(fd, backlog) < 0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error(std::string{"listen_tcp: listen failed: "} +
                             std::strerror(saved));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error(std::string{"listen_tcp: getsockname failed: "} +
                             std::strerror(saved));
  }
  ListenSocket listener;
  listener.fd_ = fd;
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

std::optional<Socket> ListenSocket::accept(const Deadline& deadline,
                                           bool* injected_failure) {
  if (injected_failure != nullptr) *injected_failure = false;
  while (fd_ >= 0 && !deadline.expired()) {
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const std::uint64_t remaining = deadline.remaining_ms();
    const int timeout = static_cast<int>(remaining < 100 ? remaining : 100);
    const int ready = ::poll(&pfd, 1, timeout);
    if (ready < 0) {
      if (errno == EINTR) continue;
      log_warn(std::string{"ListenSocket::accept: poll failed: "} +
               std::strerror(errno));
      return std::nullopt;
    }
    if (ready == 0) continue;  // slice elapsed; re-check deadline and fd
    const int conn = close_on_exec(::accept(fd_, nullptr, nullptr));
    if (conn < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      log_warn(std::string{"ListenSocket::accept: accept failed: "} +
               std::strerror(errno));
      return std::nullopt;
    }
    if (FaultInjector::instance().on_socket_accept()) {
      ::close(conn);
      if (injected_failure != nullptr) *injected_failure = true;
      return std::nullopt;
    }
    const int one = 1;
    ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return Socket{conn};
  }
  return std::nullopt;
}

void ListenSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

#else  // !QHDL_HAVE_SOCKETS

bool sockets_supported() { return false; }

bool Socket::write_all(const char*, std::size_t) { return false; }
void Socket::shutdown_write() {}
void Socket::close() { fd_ = -1; }

Socket connect_tcp(const std::string&, std::uint16_t, std::uint64_t) {
  throw std::runtime_error(
      "connect_tcp: TCP sockets are not supported on this platform");
}

ListenSocket ListenSocket::listen_tcp(const std::string&, std::uint16_t,
                                      int) {
  throw std::runtime_error(
      "listen_tcp: TCP sockets are not supported on this platform");
}

std::optional<Socket> ListenSocket::accept(const Deadline&, bool*) {
  return std::nullopt;
}

void ListenSocket::close() { fd_ = -1; }

#endif  // QHDL_HAVE_SOCKETS

}  // namespace qhdl::util

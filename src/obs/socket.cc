#include "obs/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/trace.h"

namespace lcrec::obs {

namespace {

bool SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Non-blocking, and Nagle off: both protocols write whole messages and
/// wait for the answer, so a delayed small segment is pure latency.
bool ConfigureStream(int fd) {
  int one = 1;
  return SetNonBlocking(fd) &&
         ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
}

bool ParseAddress(const std::string& host, int port, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<uint16_t>(port));
  return inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1;
}

bool WouldBlock() { return errno == EAGAIN || errno == EWOULDBLOCK; }

/// One recv() into the tail of *in, retrying EINTR. Returns the bytes
/// appended, 0 at EOF, or -1 with errno set (WouldBlock: nothing waiting).
ssize_t RecvAppend(int fd, std::string* in) {
  char buf[4096];
  ssize_t n;
  do {
    n = ::recv(fd, buf, sizeof(buf), 0);
  } while (n < 0 && errno == EINTR);
  if (n > 0) in->append(buf, static_cast<size_t>(n));
  return n;
}

/// One send(), retrying EINTR, never raising SIGPIPE.
ssize_t SendSome(int fd, const char* data, size_t size) {
  ssize_t n;
  do {
    n = ::send(fd, data, size, MSG_NOSIGNAL);
  } while (n < 0 && errno == EINTR);
  return n;
}

/// Bounds the next blocking connect/send/recv on `fd` (`option` is
/// SO_SNDTIMEO or SO_RCVTIMEO) by `deadline_us`. A timeval of zero would
/// mean no bound, so at least 1 us is armed.
bool ArmTimeout(int fd, int option, double deadline_us) {
  const double left_us = std::max(1.0, deadline_us - NowMicros());
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(left_us / 1e6);
  tv.tv_usec = static_cast<suseconds_t>(left_us - tv.tv_sec * 1e6);
  return ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv)) == 0;
}

}  // namespace

EventLoop::EventLoop(ConnHandler* handler) : handler_(handler) {}

EventLoop::~EventLoop() {
  Stop();
  for (int fd : wake_fds_) CloseSocket(fd);
}

bool EventLoop::Start(const EventLoopOptions& options, std::string* error) {
  auto fail = [this, error](const std::string& why) {
    if (error != nullptr) *error = why + ": " + std::strerror(errno);
    CloseListener();
    return false;
  };
  if (thread_.joinable()) return true;
  options_ = options;

  sockaddr_in addr;
  if (!ParseAddress(options_.bind_host, options_.port, &addr)) {
    if (error != nullptr) *error = "bad bind host '" + options_.bind_host + "'";
    return false;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  int one = 1;
  if (::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) !=
      0) {
    return fail("setsockopt");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, options_.max_connections) != 0) {
    return fail("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return fail("getsockname");
  }
  if (!SetNonBlocking(listen_fd_)) return fail("fcntl");
  if (wake_fds_[0] < 0 && ::pipe(wake_fds_) != 0) return fail("pipe");
  // Both ends non-blocking: a full pipe already means a pending wake.
  if (!SetNonBlocking(wake_fds_[0]) || !SetNonBlocking(wake_fds_[1])) {
    return fail("fcntl");
  }

  stop_.store(false, std::memory_order_release);
  port_.store(ntohs(addr.sin_port), std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
  return true;
}

void EventLoop::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  Wake();
  thread_.join();
  CloseListener();
  port_.store(-1, std::memory_order_release);
}

void EventLoop::Wake() {
  if (wake_fds_[1] < 0) return;
  char byte = 'x';
  ssize_t ignored = ::write(wake_fds_[1], &byte, 1);
  (void)ignored;  // EAGAIN: the pipe is full, a wake is already pending
}

void EventLoop::CloseListener() {
  CloseSocket(listen_fd_);
  listen_fd_ = -1;
}

Conn* EventLoop::Find(uint64_t id) {
  for (Conn& c : conns_) {
    if (c.id == id) return &c;
  }
  return nullptr;
}

void EventLoop::AcceptPending() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN/EINTR/...: back to poll
    Conn conn;
    conn.id = next_conn_id_++;
    conn.fd = fd;
    conn.open_us = conn.last_active_us = NowMicros();
    const bool over_capacity =
        conns_.size() >= static_cast<size_t>(options_.max_connections);
    if (!ConfigureStream(fd) || !handler_->OnAccept(&conn, over_capacity)) {
      CloseSocket(fd);
      continue;
    }
    conns_.push_back(std::move(conn));
  }
}

bool EventLoop::Service(Conn* conn, short revents, double now_us) {
  if ((revents & POLLNVAL) != 0) return false;
  if (conn->reading && (revents & POLLIN) != 0) {
    bool eof = false;
    while (conn->in.size() <= options_.max_read_bytes) {
      ssize_t n = RecvAppend(conn->fd, &conn->in);
      if (n < 0 && !WouldBlock()) return false;
      if (n <= 0) {
        eof = n == 0;
        break;
      }
      conn->last_active_us = NowMicros();
    }
    if (!handler_->OnRead(conn, eof)) return false;
  }
  if (!conn->flushed() && (revents & (POLLOUT | POLLERR | POLLHUP)) != 0) {
    while (!conn->flushed()) {
      ssize_t n = SendSome(conn->fd, conn->out.data() + conn->sent,
                           conn->out.size() - conn->sent);
      if (n < 0 && WouldBlock()) break;
      if (n <= 0) return false;
      conn->sent += static_cast<size_t>(n);
      conn->last_active_us = NowMicros();
    }
    if (conn->flushed()) {
      conn->out.clear();  // it only ever grows by append
      conn->sent = 0;
    }
  }
  if (conn->flushed() && (revents & (POLLERR | POLLHUP)) != 0 &&
      (revents & POLLIN) == 0) {
    return false;
  }
  if (conn->closing && conn->flushed() && conn->inflight == 0) return false;
  return !handler_->Expired(*conn, now_us);
}

void EventLoop::Run() {
  std::vector<pollfd> pfds;
  for (;;) {
    pfds.clear();
    pfds.push_back({wake_fds_[0], POLLIN, 0});
    const size_t listen_idx = listen_fd_ >= 0 ? pfds.size() : 0;
    if (listen_fd_ >= 0) pfds.push_back({listen_fd_, POLLIN, 0});
    const size_t conn_base = pfds.size();
    for (const Conn& c : conns_) {
      short events = c.reading ? POLLIN : 0;
      if (!c.flushed()) events |= POLLOUT;
      pfds.push_back({c.fd, events, 0});
    }
    int rc = ::poll(pfds.data(), pfds.size(), /*timeout_ms=*/250);
    if (stop_.load(std::memory_order_acquire)) break;
    if (rc < 0 && errno != EINTR) break;
    if ((pfds[0].revents & POLLIN) != 0) {
      char buf[64];
      while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }

    handler_->BeginPass();
    const double now = NowMicros();
    size_t keep = 0;
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (Service(&c, pfds[conn_base + i].revents, now)) {
        if (keep != i) conns_[keep] = std::move(c);
        ++keep;
      } else {
        CloseSocket(c.fd);
      }
    }
    conns_.resize(keep);
    // BeginPass may have closed the listener since the poll.
    if (listen_idx != 0 && listen_fd_ >= 0 &&
        (pfds[listen_idx].revents & POLLIN) != 0) {
      AcceptPending();
    }
    if (!handler_->EndPass(conns_.size())) break;
  }
  for (Conn& c : conns_) CloseSocket(c.fd);
  conns_.clear();
}

int ConnectTcp(const std::string& host, int port, double timeout_s,
               std::string* error) {
  auto fail = [error](int fd, const std::string& why) {
    CloseSocket(fd);
    if (error != nullptr) *error = why;
    return -1;
  };
  sockaddr_in addr;
  if (!ParseAddress(host, port, &addr)) {
    return fail(-1, "bad host '" + host + "'");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail(fd, "socket failed");
  int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0 ||
      !ArmTimeout(fd, SO_SNDTIMEO, NowMicros() + timeout_s * 1e6)) {
    return fail(fd, "socket setup failed");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    // SO_SNDTIMEO expiring mid-connect reads as EINPROGRESS.
    if (errno == EINPROGRESS || WouldBlock()) {
      return fail(fd, "connect timeout");
    }
    return fail(fd, errno == ECONNREFUSED ? "connect refused"
                                          : "connect failed");
  }
  return fd;
}

bool SendAll(int fd, const std::string& bytes, double deadline_us,
             std::string* error) {
  auto fail = [error](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };
  size_t sent = 0;
  while (sent < bytes.size()) {
    if (!ArmTimeout(fd, SO_SNDTIMEO, deadline_us)) return fail("send failed");
    ssize_t n = SendSome(fd, bytes.data() + sent, bytes.size() - sent);
    if (n <= 0) {
      return fail(n < 0 && WouldBlock() ? "send timeout" : "send failed");
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

RecvStatus RecvSome(int fd, std::string* in, double deadline_us) {
  if (!ArmTimeout(fd, SO_RCVTIMEO, deadline_us)) return RecvStatus::kError;
  ssize_t n = RecvAppend(fd, in);
  if (n > 0) return RecvStatus::kData;
  if (n == 0) return RecvStatus::kClosed;
  return WouldBlock() ? RecvStatus::kTimeout : RecvStatus::kError;
}

void CloseSocket(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace lcrec::obs

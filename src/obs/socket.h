#ifndef LCREC_OBS_SOCKET_H_
#define LCREC_OBS_SOCKET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace lcrec::obs {

/// The repo's one socket layer: a TCP listener with a self-pipe wake, one
/// poll() event loop over buffered connections, and blocking client
/// helpers. obs::HttpServer and net::RpcServer/RpcChannel are protocols
/// on top; socket.cc is the only file allowed to call the socket API
/// (lcrec_lint raw-socket rule). Numeric IPv4 addresses only.

/// One accepted connection. The loop owns the fd and does the I/O; the
/// protocol consumes `in`, appends to `out` and sets the flags.
struct Conn {
  uint64_t id = 0;  // unique for the loop's lifetime, never reused
  int fd = -1;
  std::string in;   // bytes read, not yet consumed by the protocol
  std::string out;  // bytes queued for the peer
  size_t sent = 0;  // bytes of `out` written (both reset once flushed)
  double open_us = 0.0;         // NowMicros at accept
  double last_active_us = 0.0;  // last byte read or written
  bool reading = true;   // poll for input
  bool closing = false;  // close once `out` is flushed and nothing in flight
  int inflight = 0;      // requests handed off, answer not yet in `out`

  bool flushed() const { return sent >= out.size(); }
};

/// Protocol callbacks, all run on the loop thread.
class ConnHandler {
 public:
  /// A new connection; `over_capacity` when the table already holds
  /// max_connections. Return false to close it at once.
  virtual bool OnAccept(Conn* conn, bool over_capacity) = 0;
  /// The loop has read what the socket held into `conn->in` (`eof`: the
  /// peer closed its side). Return false to close the connection now.
  virtual bool OnRead(Conn* conn, bool eof) = 0;
  /// The protocol's own close rule (idle timeout, drain), asked once per
  /// pass of every connection that survived its I/O.
  virtual bool Expired(const Conn& conn, double now_us) = 0;
  /// Once per pass, before connections are serviced.
  virtual void BeginPass() {}
  /// Once per pass, after; return false to end the loop.
  virtual bool EndPass(size_t /*open_conns*/) { return true; }

 protected:
  ~ConnHandler() = default;  // never deleted through this interface
};

struct EventLoopOptions {
  std::string bind_host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral; read back via port()
  /// Connections served at once, and the listen backlog.
  int max_connections = 16;
  /// A connection is not read further while `in` holds more than this.
  size_t max_read_bytes = SIZE_MAX;
};

/// A listener plus one thread running a poll() loop over the wake pipe,
/// the listener and every connection. Each pass waits at most 250 ms,
/// then reads, writes, accepts, and applies the close rules.
class EventLoop {
 public:
  explicit EventLoop(ConnHandler* handler);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Binds, listens, and starts the loop thread. Returns false (reason
  /// in *error when given) on failure. Restartable after Stop.
  bool Start(const EventLoopOptions& options, std::string* error = nullptr);
  /// Ends the loop, joins it, and closes every connection and the
  /// listener. Idempotent.
  void Stop();
  /// Wakes the loop for an early pass. Any thread; no-op before Start.
  void Wake();

  /// Bound port (the kernel's pick for port 0); -1 when stopped.
  int port() const { return port_.load(std::memory_order_acquire); }

  /// Loop thread only: stops accepting (new connects are refused).
  void CloseListener();
  /// Loop thread only: the open connection with `id`, or null.
  Conn* Find(uint64_t id);

 private:
  void Run();
  void AcceptPending();
  /// One connection's I/O and close rules; false when it must close.
  bool Service(Conn* conn, short revents, double now_us);

  ConnHandler* handler_;
  EventLoopOptions options_;
  std::atomic<bool> stop_{false};
  std::atomic<int> port_{-1};
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // created on first Start, kept until ~
  uint64_t next_conn_id_ = 1;   // loop thread only
  std::vector<Conn> conns_;     // loop thread only
  std::thread thread_;
};

/// Client helpers over blocking sockets, every call bounded by a kernel
/// timeout (SO_SNDTIMEO/SO_RCVTIMEO) so that the event loop is the only
/// poll(). Connects to `host`:`port` within `timeout_s`; returns the fd,
/// or -1 with a short reason ("connect timeout") in *error.
int ConnectTcp(const std::string& host, int port, double timeout_s,
               std::string* error);
/// Writes all of `bytes` before `deadline_us` (NowMicros clock).
bool SendAll(int fd, const std::string& bytes, double deadline_us,
             std::string* error);

enum class RecvStatus { kData, kClosed, kTimeout, kError };
/// Appends at least one byte to *in, waiting until `deadline_us` at most.
RecvStatus RecvSome(int fd, std::string* in, double deadline_us);

void CloseSocket(int fd);

}  // namespace lcrec::obs

#endif  // LCREC_OBS_SOCKET_H_

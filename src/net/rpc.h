#ifndef LCREC_NET_RPC_H_
#define LCREC_NET_RPC_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "obs/socket.h"
#include "obs/sync.h"

namespace lcrec::net {

/// Binary RPC endpoints over the frame format in frame.h. The server is
/// a protocol on its own obs::EventLoop (obs/socket.h), the loop
/// obs::HttpServer also runs on, with one addition: handlers run on a
/// small dispatcher pool and complete through a completion queue,
/// because Recommend blocks for a batch tick and a blocking handler
/// inside the poll loop would serialize the very concurrency the batch
/// engine exists to exploit.
///
/// Mutex ranks here sit at 14–19, below every serve-layer rank (20+):
/// dispatcher threads call into serve::Server with no net lock held, so
/// net → serve acquisition is always rank-increasing (DESIGN.md §13).

/// Request handler: decode `request`, fill `*response` (opaque payload
/// bytes) and return true, or fill `*error` and return false (the
/// caller receives an error frame carrying the text). Runs on a
/// dispatcher thread; must be thread-safe and may block.
using RpcHandler =
    std::function<bool(const std::string& request, std::string* response,
                       std::string* error)>;

struct RpcServerOptions {
  std::string bind_host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral; read back via port()
  int max_connections = 64;
  size_t max_payload_bytes = kDefaultMaxPayload;
  double idle_timeout_s = 60.0;
  /// Handler pool width. Recommend-bearing servers want this at or
  /// above the batch engine's lane count so the wire can fill a batch.
  int dispatch_threads = 8;
};

class RpcServer final : private obs::ConnHandler {
 public:
  explicit RpcServer(RpcServerOptions options = {});
  ~RpcServer();

  /// Registers `handler` for `method`. Call before Start.
  void Handle(uint32_t method, RpcHandler handler);

  bool Start(std::string* error = nullptr);

  /// Graceful drain (the worker half of the router handoff): closes the
  /// listener immediately — new connects are refused and the router
  /// re-resolves the shard — then lets queued and in-flight requests
  /// finish and their responses flush before connections close. The
  /// loop exits once quiet; call WaitDrained to observe that, then Stop.
  void BeginDrain();

  /// True once a drain completed (all work done, responses flushed,
  /// connections closed). False on timeout.
  bool WaitDrained(double timeout_s);

  /// Hard stop: ends the loop (without waiting for in-flight work to be
  /// delivered), joins every thread, closes every fd. Idempotent; the
  /// destructor calls it.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }
  /// Bound port, or -1 when not running.
  int port() const { return loop_.port(); }

  struct Stats {
    int64_t conns_accepted = 0;
    int64_t conns_dropped = 0;  // over max_connections
    int64_t frames_in = 0;      // valid request frames
    int64_t bad_frames = 0;     // garbage magic / CRC / oversized / type
    int64_t requests = 0;       // dispatched to a handler
    int64_t errors = 0;         // error frames sent
  };
  Stats stats() const;

  /// One text block for a debugz /statusz section ("net.rpc").
  std::string StatuszText() const;

 private:
  using Conn = obs::Conn;
  struct Work {
    uint64_t conn_id = 0;
    Frame frame;
  };
  struct Completion {
    uint64_t conn_id = 0;
    std::string bytes;
  };

  // obs::ConnHandler, on the loop thread.
  bool OnAccept(Conn* conn, bool over_capacity) override;
  /// Decodes complete frames and queues them for the dispatchers.
  /// Returns false when the connection must close.
  bool OnRead(Conn* conn, bool eof) override;
  bool Expired(const Conn& conn, double now_us) override;
  /// Drain step 1 and the completion merge.
  void BeginPass() override;
  /// Drain step 3: true until the drained server is quiet.
  bool EndPass(size_t open_conns) override;

  void DispatchLoop();
  void MergeCompletions();
  void QueueErrorFrame(Conn* conn, uint32_t method, uint64_t request_id,
                       const std::string& text);

  RpcServerOptions options_;

  mutable obs::Mutex handlers_mu_{"net.rpc.handlers", 14};
  std::map<uint32_t, RpcHandler> handlers_;

  obs::Mutex work_mu_{"net.rpc.work", 15};
  obs::CondVar work_cv_;
  std::deque<Work> work_;
  bool stopping_ = false;  // under work_mu_

  obs::Mutex done_mu_{"net.rpc.done", 16};
  std::vector<Completion> done_;

  obs::Mutex drain_mu_{"net.rpc.drain", 17};
  obs::CondVar drain_cv_;
  bool drained_ = false;  // under drain_mu_

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  bool pass_draining_ = false;    // draining_ as of this pass; loop thread
  std::atomic<int> inflight_{0};  // enqueue → completion merged

  std::atomic<int64_t> conns_accepted_{0};
  std::atomic<int64_t> conns_dropped_{0};
  std::atomic<int64_t> frames_in_{0};
  std::atomic<int64_t> bad_frames_{0};
  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> errors_{0};

  obs::EventLoop loop_{this};  // its thread uses the members above
  std::vector<std::thread> dispatchers_;  // wake loop_: declared after it
};

struct RpcClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  double connect_timeout_s = 5.0;
  double call_timeout_s = 30.0;
  /// Additional attempts after a failed call (connect failure, torn
  /// frame, timeout, server error frame is NOT retried — it is a
  /// definitive answer). Recommend is idempotent, so replaying a
  /// possibly-executed request is safe.
  int max_retries = 2;
  /// First retry backoff; doubles per attempt.
  double backoff_ms = 5.0;
  size_t max_payload_bytes = kDefaultMaxPayload;
};

/// One TCP connection speaking the frame protocol. Not thread-safe; one
/// outstanding call at a time (RpcClient pools channels for
/// concurrency). Consults the serve::chaos conn/frame sites so
/// LCREC_CHAOS reaches the wire.
class RpcChannel {
 public:
  RpcChannel(std::string host, int port, const RpcClientOptions& options);
  ~RpcChannel();

  bool Connect(std::string* error);
  bool connected() const { return fd_ >= 0; }
  void Close();

  /// One request/response exchange. On an error frame, fills `*error`
  /// with the server's text and returns false (channel stays usable).
  /// On a transport failure the channel closes itself.
  bool Call(uint32_t method, const std::string& request,
            std::string* response, std::string* error);

 private:
  std::string host_;
  int port_;
  RpcClientOptions options_;
  int fd_ = -1;
  std::string in_;
  uint64_t next_request_id_ = 1;
};

/// Thread-safe client: a pool of channels to one endpoint, with
/// retry-with-backoff around transport failures. Concurrent Calls each
/// borrow (or open) their own channel, so N callers drive N sockets —
/// which is what lets a remote worker's batch engine form real batches.
class RpcClient {
 public:
  explicit RpcClient(RpcClientOptions options);
  ~RpcClient();

  bool Call(uint32_t method, const std::string& request,
            std::string* response, std::string* error);

  const RpcClientOptions& options() const { return options_; }

  struct Stats {
    int64_t calls = 0;
    int64_t retries = 0;
    int64_t failures = 0;  // calls that failed after every retry
  };
  Stats stats() const;

 private:
  RpcClientOptions options_;
  obs::Mutex pool_mu_{"net.rpc.client", 18};
  std::vector<std::unique_ptr<RpcChannel>> pool_;
  std::atomic<int64_t> calls_{0};
  std::atomic<int64_t> retries_{0};
  std::atomic<int64_t> failures_{0};
};

}  // namespace lcrec::net

#endif  // LCREC_NET_RPC_H_

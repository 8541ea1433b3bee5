#include "net/rpc.h"

#include <chrono>
#include <utility>

#include "core/check.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/chaos.h"

namespace lcrec::net {

namespace {

/// Cached metric handles for the RPC layer (lcrec.net.*). Process-wide:
/// a router process aggregates its front server and every worker
/// channel into the same counters.
struct NetMetrics {
  obs::Counter& requests;
  obs::Counter& errors;      // error frames sent
  obs::Counter& bad_frames;  // garbage magic / CRC / oversized / type
  obs::Histogram& handle_us;
  obs::Counter& client_calls;
  obs::Counter& client_retries;
  obs::Counter& client_failures;

  static NetMetrics& Get() {
    static NetMetrics* m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
      return new NetMetrics{
          r.GetCounter("lcrec.net.rpc.requests"),
          r.GetCounter("lcrec.net.rpc.errors"),
          r.GetCounter("lcrec.net.rpc.bad_frames"),
          r.GetHistogram("lcrec.net.rpc.handle_us",
                         obs::Histogram::ExponentialBounds(10.0, 2.0, 24)),
          r.GetCounter("lcrec.net.client.calls"),
          r.GetCounter("lcrec.net.client.retries"),
          r.GetCounter("lcrec.net.client.failures"),
      };
    }();
    return *m;
  }
};

void SleepUs(double us) {
  if (us <= 0.0) return;
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(us)));
}

}  // namespace

// ---------------------------------------------------------------------------
// RpcServer

RpcServer::RpcServer(RpcServerOptions options) : options_(std::move(options)) {
  LCREC_CHECK_GT(options_.max_connections, 0);
  LCREC_CHECK_GT(options_.dispatch_threads, 0);
  LCREC_CHECK_GT(options_.max_payload_bytes, size_t{0});
}

RpcServer::~RpcServer() { Stop(); }

void RpcServer::Handle(uint32_t method, RpcHandler handler) {
  obs::MutexLock lock(handlers_mu_);
  handlers_[method] = std::move(handler);
}

bool RpcServer::Start(std::string* error) {
  if (running()) return true;
  {
    obs::MutexLock lock(work_mu_);
    stopping_ = false;
  }
  {
    obs::MutexLock lock(drain_mu_);
    drained_ = false;
  }
  draining_.store(false, std::memory_order_release);
  inflight_.store(0, std::memory_order_release);
  if (!loop_.Start({.bind_host = options_.bind_host,
                    .port = options_.port,
                    .max_connections = options_.max_connections},
                   error)) {
    return false;
  }
  running_.store(true, std::memory_order_release);
  dispatchers_.reserve(static_cast<size_t>(options_.dispatch_threads));
  for (int i = 0; i < options_.dispatch_threads; ++i) {
    dispatchers_.emplace_back([this] { DispatchLoop(); });
  }
  return true;
}

void RpcServer::BeginDrain() {
  if (!running()) return;
  draining_.store(true, std::memory_order_release);
  loop_.Wake();
}

bool RpcServer::WaitDrained(double timeout_s) {
  obs::UniqueLock lock(drain_mu_);
  return drain_cv_.WaitFor(
      lock,
      std::chrono::microseconds(static_cast<int64_t>(timeout_s * 1e6)),
      [this]() LCREC_REQUIRES(drain_mu_) { return drained_; });
}

void RpcServer::Stop() {
  // The loop goes first so no new work is queued; the dispatchers then
  // finish the backlog (their wakes hit a pipe that outlives the loop).
  running_.store(false, std::memory_order_release);
  loop_.Stop();
  {
    obs::MutexLock lock(work_mu_);
    stopping_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : dispatchers_) {
    if (t.joinable()) t.join();
  }
  dispatchers_.clear();
}

RpcServer::Stats RpcServer::stats() const {
  Stats s;
  s.conns_accepted = conns_accepted_.load(std::memory_order_relaxed);
  s.conns_dropped = conns_dropped_.load(std::memory_order_relaxed);
  s.frames_in = frames_in_.load(std::memory_order_relaxed);
  s.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  return s;
}

std::string RpcServer::StatuszText() const {
  Stats s = stats();
  std::string out;
  out += "port " + std::to_string(port()) + " state ";
  out += !running() ? "stopped" : (draining() ? "draining" : "serving");
  out += "\nconns accepted=" + std::to_string(s.conns_accepted) +
         " dropped=" + std::to_string(s.conns_dropped);
  out += "\nframes in=" + std::to_string(s.frames_in) +
         " bad=" + std::to_string(s.bad_frames);
  out += "\nrequests=" + std::to_string(s.requests) +
         " errors=" + std::to_string(s.errors) +
         " inflight=" + std::to_string(inflight_.load(std::memory_order_relaxed));
  out += "\n";
  return out;
}

void RpcServer::QueueErrorFrame(Conn* conn, uint32_t method,
                                uint64_t request_id, const std::string& text) {
  Frame f;
  f.type = FrameType::kError;
  f.method = method;
  f.request_id = request_id;
  f.payload = text;
  conn->out += EncodeFrame(f);
  errors_.fetch_add(1, std::memory_order_relaxed);
  NetMetrics::Get().errors.Increment();
}

bool RpcServer::OnRead(Conn* conn, bool eof) {
  if (eof) return false;  // peer closed
  if (conn->closing) {    // already rejecting; drop the bytes
    conn->in.clear();
    return true;
  }
  for (;;) {
    Frame f;
    size_t used = 0;
    std::string err;
    FrameStatus st =
        DecodeFrame(conn->in.data(), conn->in.size(), &f, &used, &err,
                    options_.max_payload_bytes);
    if (st == FrameStatus::kNeedMore) break;
    if (st == FrameStatus::kBad) {
      // The byte stream itself is untrustworthy (garbage magic, CRC
      // mismatch): nothing sensible can be answered on it. Close.
      bad_frames_.fetch_add(1, std::memory_order_relaxed);
      NetMetrics::Get().bad_frames.Increment();
      return false;
    }
    if (st == FrameStatus::kTooLarge) {
      // Bounded reject: the header is intact, so answer the request id
      // with an error frame, then close without buffering the payload.
      bad_frames_.fetch_add(1, std::memory_order_relaxed);
      NetMetrics::Get().bad_frames.Increment();
      QueueErrorFrame(conn, f.method, f.request_id,
                      "frame payload over " +
                          std::to_string(options_.max_payload_bytes) +
                          " bytes");
      conn->closing = true;
      conn->in.clear();
      break;
    }
    conn->in.erase(0, used);
    if (f.type != FrameType::kRequest) {
      bad_frames_.fetch_add(1, std::memory_order_relaxed);
      NetMetrics::Get().bad_frames.Increment();
      return false;
    }
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    requests_.fetch_add(1, std::memory_order_relaxed);
    NetMetrics::Get().requests.Increment();
    conn->inflight++;
    inflight_.fetch_add(1, std::memory_order_acq_rel);
    {
      obs::MutexLock lock(work_mu_);
      work_.push_back(Work{conn->id, std::move(f)});
    }
    work_cv_.NotifyOne();
  }
  return true;
}

void RpcServer::MergeCompletions() {
  std::vector<Completion> done;
  {
    obs::MutexLock lock(done_mu_);
    done.swap(done_);
  }
  for (Completion& c : done) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    Conn* conn = loop_.Find(c.conn_id);
    if (conn == nullptr) continue;  // connection died while the handler ran
    conn->inflight--;
    conn->out += c.bytes;
    conn->last_active_us = obs::NowMicros();
  }
}

bool RpcServer::OnAccept(Conn* /*conn*/, bool over_capacity) {
  if (over_capacity) {
    // Over capacity: refuse outright. A binary-protocol peer treats
    // the closed connection as a transport failure and backs off.
    conns_dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  conns_accepted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void RpcServer::BeginPass() {
  pass_draining_ = draining_.load(std::memory_order_acquire);
  // Drain step 1: close the listener so the router re-resolves the
  // shard; queued work keeps flowing until the backlog is dry.
  if (pass_draining_) loop_.CloseListener();
  MergeCompletions();
}

bool RpcServer::Expired(const Conn& conn, double now_us) {
  if (conn.inflight != 0) return false;
  // Drain step 2: a quiet, flushed connection gets a polite close.
  if (pass_draining_ && conn.flushed()) return true;
  return now_us - conn.last_active_us > options_.idle_timeout_s * 1e6;
}

bool RpcServer::EndPass(size_t open_conns) {
  // Drain step 3: every connection closed, every dispatched request
  // completed and flushed — the worker is quiet. Announce and exit.
  if (!pass_draining_ || open_conns != 0 ||
      inflight_.load(std::memory_order_acquire) != 0) {
    return true;
  }
  obs::Log(obs::LogLevel::kInfo, "[net] rpc server on port %d drained",
           port());
  {
    obs::MutexLock lock(drain_mu_);
    drained_ = true;
  }
  drain_cv_.NotifyAll();
  return false;
}

void RpcServer::DispatchLoop() {
  for (;;) {
    Work w;
    {
      obs::UniqueLock lock(work_mu_);
      work_cv_.Wait(lock, [this]() LCREC_REQUIRES(work_mu_) {
        return stopping_ || !work_.empty();
      });
      if (work_.empty()) return;  // stopping and no backlog left
      w = std::move(work_.front());
      work_.pop_front();
    }
    const double t0 = obs::NowMicros();
    RpcHandler handler;
    {
      obs::MutexLock lock(handlers_mu_);
      auto it = handlers_.find(w.frame.method);
      if (it != handlers_.end()) handler = it->second;
    }
    Frame out;
    out.method = w.frame.method;
    out.request_id = w.frame.request_id;
    std::string response;
    std::string err;
    if (handler == nullptr) {
      out.type = FrameType::kError;
      out.payload = "unknown method " + std::to_string(w.frame.method);
      errors_.fetch_add(1, std::memory_order_relaxed);
      NetMetrics::Get().errors.Increment();
    } else if (handler(w.frame.payload, &response, &err)) {
      out.type = FrameType::kResponse;
      out.payload = std::move(response);
    } else {
      out.type = FrameType::kError;
      out.payload = err.empty() ? "handler failed" : err;
      errors_.fetch_add(1, std::memory_order_relaxed);
      NetMetrics::Get().errors.Increment();
    }
    NetMetrics::Get().handle_us.Observe(obs::NowMicros() - t0);
    {
      obs::MutexLock lock(done_mu_);
      done_.push_back(Completion{w.conn_id, EncodeFrame(out)});
    }
    loop_.Wake();
  }
}

// ---------------------------------------------------------------------------
// RpcChannel

RpcChannel::RpcChannel(std::string host, int port,
                       const RpcClientOptions& options)
    : host_(std::move(host)), port_(port), options_(options) {}

RpcChannel::~RpcChannel() { Close(); }

void RpcChannel::Close() {
  obs::CloseSocket(fd_);
  fd_ = -1;
  in_.clear();
}

bool RpcChannel::Connect(std::string* error) {
  if (fd_ >= 0) return true;

  const serve::chaos::ConnChaos chaos = serve::chaos::OnNetConnect();
  if (chaos.delay_us > 0.0) SleepUs(chaos.delay_us);
  if (chaos.fail) {
    if (error != nullptr) *error = "chaos: injected connect failure";
    return false;
  }

  fd_ = obs::ConnectTcp(host_, port_, options_.connect_timeout_s, error);
  return fd_ >= 0;
}

bool RpcChannel::Call(uint32_t method, const std::string& request,
                      std::string* response, std::string* error) {
  auto fail = [this, error](const std::string& why) {
    Close();
    if (error != nullptr) *error = why;
    return false;
  };
  if (fd_ < 0 && !Connect(error)) return false;

  Frame req;
  req.type = FrameType::kRequest;
  req.method = method;
  req.request_id = next_request_id_++;
  req.payload = request;
  const std::string bytes = EncodeFrame(req);
  const double deadline_us =
      obs::NowMicros() + options_.call_timeout_s * 1e6;

  if (serve::chaos::OnNetFrameSend()) {
    // Torn write: ship a prefix of the frame and drop the connection.
    // The peer's length/CRC checks must reject it; this caller fails
    // over to the retry path.
    obs::SendAll(fd_, bytes.substr(0, bytes.size() / 2), deadline_us,
                 nullptr);
    return fail("chaos: torn frame");
  }
  if (!obs::SendAll(fd_, bytes, deadline_us, error)) {
    Close();
    return false;
  }

  for (;;) {
    Frame f;
    size_t used = 0;
    std::string err;
    FrameStatus st =
        DecodeFrame(in_, &f, &used, &err, options_.max_payload_bytes);
    if (st == FrameStatus::kOk) {
      in_.erase(0, used);
      // A response to an earlier call this channel abandoned (timeout)
      // can still be in the stream; skip until our id comes up.
      if (f.request_id != req.request_id) continue;
      if (f.type == FrameType::kResponse) {
        *response = std::move(f.payload);
        return true;
      }
      if (f.type == FrameType::kError) {
        // A definitive answer, not a transport failure: the channel
        // stays connected, and RpcClient will not retry.
        if (error != nullptr) {
          *error = f.payload.empty() ? "rpc error" : f.payload;
        }
        return false;
      }
      return fail("unexpected frame type");
    }
    if (st == FrameStatus::kBad || st == FrameStatus::kTooLarge) {
      return fail("bad response frame: " + err);
    }
    // kNeedMore: pull more bytes within the call budget.
    switch (obs::RecvSome(fd_, &in_, deadline_us)) {
      case obs::RecvStatus::kData: continue;
      case obs::RecvStatus::kClosed: return fail("connection closed by server");
      case obs::RecvStatus::kTimeout: return fail("call timeout");
      case obs::RecvStatus::kError: return fail("recv failed");
    }
  }
}

// ---------------------------------------------------------------------------
// RpcClient

RpcClient::RpcClient(RpcClientOptions options) : options_(std::move(options)) {
  LCREC_CHECK_GE(options_.max_retries, 0);
}

RpcClient::~RpcClient() = default;

RpcClient::Stats RpcClient::stats() const {
  Stats s;
  s.calls = calls_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.failures = failures_.load(std::memory_order_relaxed);
  return s;
}

bool RpcClient::Call(uint32_t method, const std::string& request,
                     std::string* response, std::string* error) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  NetMetrics::Get().client_calls.Increment();
  double backoff_ms = options_.backoff_ms;
  std::string last_error = "rpc call failed";
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      NetMetrics::Get().client_retries.Increment();
      SleepUs(backoff_ms * 1000.0);
      backoff_ms *= 2.0;
    }
    std::unique_ptr<RpcChannel> channel;
    {
      obs::MutexLock lock(pool_mu_);
      if (!pool_.empty()) {
        channel = std::move(pool_.back());
        pool_.pop_back();
      }
    }
    if (channel == nullptr) {
      channel =
          std::make_unique<RpcChannel>(options_.host, options_.port, options_);
    }
    std::string err;
    const bool ok = channel->Call(method, request, response, &err);
    if (ok || channel->connected()) {
      // Success, or a definitive server error frame: either way the
      // channel is healthy — return it to the pool and stop retrying.
      {
        obs::MutexLock lock(pool_mu_);
        pool_.push_back(std::move(channel));
      }
      if (!ok) {
        failures_.fetch_add(1, std::memory_order_relaxed);
        NetMetrics::Get().client_failures.Increment();
        if (error != nullptr) *error = err;
      }
      return ok;
    }
    last_error = err;  // transport failure: channel closed itself; retry
  }
  failures_.fetch_add(1, std::memory_order_relaxed);
  NetMetrics::Get().client_failures.Increment();
  if (error != nullptr) {
    *error = last_error + " (after " + std::to_string(options_.max_retries) +
             " retries)";
  }
  return false;
}

}  // namespace lcrec::net

#ifndef LCREC_OBS_HTTP_H_
#define LCREC_OBS_HTTP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/socket.h"
#include "obs/sync.h"

namespace lcrec::obs {

/// One parsed HTTP request. Only the subset the debugz surface needs:
/// method, path, and decoded query parameters. Bodies are ignored (the
/// server answers GET/HEAD only).
struct HttpRequest {
  std::string method;  // "GET", "HEAD", ...
  std::string target;  // raw request-target ("/profilez?seconds=2")
  std::string path;    // target up to '?' ("/profilez")
  std::map<std::string, std::string> params;  // decoded query key/values

  /// Query parameter by name, or `fallback` when absent.
  std::string Param(const std::string& name,
                    const std::string& fallback = "") const;
  /// Numeric query parameter, clamped to [lo, hi]; `fallback` when
  /// absent or unparseable.
  double NumParam(const std::string& name, double fallback, double lo,
                  double hi) const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Handlers run on the server's event-loop thread, so they must be
/// callable from a foreign thread and should normally return quickly; a
/// deliberately slow handler (/profilez) serializes the debug surface
/// for its duration, which is acceptable for an introspection port.
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

struct HttpServerOptions {
  /// Numeric address to bind. Loopback by default: the debug surface
  /// exposes internals and has no auth, so it must opt in explicitly
  /// (e.g. "0.0.0.0") to be reachable off-host.
  std::string bind_host = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral port (read it back
  /// from port() after Start).
  int port = 0;
  /// Concurrent connections served; later accepts are answered 503 and
  /// closed without reading, so a misbehaving scraper cannot pile up
  /// file descriptors.
  int max_connections = 16;
  /// Request header ceiling; longer requests are answered 431 and
  /// closed.
  size_t max_request_bytes = 8192;
  /// Connections idle longer than this (request never completed) are
  /// dropped.
  double idle_timeout_s = 10.0;
};

/// Minimal dependency-free HTTP/1.1 server: the HTTP protocol on top of
/// an obs::EventLoop (socket.h), which owns the listener, the poll()
/// thread and the connection buffers. Every lcrec binary embeds
/// one (via obs::DebugServer) for live introspection; net::RpcServer is
/// the other protocol built on EventLoop. Bounded everything: over
/// max_connections a connection is answered 503 without being read, a
/// head over max_request_bytes gets 431, and a connection still open
/// idle_timeout_s after accept is dropped.
///
/// Responses are built in memory and written with connection: close.
/// That is the right trade for an introspection port: no keep-alive
/// state machine, no chunked encoding, no content negotiation.
class HttpServer final : private ConnHandler {
 public:
  explicit HttpServer(HttpServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers `handler` for exact-match `path`. Safe before or after
  /// Start; re-registering a path replaces the handler.
  void Handle(const std::string& path, HttpHandler handler);

  /// Binds, listens, and launches the event-loop thread. Returns false
  /// (with the reason in *error when given) on bind/listen failure.
  /// No-op when already running.
  bool Start(std::string* error = nullptr);

  /// Start with fresh options (port/bind chosen at start time rather
  /// than construction). Registered handlers are kept. No-op (returns
  /// true, options untouched) when already running.
  bool StartOn(HttpServerOptions options, std::string* error = nullptr);

  /// Closes the listening socket, drains the event loop, and joins the
  /// thread. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Bound port (the kernel's pick when options.port was 0); -1 before
  /// Start.
  int port() const { return loop_.port(); }

  /// Paths with a registered handler, sorted (for index pages).
  std::vector<std::string> HandlerPaths() const;

 private:
  bool OnAccept(Conn* conn, bool over_capacity) override;
  /// On a complete request head, dispatches and queues the response.
  bool OnRead(Conn* conn, bool eof) override;
  bool Expired(const Conn& conn, double now_us) override;
  HttpResponse Dispatch(const HttpRequest& request);

  HttpServerOptions options_;
  std::atomic<bool> running_{false};

  mutable Mutex mu_{"obs.http.handlers", 95};
  std::map<std::string, HttpHandler> handlers_ LCREC_GUARDED_BY(mu_);

  EventLoop loop_{this};  // last: its thread uses the members above
};

/// Blocking HTTP GET against a local server — the repo's raw-socket test
/// client (tests, CI probes, and bench scrapers use this instead of
/// libcurl). Fills `response` with the parsed status line, Content-Type,
/// and body; returns false (reason in *error when given) on connect/
/// timeout/parse failure. `host` must be a numeric IPv4 address.
bool HttpGet(const std::string& host, int port, const std::string& target,
             HttpResponse* response, std::string* error = nullptr,
             double timeout_s = 30.0);

/// Sends `raw` verbatim and returns everything the server wrote until it
/// closed, unparsed. For protocol-edge tests (malformed request lines,
/// non-GET methods, oversized heads) that HttpGet cannot produce — kept
/// here so tests never need the socket API themselves.
bool HttpRawExchange(const std::string& host, int port, const std::string& raw,
                     std::string* response_text, std::string* error = nullptr,
                     double timeout_s = 30.0);

}  // namespace lcrec::obs

#endif  // LCREC_OBS_HTTP_H_

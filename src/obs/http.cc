#include "obs/http.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <utility>

#include "core/check.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace lcrec::obs {

namespace {

/// Cached metric handles for the debug HTTP layer (lcrec.debugz.*).
struct HttpMetrics {
  Counter& requests;
  Counter& bad_requests;  // 4xx/5xx responses
  Counter& dropped;       // over max_connections, answered 503 unread
  Histogram& handle_us;   // dispatch time (handler + render)

  static HttpMetrics& Get() {
    static HttpMetrics* m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new HttpMetrics{
          r.GetCounter("lcrec.debugz.http_requests"),
          r.GetCounter("lcrec.debugz.http_bad_requests"),
          r.GetCounter("lcrec.debugz.http_dropped"),
          r.GetHistogram("lcrec.debugz.handle_us",
                         Histogram::ExponentialBounds(10.0, 2.0, 24)),
      };
    }();
    return *m;
  }
};

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default:  return "Unknown";
  }
}

std::string RenderResponse(const HttpResponse& resp, bool head_only) {
  std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                    ReasonPhrase(resp.status) + "\r\n";
  out += "Content-Type: " + resp.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  if (!head_only) out += resp.body;
  return out;
}

/// Queues `resp` as the connection's only answer: stop reading, flush,
/// close.
void Respond(Conn* conn, const HttpResponse& resp, bool head_only) {
  conn->out = RenderResponse(resp, head_only);
  conn->reading = false;
  conn->closing = true;
}

std::string UrlDecode(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out += ' ';
    } else if (s[i] == '%' && i + 2 < s.size() &&
               std::isxdigit(static_cast<unsigned char>(s[i + 1])) &&
               std::isxdigit(static_cast<unsigned char>(s[i + 2]))) {
      char hex[3] = {s[i + 1], s[i + 2], '\0'};
      out += static_cast<char>(std::strtol(hex, nullptr, 16));
      i += 2;
    } else {
      out += s[i];
    }
  }
  return out;
}

/// Parses the request line out of a complete head. Returns false on a
/// malformed line (caller answers 400).
bool ParseRequestLine(const std::string& head, HttpRequest* req) {
  size_t eol = head.find("\r\n");
  if (eol == std::string::npos) return false;
  std::string line = head.substr(0, eol);
  size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) return false;
  size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return false;
  req->method = line.substr(0, sp1);
  req->target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (req->method.empty() || req->target.empty() || req->target[0] != '/') {
    return false;
  }
  size_t q = req->target.find('?');
  req->path = req->target.substr(0, q);
  if (q != std::string::npos) {
    std::string query = req->target.substr(q + 1);
    size_t pos = 0;
    while (pos <= query.size()) {
      size_t amp = query.find('&', pos);
      std::string pair = query.substr(
          pos, amp == std::string::npos ? std::string::npos : amp - pos);
      if (!pair.empty()) {
        size_t eq = pair.find('=');
        std::string key = UrlDecode(pair.substr(0, eq));
        std::string val =
            eq == std::string::npos ? "" : UrlDecode(pair.substr(eq + 1));
        if (!key.empty()) req->params[key] = val;
      }
      if (amp == std::string::npos) break;
      pos = amp + 1;
    }
  }
  return true;
}

}  // namespace

std::string HttpRequest::Param(const std::string& name,
                               const std::string& fallback) const {
  auto it = params.find(name);
  return it == params.end() ? fallback : it->second;
}

double HttpRequest::NumParam(const std::string& name, double fallback,
                             double lo, double hi) const {
  auto it = params.find(name);
  double v = fallback;
  if (it != params.end()) {
    char* end = nullptr;
    double parsed = std::strtod(it->second.c_str(), &end);
    if (end != nullptr && end != it->second.c_str()) v = parsed;
  }
  return std::min(std::max(v, lo), hi);
}

HttpServer::HttpServer(HttpServerOptions options)
    : options_(std::move(options)) {
  LCREC_CHECK_GT(options_.max_connections, 0);
  LCREC_CHECK_GT(options_.max_request_bytes, size_t{0});
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Handle(const std::string& path, HttpHandler handler) {
  MutexLock lock(mu_);
  handlers_[path] = std::move(handler);
}

std::vector<std::string> HttpServer::HandlerPaths() const {
  MutexLock lock(mu_);
  std::vector<std::string> paths;
  paths.reserve(handlers_.size());
  for (const auto& kv : handlers_) paths.push_back(kv.first);
  return paths;
}

bool HttpServer::StartOn(HttpServerOptions options, std::string* error) {
  if (running()) return true;
  LCREC_CHECK_GT(options.max_connections, 0);
  LCREC_CHECK_GT(options.max_request_bytes, size_t{0});
  options_ = std::move(options);
  return Start(error);
}

bool HttpServer::Start(std::string* error) {
  if (running()) return true;
  if (!loop_.Start({.bind_host = options_.bind_host,
                    .port = options_.port,
                    .max_connections = options_.max_connections,
                    .max_read_bytes = options_.max_request_bytes},
                   error)) {
    return false;
  }
  running_.store(true, std::memory_order_release);
  return true;
}

void HttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  loop_.Stop();
}

HttpResponse HttpServer::Dispatch(const HttpRequest& request) {
  HttpMetrics& hm = HttpMetrics::Get();
  hm.requests.Increment();
  double t0 = NowMicros();
  HttpResponse resp;
  if (request.method != "GET" && request.method != "HEAD") {
    resp.status = 405;
    resp.body = "only GET is served here\n";
  } else {
    HttpHandler handler;
    {
      MutexLock lock(mu_);
      auto it = handlers_.find(request.path);
      if (it != handlers_.end()) handler = it->second;
    }
    if (handler == nullptr) {
      resp.status = 404;
      resp.body = "no handler for " + request.path + "\n";
    } else {
      resp = handler(request);
    }
  }
  if (resp.status != 200) hm.bad_requests.Increment();
  hm.handle_us.Observe(NowMicros() - t0);
  return resp;
}

bool HttpServer::OnRead(Conn* conn, bool eof) {
  if (conn->in.size() > options_.max_request_bytes) {
    HttpMetrics::Get().bad_requests.Increment();
    Respond(conn,
            {.status = 431,
             .body = "request head over " +
                     std::to_string(options_.max_request_bytes) + " bytes\n"},
            /*head_only=*/false);
    return true;
  }
  if (conn->in.find("\r\n\r\n") == std::string::npos) {
    return !eof;  // peer closed before a full request
  }
  HttpRequest req;
  HttpResponse resp;
  if (!ParseRequestLine(conn->in, &req)) {
    resp.status = 400;
    resp.body = "malformed request line\n";
    HttpMetrics::Get().bad_requests.Increment();
  } else {
    resp = Dispatch(req);
  }
  Respond(conn, resp, req.method == "HEAD");
  return true;
}

bool HttpServer::OnAccept(Conn* conn, bool over_capacity) {
  if (over_capacity) {
    // Over capacity: answer 503 without reading the request, so a
    // scraper stampede degrades politely instead of exhausting fds.
    HttpMetrics::Get().dropped.Increment();
    Respond(conn, {.status = 503, .body = "debugz connection limit reached\n"},
            /*head_only=*/false);
  }
  return true;
}

bool HttpServer::Expired(const Conn& conn, double now_us) {
  // Timed from accept, not from the last byte: a request that trickles
  // in cannot hold a slot past the timeout.
  return now_us - conn.open_us > options_.idle_timeout_s * 1e6;
}

bool HttpRawExchange(const std::string& host, int port, const std::string& raw,
                     std::string* response_text, std::string* error,
                     double timeout_s) {
  const double deadline = NowMicros() + timeout_s * 1e6;
  int fd = ConnectTcp(host, port, timeout_s, error);
  if (fd < 0) return false;
  bool ok = SendAll(fd, raw, deadline, error);  // bytes sent verbatim
  std::string received;
  while (ok) {
    RecvStatus st = RecvSome(fd, &received, deadline);
    if (st == RecvStatus::kClosed) break;  // server closed: response complete
    if (st == RecvStatus::kData) continue;
    if (error != nullptr) {
      *error = st == RecvStatus::kTimeout ? "recv timeout" : "recv failed";
    }
    ok = false;
  }
  CloseSocket(fd);
  if (ok) *response_text = std::move(received);
  return ok;
}

bool HttpGet(const std::string& host, int port, const std::string& target,
             HttpResponse* response, std::string* error, double timeout_s) {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  std::string request = "GET " + target + " HTTP/1.1\r\nHost: " + host +
                        "\r\nConnection: close\r\n\r\n";
  std::string raw;
  if (!HttpRawExchange(host, port, request, &raw, error, timeout_s)) {
    return false;
  }

  size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return fail("truncated response");
  size_t line_end = raw.find("\r\n");
  std::string status_line = raw.substr(0, line_end);
  if (status_line.rfind("HTTP/1.", 0) != 0) {
    return fail("bad status line '" + status_line + "'");
  }
  size_t sp = status_line.find(' ');
  if (sp == std::string::npos) return fail("bad status line");
  response->status = std::atoi(status_line.c_str() + sp + 1);
  response->content_type.clear();
  // Scan headers for Content-Type (case-insensitive name match).
  size_t pos = line_end + 2;
  while (pos < head_end) {
    size_t eol = raw.find("\r\n", pos);
    std::string header = raw.substr(pos, eol - pos);
    size_t colon = header.find(':');
    if (colon != std::string::npos) {
      std::string name = header.substr(0, colon);
      std::transform(name.begin(), name.end(), name.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (name == "content-type") {
        size_t v = colon + 1;
        while (v < header.size() && header[v] == ' ') ++v;
        response->content_type = header.substr(v);
      }
    }
    pos = eol + 2;
  }
  response->body = raw.substr(head_end + 4);
  return true;
}

}  // namespace lcrec::obs

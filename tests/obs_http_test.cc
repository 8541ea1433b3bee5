// Tests for the live-introspection layer: the embedded HTTP server
// (obs/http.h), the debugz endpoint surface and registration API
// (obs/debugz.h), the recent-timeline ring (obs/timeline.h), and the
// ckpt::HealthGuard /healthz wiring — including the live-path
// Prometheus exposition conformance scrape under concurrent load.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/health.h"
#include "obs/debugz.h"
#include "obs/flightrec.h"
#include "obs/http.h"
#include "obs/promcheck.h"
#include "obs/registry.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace {

using namespace lcrec;

constexpr const char* kLoopback = "127.0.0.1";

/// A server on an ephemeral port with one /echo handler that reflects
/// its query parameters.
class ScopedEchoServer {
 public:
  explicit ScopedEchoServer(obs::HttpServerOptions options = {}) {
    server_ = std::make_unique<obs::HttpServer>(options);
    server_->Handle("/echo", [](const obs::HttpRequest& req) {
      obs::HttpResponse resp;
      resp.body = "a=" + req.Param("a") + ";b=" + req.Param("b", "none") +
                  ";n=" + std::to_string(req.NumParam("n", 5.0, 0.0, 10.0));
      return resp;
    });
    std::string error;
    started_ = server_->Start(&error);
    EXPECT_TRUE(started_) << error;
  }

  obs::HttpServer& get() { return *server_; }
  int port() const { return server_->port(); }

 private:
  std::unique_ptr<obs::HttpServer> server_;
  bool started_ = false;
};

TEST(HttpServerTest, StartStopAndEphemeralPort) {
  obs::HttpServer server;
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), -1);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  EXPECT_TRUE(server.Start());  // idempotent
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
  ASSERT_TRUE(server.Start(&error)) << error;  // restartable
  EXPECT_TRUE(server.running());
  server.Stop();
}

TEST(HttpServerTest, HandlerDispatchAndQueryParams) {
  ScopedEchoServer server;
  obs::HttpResponse resp;
  std::string error;
  ASSERT_TRUE(obs::HttpGet(kLoopback, server.port(),
                           "/echo?a=hello%20world&n=3.5", &resp, &error))
      << error;
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("a=hello world"), std::string::npos) << resp.body;
  EXPECT_NE(resp.body.find("b=none"), std::string::npos) << resp.body;
  EXPECT_NE(resp.body.find("n=3.5"), std::string::npos) << resp.body;
  // NumParam clamps to [lo, hi].
  ASSERT_TRUE(
      obs::HttpGet(kLoopback, server.port(), "/echo?n=99", &resp, &error))
      << error;
  EXPECT_NE(resp.body.find("n=10"), std::string::npos) << resp.body;
}

TEST(HttpServerTest, UnknownPathIs404) {
  ScopedEchoServer server;
  obs::HttpResponse resp;
  std::string error;
  ASSERT_TRUE(obs::HttpGet(kLoopback, server.port(), "/nope", &resp, &error))
      << error;
  EXPECT_EQ(resp.status, 404);
}

TEST(HttpServerTest, NonGetIs405) {
  ScopedEchoServer server;
  std::string raw, error;
  ASSERT_TRUE(obs::HttpRawExchange(
      kLoopback, server.port(),
      "POST /echo HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n", &raw,
      &error))
      << error;
  EXPECT_NE(raw.find("HTTP/1.1 405"), std::string::npos) << raw;
}

TEST(HttpServerTest, MalformedRequestIs400) {
  ScopedEchoServer server;
  std::string raw, error;
  ASSERT_TRUE(obs::HttpRawExchange(kLoopback, server.port(),
                                   "not-a-request\r\n\r\n", &raw, &error))
      << error;
  EXPECT_NE(raw.find("HTTP/1.1 400"), std::string::npos) << raw;
}

TEST(HttpServerTest, OversizedHeadIs431) {
  obs::HttpServerOptions options;
  options.max_request_bytes = 128;
  ScopedEchoServer server(options);
  std::string huge = "GET /echo?pad=" + std::string(512, 'x') +
                     " HTTP/1.1\r\nHost: x\r\n\r\n";
  std::string raw, error;
  ASSERT_TRUE(
      obs::HttpRawExchange(kLoopback, server.port(), huge, &raw, &error))
      << error;
  EXPECT_NE(raw.find("HTTP/1.1 431"), std::string::npos) << raw;
}

TEST(HttpServerTest, HeadRequestOmitsBody) {
  ScopedEchoServer server;
  std::string raw, error;
  ASSERT_TRUE(obs::HttpRawExchange(
      kLoopback, server.port(),
      "HEAD /echo?a=z HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
      &raw, &error))
      << error;
  EXPECT_NE(raw.find("HTTP/1.1 200"), std::string::npos) << raw;
  size_t head_end = raw.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos);
  EXPECT_EQ(raw.substr(head_end + 4), "");  // headers only
  EXPECT_NE(raw.find("Content-Length:"), std::string::npos) << raw;
}

TEST(HttpServerTest, OverCapacityAnswers503) {
  obs::HttpServerOptions options;
  options.max_connections = 1;
  options.idle_timeout_s = 30.0;
  ScopedEchoServer server(options);
  const int port = server.port();
  obs::Counter& dropped =
      obs::MetricsRegistry::Global().GetCounter("lcrec.debugz.http_dropped");
  const int64_t dropped_before = dropped.value();

  // The holder sends half a request head and waits, which keeps the one
  // slot taken until the server stops. If a probe won the slot first the
  // holder is the one answered 503, so it reconnects until it holds.
  std::atomic<bool> done{false};
  std::thread holder([port, &done] {
    while (!done.load()) {
      std::string raw, err;
      obs::HttpRawExchange(kLoopback, port, "GET /echo HTTP/1.1\r\n", &raw,
                           &err, 30.0);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // The probe sends nothing: an over-capacity connection is answered
  // without the server reading a request. A probe that took the slot
  // instead gets no answer and gives up after its short timeout.
  std::string raw;
  for (int attempt = 0; attempt < 50; ++attempt) {
    std::string err;
    if (obs::HttpRawExchange(kLoopback, port, "", &raw, &err, 0.3) &&
        raw.find("HTTP/1.1 503") != std::string::npos) {
      break;
    }
    raw.clear();
  }
  done.store(true);
  server.get().Stop();
  holder.join();
  EXPECT_NE(raw.find("HTTP/1.1 503"), std::string::npos) << raw;
  EXPECT_NE(raw.find("connection limit"), std::string::npos) << raw;
  EXPECT_GT(dropped.value(), dropped_before);
}

TEST(HttpServerTest, IdleConnectionIsClosed) {
  obs::HttpServerOptions options;
  options.idle_timeout_s = 0.3;
  ScopedEchoServer server(options);
  // A connection that never sends is closed by the server after the idle
  // timeout, well before this client's own 10 s deadline, and nothing is
  // written to it.
  const auto t0 = std::chrono::steady_clock::now();
  std::string raw, error;
  ASSERT_TRUE(obs::HttpRawExchange(kLoopback, server.port(), "", &raw, &error,
                                   10.0))
      << error;
  const double waited_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  EXPECT_TRUE(raw.empty()) << raw;
  EXPECT_GE(waited_s, 0.25);
  EXPECT_LT(waited_s, 5.0);
}

TEST(RecentTimelinesTest, RingKeepsNewestOldestFirst) {
  obs::RecentTimelines& ring = obs::RecentTimelines::Global();
  ring.Clear();
  const size_t total = obs::RecentTimelines::kCapacity + 6;
  for (size_t i = 0; i < total; ++i) {
    obs::RequestTimeline t;
    t.Begin(/*request_id=*/i + 1, /*sampled=*/true, "stage",
            obs::NowMicros());
    t.Finish();
    ring.Record(t);
  }
  std::vector<obs::RequestTimeline> snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), obs::RecentTimelines::kCapacity);
  // The oldest retained id is total - capacity + 1; order is oldest-first.
  EXPECT_EQ(snap.front().request_id(),
            total - obs::RecentTimelines::kCapacity + 1);
  EXPECT_EQ(snap.back().request_id(), total);
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].request_id(), snap[i].request_id());
  }
  // Unfinished timelines are ignored.
  ring.Clear();
  obs::RequestTimeline open;
  open.Begin(999, true, "stage", obs::NowMicros());
  ring.Record(open);
  EXPECT_TRUE(ring.Snapshot().empty());
  ring.Clear();
}

TEST(DebugzTest, StatuszSectionsRegisterAndUnregister) {
  int id = obs::RegisterStatuszSection("test.section",
                                       [] { return "alpha beta\n"; });
  std::string statusz = obs::ReadStatusz();
  EXPECT_NE(statusz.find("--- test.section ---"), std::string::npos);
  EXPECT_NE(statusz.find("alpha beta"), std::string::npos);
  EXPECT_NE(statusz.find("manifest: {"), std::string::npos);
  obs::UnregisterStatuszSection(id);
  statusz = obs::ReadStatusz();
  EXPECT_EQ(statusz.find("test.section"), std::string::npos);
}

TEST(DebugzTest, HealthChecksFlipReading) {
  ckpt::ResetCkptHealthzForTest();
  obs::HealthzReading reading = obs::ReadHealthz();
  EXPECT_TRUE(reading.ok) << reading.json;
  int id = obs::RegisterHealthCheck("test.failing", [](std::string* reason) {
    *reason = "deliberately broken";
    return false;
  });
  reading = obs::ReadHealthz();
  EXPECT_FALSE(reading.ok);
  EXPECT_NE(reading.json.find("\"status\":\"unhealthy\""), std::string::npos)
      << reading.json;
  EXPECT_NE(reading.json.find("test.failing"), std::string::npos);
  EXPECT_NE(reading.json.find("deliberately broken"), std::string::npos);
  obs::UnregisterHealthCheck(id);
  EXPECT_TRUE(obs::ReadHealthz().ok);
}

/// Satellite: a tripped ckpt::HealthGuard flips /healthz to 503 with a
/// JSON reason naming the subsystem and the step the guard was last told.
TEST(DebugzTest, HealthGuardTripFlipsHealthzTo503) {
  ckpt::ResetCkptHealthzForTest();
  obs::DebugServer& debugz = obs::DebugServer::Global();
  std::string error;
  ASSERT_TRUE(debugz.Start(0, &error)) << error;

  obs::HttpResponse resp;
  ASSERT_TRUE(
      obs::HttpGet(kLoopback, debugz.port(), "/healthz", &resp, &error))
      << error;
  EXPECT_EQ(resp.status, 200) << resp.body;
  EXPECT_NE(resp.body.find("\"status\":\"ok\""), std::string::npos)
      << resp.body;

  ckpt::HealthGuard guard({/*grad_limit=*/0.0f, /*max_retries=*/3,
                           /*lr_backoff=*/0.5f},
                          "healthz_test");
  guard.NoteStep(42);
  // Recoverable trip (rollback target exists, retries remain): the guard
  // returns instead of aborting, and the process is now marked unhealthy.
  EXPECT_TRUE(guard.OnUnhealthy(std::numeric_limits<double>::quiet_NaN(),
                                1.0, /*can_rollback=*/true));

  ASSERT_TRUE(
      obs::HttpGet(kLoopback, debugz.port(), "/healthz", &resp, &error))
      << error;
  EXPECT_EQ(resp.status, 503) << resp.body;
  EXPECT_NE(resp.body.find("\"status\":\"unhealthy\""), std::string::npos)
      << resp.body;
  EXPECT_NE(resp.body.find("ckpt.health"), std::string::npos) << resp.body;
  EXPECT_NE(resp.body.find("healthz_test"), std::string::npos) << resp.body;
  EXPECT_NE(resp.body.find("step 42"), std::string::npos) << resp.body;

  ckpt::ResetCkptHealthzForTest();
  ASSERT_TRUE(
      obs::HttpGet(kLoopback, debugz.port(), "/healthz", &resp, &error))
      << error;
  EXPECT_EQ(resp.status, 200) << resp.body;
}

TEST(DebugzTest, BuiltinEndpointsServeValidPayloads) {
  ckpt::ResetCkptHealthzForTest();
  obs::DebugServer& debugz = obs::DebugServer::Global();
  std::string error;
  ASSERT_TRUE(debugz.Start(0, &error)) << error;
  int port = debugz.port();
  ASSERT_GT(port, 0);

  // Put something in every surface being scraped.
  obs::MetricsRegistry::Global()
      .GetCounter("lcrec.debugz.test_counter")
      .Add(3);
  obs::RecentTimelines::Global().Clear();
  obs::RequestTimeline t;
  t.Begin(obs::NextRequestId(), true, "build", obs::NowMicros());
  t.Mark("decode");
  t.Finish();
  obs::RecentTimelines::Global().Record(t);

  obs::HttpResponse resp;
  // Index lists the endpoints.
  ASSERT_TRUE(obs::HttpGet(kLoopback, port, "/", &resp, &error)) << error;
  EXPECT_EQ(resp.status, 200);
  for (const char* endpoint :
       {"/healthz", "/metricsz", "/varz", "/statusz", "/tracez",
        "/flightrecz", "/timelinez", "/profilez"}) {
    EXPECT_NE(resp.body.find(endpoint), std::string::npos) << endpoint;
  }

  // /metricsz parses in the shared exposition checker.
  ASSERT_TRUE(obs::HttpGet(kLoopback, port, "/metricsz", &resp, &error))
      << error;
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.content_type.find("version=0.0.4"), std::string::npos)
      << resp.content_type;
  obs::PromCheckResult check = obs::CheckPrometheusExposition(resp.body);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_NE(resp.body.find("lcrec_debugz_test_counter"), std::string::npos);

  // /varz is one JSON document over the same registry.
  ASSERT_TRUE(obs::HttpGet(kLoopback, port, "/varz", &resp, &error)) << error;
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.content_type, "application/json");
  EXPECT_EQ(resp.body.rfind("{\"manifest\":{", 0), 0u) << resp.body;
  EXPECT_NE(resp.body.find("\"metrics\":["), std::string::npos);
  EXPECT_NE(resp.body.find("\"name\":\"lcrec.debugz.test_counter\""),
            std::string::npos);

  // /statusz carries the manifest and health lines.
  ASSERT_TRUE(obs::HttpGet(kLoopback, port, "/statusz", &resp, &error))
      << error;
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("manifest: {"), std::string::npos);
  EXPECT_NE(resp.body.find("uptime_s:"), std::string::npos);
  EXPECT_NE(resp.body.find("health:"), std::string::npos);

  // /tracez reports recorder state.
  ASSERT_TRUE(obs::HttpGet(kLoopback, port, "/tracez", &resp, &error))
      << error;
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("tracing:"), std::string::npos);
  EXPECT_NE(resp.body.find("events:"), std::string::npos);

  // /flightrecz is JSONL with the flight-recorder schema.
  obs::FlightRecorder::Global().Record(obs::FrKind::kMark, "debugz_test", 7,
                                       8);
  ASSERT_TRUE(obs::HttpGet(kLoopback, port, "/flightrecz", &resp, &error))
      << error;
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.content_type, "application/x-ndjson");
  EXPECT_NE(resp.body.find("\"kind\":\"mark\""), std::string::npos)
      << resp.body;
  EXPECT_NE(resp.body.find("\"detail\":\"debugz_test\""), std::string::npos);

  // /timelinez is JSONL with the stage breakdown recorded above.
  ASSERT_TRUE(obs::HttpGet(kLoopback, port, "/timelinez", &resp, &error))
      << error;
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"request_id\":"), std::string::npos)
      << resp.body;
  EXPECT_NE(resp.body.find("\"stage\":\"decode\""), std::string::npos);
}

/// /profilez runs a bounded on-demand capture and returns collapsed
/// stacks for the spans live during the window.
TEST(DebugzTest, ProfilezCapturesLiveSpans) {
  obs::DebugServer& debugz = obs::DebugServer::Global();
  std::string error;
  ASSERT_TRUE(debugz.Start(0, &error)) << error;

  std::atomic<bool> stop{false};
  std::thread busy([&stop] {
    while (!stop.load()) {
      obs::ScopedSpan span("profilez_target");
      volatile double sink = 0.0;
      for (int i = 0; i < 50000; ++i) sink = sink + i;
    }
  });
  obs::HttpResponse resp;
  bool ok = obs::HttpGet(kLoopback, debugz.port(),
                         "/profilez?seconds=0.3&hz=400", &resp, &error);
  stop.store(true);
  busy.join();
  ASSERT_TRUE(ok) << error;
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("profilez_target"), std::string::npos)
      << resp.body;
}

/// Satellite: Prometheus exposition conformance on the live path — many
/// clients scrape /metricsz while other threads churn the registry;
/// every scrape must parse in the shared checker.
TEST(DebugzTest, ConcurrentScrapesStayConformant) {
  obs::DebugServer& debugz = obs::DebugServer::Global();
  std::string error;
  ASSERT_TRUE(debugz.Start(0, &error)) << error;
  int port = debugz.port();

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& churn_counter = reg.GetCounter("lcrec.debugz.churn");
  obs::Histogram& churn_hist = reg.GetHistogram(
      "lcrec.debugz.churn_us", obs::Histogram::ExponentialBounds(1.0, 2.0, 8));

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&stop, &churn_counter, &churn_hist] {
      double v = 0.5;
      while (!stop.load(std::memory_order_relaxed)) {
        churn_counter.Increment();
        churn_hist.Observe(v);
        v = v < 200.0 ? v * 1.1 : 0.5;
      }
    });
  }

  constexpr int kScrapers = 4;
  constexpr int kScrapesEach = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> scrapers;
  for (int s = 0; s < kScrapers; ++s) {
    scrapers.emplace_back([port, &failures] {
      for (int i = 0; i < kScrapesEach; ++i) {
        obs::HttpResponse resp;
        std::string err;
        if (!obs::HttpGet(kLoopback, port, "/metricsz", &resp, &err) ||
            resp.status != 200) {
          failures.fetch_add(1);
          continue;
        }
        obs::PromCheckResult check =
            obs::CheckPrometheusExposition(resp.body);
        if (!check.ok || check.lines == 0) {
          ADD_FAILURE() << check.error;
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : scrapers) t.join();
  stop.store(true);
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace

// Protocol-edge and lifecycle tests for net::RpcServer / RpcClient:
// round-trips, unknown methods, oversized frames (bounded reject),
// garbage byte streams, concurrent clients driving one server, the
// graceful-drain contract, and the serve::chaos conn/frame sites that
// put the wire under LCREC_CHAOS control.

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/frame.h"
#include "net/rpc.h"
#include "net/service.h"
#include "obs/http.h"
#include "serve/chaos.h"

namespace lcrec::net {
namespace {

constexpr char kLoopback[] = "127.0.0.1";
constexpr uint32_t kEchoMethod = 42;

void RegisterEcho(RpcServer* server) {
  server->Handle(kEchoMethod,
                 [](const std::string& request, std::string* response,
                    std::string* /*error*/) {
                   *response = request;
                   return true;
                 });
  server->Handle(kMethodPing,
                 [](const std::string& request, std::string* response,
                    std::string* /*error*/) {
                   *response = request;
                   return true;
                 });
}

RpcClientOptions ClientTo(const RpcServer& server) {
  RpcClientOptions opts;
  opts.host = kLoopback;
  opts.port = server.port();
  opts.call_timeout_s = 10.0;
  return opts;
}

TEST(RpcTest, EchoRoundTrip) {
  RpcServer server;
  RegisterEcho(&server);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_GT(server.port(), 0);

  RpcClient client(ClientTo(server));
  std::string payload = "payload bytes ";
  payload.push_back('\0');  // binary-safe: embedded NUL and high bytes
  payload.push_back('\x01');
  payload.push_back('\xFF');
  std::string response;
  ASSERT_TRUE(client.Call(kEchoMethod, payload, &response, &error)) << error;
  EXPECT_EQ(response, payload);
  EXPECT_TRUE(CallPing(&client, &error)) << error;
  EXPECT_GE(server.stats().requests, 2);
  EXPECT_EQ(server.stats().bad_frames, 0);
}

TEST(RpcTest, UnknownMethodIsDefinitiveNotRetried) {
  RpcServer server;
  RegisterEcho(&server);
  ASSERT_TRUE(server.Start());

  RpcClient client(ClientTo(server));
  std::string response;
  std::string error;
  EXPECT_FALSE(client.Call(999, "x", &response, &error));
  EXPECT_NE(error.find("unknown method"), std::string::npos) << error;
  // A server error frame is an answer, not a transport failure: no
  // retries burned, and the channel is still usable.
  EXPECT_EQ(client.stats().retries, 0);
  EXPECT_EQ(client.stats().failures, 1);
  EXPECT_TRUE(client.Call(kEchoMethod, "still alive", &response, &error))
      << error;
  EXPECT_EQ(response, "still alive");
  EXPECT_EQ(server.stats().errors, 1);
}

TEST(RpcTest, OversizedFrameIsBoundedReject) {
  RpcServerOptions sopts;
  sopts.max_payload_bytes = 64;
  RpcServer server(sopts);
  RegisterEcho(&server);
  ASSERT_TRUE(server.Start());

  RpcClient client(ClientTo(server));
  std::string response;
  std::string error;
  // The server answers the offending request id with a bounded error
  // frame (it never buffers the payload), then closes the stream.
  EXPECT_FALSE(
      client.Call(kEchoMethod, std::string(4096, 'x'), &response, &error));
  EXPECT_NE(error.find("over"), std::string::npos) << error;
  EXPECT_GE(server.stats().bad_frames, 1);
  // A fresh call (new channel after the server's close) still works.
  ASSERT_TRUE(client.Call(kEchoMethod, "small", &response, &error)) << error;
  EXPECT_EQ(response, "small");
}

TEST(RpcTest, GarbageBytesCloseTheConnection) {
  RpcServer server;
  RegisterEcho(&server);
  ASSERT_TRUE(server.Start());

  // An HTTP request is garbage to the frame decoder: bad magic. The
  // server must close without writing anything (nothing sensible can be
  // answered on an untrusted stream). HttpRawExchange is the repo's
  // raw-bytes test client, so this test needs no socket calls itself.
  std::string raw_response;
  std::string error;
  ASSERT_TRUE(obs::HttpRawExchange(kLoopback, server.port(),
                                   "GET /statusz HTTP/1.1\r\n\r\n",
                                   &raw_response, &error, 10.0))
      << error;
  EXPECT_TRUE(raw_response.empty());
  EXPECT_GE(server.stats().bad_frames, 1);
  EXPECT_EQ(server.stats().requests, 0);

  // The server survives; a well-formed client is unaffected.
  RpcClient client(ClientTo(server));
  std::string response;
  ASSERT_TRUE(client.Call(kEchoMethod, "ok", &response, &error)) << error;
}

TEST(RpcTest, ConcurrentClientsAllSucceed) {
  RpcServer server;
  RegisterEcho(&server);
  ASSERT_TRUE(server.Start());

  RpcClient client(ClientTo(server));
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 16;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&client, &ok, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        const std::string payload =
            "t" + std::to_string(t) + ":" + std::to_string(i);
        std::string response;
        std::string error;
        if (client.Call(kEchoMethod, payload, &response, &error) &&
            response == payload) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok.load(), kThreads * kCallsPerThread);
  EXPECT_EQ(server.stats().requests, kThreads * kCallsPerThread);
  EXPECT_EQ(server.stats().errors, 0);
}

TEST(RpcTest, DrainFinishesInflightWorkThenRefusesNew) {
  RpcServerOptions sopts;
  sopts.dispatch_threads = 2;
  RpcServer server(sopts);
  server.Handle(kEchoMethod,
                [](const std::string& request, std::string* response,
                   std::string* /*error*/) {
                  std::this_thread::sleep_for(
                      std::chrono::milliseconds(150));
                  *response = request;
                  return true;
                });
  ASSERT_TRUE(server.Start());
  const int port = server.port();

  // Launch a slow call, then drain while it is in flight: the drain
  // contract says it completes and its response is flushed.
  std::atomic<bool> call_ok{false};
  RpcClient client(ClientTo(server));
  std::thread caller([&client, &call_ok] {
    std::string response;
    std::string error;
    call_ok.store(client.Call(kEchoMethod, "inflight", &response, &error) &&
                  response == "inflight");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  server.BeginDrain();
  EXPECT_TRUE(server.WaitDrained(/*timeout_s=*/10.0));
  caller.join();
  EXPECT_TRUE(call_ok.load());

  // The listener is gone: a new client cannot connect.
  RpcClientOptions fresh;
  fresh.host = kLoopback;
  fresh.port = port;
  fresh.connect_timeout_s = 2.0;
  fresh.max_retries = 0;
  RpcClient late(fresh);
  std::string response;
  std::string error;
  EXPECT_FALSE(late.Call(kEchoMethod, "too late", &response, &error));
  server.Stop();
}

TEST(RpcTest, DrainWithNoWorkCompletesImmediately) {
  RpcServer server;
  RegisterEcho(&server);
  ASSERT_TRUE(server.Start());
  server.BeginDrain();
  EXPECT_TRUE(server.WaitDrained(/*timeout_s=*/5.0));
  server.Stop();
}

TEST(RpcTest, ChaosConnFailIsRetriedAway) {
  RpcServer server;
  RegisterEcho(&server);
  ASSERT_TRUE(server.Start());

  // Exactly one injected connect failure: the client's first attempt
  // dies before the socket opens, the retry succeeds.
  serve::chaos::ChaosSpec spec;
  spec.site = serve::chaos::ChaosSpec::Site::kConn;
  spec.mode = serve::chaos::ChaosSpec::Mode::kFail;
  spec.rate = 1.0;
  spec.max_fires = 1;
  serve::chaos::ArmChaos({spec});

  RpcClientOptions copts = ClientTo(server);
  copts.max_retries = 3;
  copts.backoff_ms = 1.0;
  RpcClient client(copts);
  std::string response;
  std::string error;
  EXPECT_TRUE(client.Call(kEchoMethod, "through chaos", &response, &error))
      << error;
  EXPECT_EQ(response, "through chaos");
  EXPECT_GE(client.stats().retries, 1);
  EXPECT_EQ(serve::chaos::ChaosFires(), 1);
  serve::chaos::DisarmChaos();
}

TEST(RpcTest, ChaosTornFrameIsRejectedByPeerAndRetried) {
  RpcServer server;
  RegisterEcho(&server);
  ASSERT_TRUE(server.Start());

  // One torn write: half a frame ships, the connection drops. The
  // server's length/CRC checks must treat the remnant as incomplete or
  // bad — never dispatch it — and the client's retry completes the call.
  serve::chaos::ChaosSpec spec;
  spec.site = serve::chaos::ChaosSpec::Site::kFrame;
  spec.mode = serve::chaos::ChaosSpec::Mode::kTruncate;
  spec.rate = 1.0;
  spec.max_fires = 1;
  serve::chaos::ArmChaos({spec});

  RpcClientOptions copts = ClientTo(server);
  copts.max_retries = 3;
  copts.backoff_ms = 1.0;
  RpcClient client(copts);
  std::string response;
  std::string error;
  EXPECT_TRUE(client.Call(kEchoMethod, "torn once", &response, &error))
      << error;
  EXPECT_EQ(response, "torn once");
  EXPECT_GE(client.stats().retries, 1);
  EXPECT_EQ(server.stats().requests, 1);  // the remnant never dispatched
  serve::chaos::DisarmChaos();
}

TEST(RpcTest, OverCapacityConnectionIsRefused) {
  RpcServerOptions sopts;
  sopts.max_connections = 1;
  RpcServer server(sopts);
  RegisterEcho(&server);
  ASSERT_TRUE(server.Start());

  // The first channel answers a call, so the server has accepted it and
  // it holds the one slot while it stays open.
  RpcClientOptions copts = ClientTo(server);
  copts.max_retries = 0;
  RpcChannel holder(kLoopback, server.port(), copts);
  std::string response;
  std::string error;
  ASSERT_TRUE(holder.Call(kEchoMethod, "held", &response, &error)) << error;

  // A second connection is closed without an answer and counted.
  RpcChannel refused(kLoopback, server.port(), copts);
  EXPECT_FALSE(refused.Call(kEchoMethod, "refused", &response, &error));
  EXPECT_FALSE(refused.connected());
  EXPECT_EQ(server.stats().conns_dropped, 1);
  EXPECT_EQ(server.stats().conns_accepted, 1);
  EXPECT_EQ(server.stats().requests, 1);

  // The held connection is unaffected.
  ASSERT_TRUE(holder.Call(kEchoMethod, "still held", &response, &error))
      << error;
  EXPECT_EQ(response, "still held");
}

TEST(RpcTest, IdleConnectionIsClosed) {
  RpcServerOptions sopts;
  sopts.idle_timeout_s = 0.3;
  RpcServer server(sopts);
  RegisterEcho(&server);
  ASSERT_TRUE(server.Start());

  // A connection that never sends is closed by the server after the idle
  // timeout, well before this client's own 10 s deadline. HttpRawExchange
  // returns once the server closes, with whatever it wrote: nothing.
  const auto t0 = std::chrono::steady_clock::now();
  std::string raw;
  std::string error;
  ASSERT_TRUE(
      obs::HttpRawExchange(kLoopback, server.port(), "", &raw, &error, 10.0))
      << error;
  const double waited_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  EXPECT_TRUE(raw.empty());
  EXPECT_GE(waited_s, 0.25);
  EXPECT_LT(waited_s, 5.0);
  EXPECT_EQ(server.stats().conns_accepted, 1);
}

TEST(RpcTest, PipelinedFramesInOneWriteAreAllAnswered) {
  RpcServerOptions sopts;
  sopts.idle_timeout_s = 0.5;
  RpcServer server(sopts);
  RegisterEcho(&server);
  ASSERT_TRUE(server.Start());

  // Two request frames leave in a single send on one socket. Both are
  // answered on that socket, matched by request id; the server closes the
  // connection once it has been idle, which ends the exchange.
  Frame first;
  first.method = kEchoMethod;
  first.request_id = 7;
  first.payload = "first";
  Frame second;
  second.method = kEchoMethod;
  second.request_id = 8;
  second.payload = "second";
  std::string raw;
  std::string error;
  ASSERT_TRUE(obs::HttpRawExchange(kLoopback, server.port(),
                                   EncodeFrame(first) + EncodeFrame(second),
                                   &raw, &error, 10.0))
      << error;

  std::map<uint64_t, std::string> answers;
  while (!raw.empty()) {
    Frame f;
    size_t used = 0;
    std::string err;
    ASSERT_EQ(DecodeFrame(raw, &f, &used, &err), FrameStatus::kOk) << err;
    EXPECT_EQ(f.type, FrameType::kResponse);
    answers[f.request_id] = f.payload;
    raw.erase(0, used);
  }
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[7], "first");
  EXPECT_EQ(answers[8], "second");
  EXPECT_EQ(server.stats().frames_in, 2);
}

TEST(RpcTest, StatuszTextReportsState) {
  RpcServer server;
  RegisterEcho(&server);
  ASSERT_TRUE(server.Start());
  RpcClient client(ClientTo(server));
  std::string response;
  std::string error;
  ASSERT_TRUE(client.Call(kEchoMethod, "x", &response, &error));
  const std::string text = server.StatuszText();
  EXPECT_NE(text.find("state serving"), std::string::npos) << text;
  EXPECT_NE(text.find("requests=1"), std::string::npos) << text;
}

}  // namespace
}  // namespace lcrec::net

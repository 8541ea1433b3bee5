// Request-level observability of lcrec::serve::Server: gap-free stage
// timelines on every path (cache hit, inline, queued, coalesced, shed),
// the timeline-sums-to-latency acceptance bound, decode attribution
// from the batch engine, Chrome async-span export for sampled requests,
// the per-server SLO monitor, and the flight-recorder black box — shed
// events must appear both in DumpFlightRecorder() and in the crash dump
// a failed LCREC_CHECK writes to stderr (death test).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/check.h"
#include "llm/minillm.h"
#include "obs/debugz.h"
#include "obs/http.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "quant/indexing.h"
#include "serve/server.h"
#include "text/vocab.h"

namespace lcrec::serve {
namespace {

template <typename Pred>
bool WaitUntil(Pred pred, int timeout_ms = 10000) {
  for (int i = 0; i < timeout_ms; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

class ServeObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::Rng rng(5);
    indexing_ = quant::ItemIndexing::Random(12, 3, 4, rng);
    trie_ = std::make_unique<quant::PrefixTrie>(indexing_);
    for (const std::string& tok : indexing_.AllTokenStrings()) {
      vocab_.AddToken(tok);
    }
    llm::MiniLlmConfig cfg;
    cfg.vocab_size = vocab_.size();
    cfg.d_model = 16;
    cfg.n_heads = 2;
    cfg.n_layers = 2;
    cfg.d_ff = 32;
    cfg.max_seq = 64;
    cfg.seed = 3;
    model_ = std::make_unique<llm::MiniLlm>(cfg);
    token_map_ = std::make_unique<llm::IndexTokenMap>(indexing_, vocab_);
  }

  PromptBuilder Builder() const {
    int vocab = vocab_.size();
    return [vocab](const std::vector<int>& history) {
      std::vector<int> prompt = {text::Vocabulary::kBos};
      for (int item : history) {
        prompt.push_back(4 + (item % (vocab - 4)));
      }
      return prompt;
    };
  }

  std::unique_ptr<Server> MakeServer(ServerOptions opts) const {
    return std::make_unique<Server>(*model_, *trie_, *token_map_, Builder(),
                                    opts);
  }

  text::Vocabulary vocab_;
  quant::ItemIndexing indexing_ = quant::ItemIndexing::VanillaId(1);
  std::unique_ptr<quant::PrefixTrie> trie_;
  std::unique_ptr<llm::MiniLlm> model_;
  std::unique_ptr<llm::IndexTokenMap> token_map_;
};

std::vector<std::string> StageNames(const RequestDebug& d) {
  std::vector<std::string> names;
  for (const obs::StageSpan& s : d.stages) names.emplace_back(s.stage);
  return names;
}

double StageSumUs(const RequestDebug& d) {
  double sum = 0.0;
  for (const obs::StageSpan& s : d.stages) sum += s.dur_us;
  return sum;
}

/// The acceptance bound: stage durations must tile the request, summing
/// to its end-to-end latency within 5% (plus a small absolute slack for
/// the sub-microsecond gap between the latency read and Finish()).
void ExpectTimelineMatchesLatency(const RecommendResponse& resp) {
  ASSERT_FALSE(resp.debug.stages.empty());
  double lat_us = resp.latency_ms * 1000.0;
  double sum_us = StageSumUs(resp.debug);
  EXPECT_LE(std::fabs(sum_us - lat_us), std::max(0.05 * lat_us, 50.0))
      << "stages sum to " << sum_us << "us but latency is " << lat_us << "us";
  // Gap-free: each stage starts exactly where the previous ended.
  for (size_t i = 1; i < resp.debug.stages.size(); ++i) {
    const obs::StageSpan& prev = resp.debug.stages[i - 1];
    EXPECT_DOUBLE_EQ(resp.debug.stages[i].start_us,
                     prev.start_us + prev.dur_us)
        << "gap before stage " << resp.debug.stages[i].stage;
  }
}

TEST_F(ServeObsTest, QueuedRequestTimelineSumsToLatency) {
  ServerOptions opts;
  opts.beam_size = 4;
  opts.inline_fast_path = false;  // force the full queued path
  opts.cache_capacity = 0;
  auto server = MakeServer(opts);
  for (int i = 0; i < 4; ++i) {
    RecommendRequest req;
    req.history = {i, i + 7};
    req.top_n = 3;
    RecommendResponse resp = server->Recommend(req);
    ASSERT_EQ(resp.status, Status::kOk);
    EXPECT_GT(resp.debug.request_id, 0u);
    ExpectTimelineMatchesLatency(resp);
    std::vector<std::string> names = StageNames(resp.debug);
    ASSERT_EQ(names.size(), 7u) << "queued path has a fixed stage set";
    EXPECT_EQ(names[0], "build");
    EXPECT_EQ(names[1], "cache_lookup");
    EXPECT_EQ(names[2], "queue_wait");
    EXPECT_EQ(names[3], "admit");
    EXPECT_EQ(names[4], "decode");
    EXPECT_EQ(names[5], "retire");
    EXPECT_EQ(names[6], "respond");
  }
}

TEST_F(ServeObsTest, InlinePathTimelineSkipsTheQueue) {
  ServerOptions opts;
  opts.beam_size = 4;
  opts.cache_capacity = 0;  // force a real decode every time
  auto server = MakeServer(opts);
  RecommendRequest req;
  req.history = {1, 2, 3};
  RecommendResponse resp = server->Recommend(req);
  ASSERT_EQ(resp.status, Status::kOk);
  ASSERT_TRUE(resp.inline_path) << "idle server must take the fast path";
  ExpectTimelineMatchesLatency(resp);
  std::vector<std::string> names = StageNames(resp.debug);
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "build");
  EXPECT_EQ(names[1], "cache_lookup");
  EXPECT_EQ(names[2], "decode");
  EXPECT_EQ(names[3], "respond");
  // Inline decode runs a private engine, not the shared batch, so there
  // is no batch-tick attribution.
  EXPECT_EQ(resp.debug.decode_ticks, 0);
  EXPECT_DOUBLE_EQ(resp.debug.decode_share_us, 0.0);
}

TEST_F(ServeObsTest, CacheHitTimelineEndsAtTheLookup) {
  ServerOptions opts;
  opts.beam_size = 4;
  auto server = MakeServer(opts);
  RecommendRequest req;
  req.history = {3, 1, 4};
  RecommendResponse first = server->Recommend(req);
  ASSERT_EQ(first.status, Status::kOk);
  ASSERT_FALSE(first.cache_hit);
  RecommendResponse second = server->Recommend(req);
  ASSERT_EQ(second.status, Status::kOk);
  ASSERT_TRUE(second.cache_hit);
  EXPECT_GT(second.debug.request_id, first.debug.request_id);
  ExpectTimelineMatchesLatency(second);
  std::vector<std::string> names = StageNames(second.debug);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "build");
  EXPECT_EQ(names[1], "cache_lookup");
}

TEST_F(ServeObsTest, CoalescedFollowerGetsItsOwnWaitTimeline) {
  ServerOptions opts;
  opts.beam_size = 4;
  opts.inline_fast_path = false;
  opts.start_scheduler = false;  // stage leader + follower deterministically
  opts.cache_capacity = 0;
  auto server = MakeServer(opts);

  RecommendRequest req;
  req.history = {2, 7, 2};
  RecommendResponse leader_resp, follower_resp;
  std::thread leader([&] { leader_resp = server->Recommend(req); });
  ASSERT_TRUE(WaitUntil([&] { return server->queue_depth() == 1; }));
  std::thread follower([&] { follower_resp = server->Recommend(req); });
  ASSERT_TRUE(WaitUntil([&] { return server->stats().coalesced == 1; }));
  server->Start();
  leader.join();
  follower.join();

  ASSERT_EQ(leader_resp.status, Status::kOk);
  ASSERT_EQ(follower_resp.status, Status::kOk);
  EXPECT_FALSE(leader_resp.coalesced);
  EXPECT_TRUE(follower_resp.coalesced);
  EXPECT_NE(leader_resp.debug.request_id, follower_resp.debug.request_id);

  // The follower never queued or decoded: it parked on the leader's
  // pending, so its timeline is its own three-stage wait.
  ExpectTimelineMatchesLatency(follower_resp);
  std::vector<std::string> names = StageNames(follower_resp.debug);
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "build");
  EXPECT_EQ(names[1], "cache_lookup");
  EXPECT_EQ(names[2], "coalesce_wait");
  // The leader went through the queue and the shared decode.
  std::vector<std::string> leader_names = StageNames(leader_resp.debug);
  EXPECT_NE(std::find(leader_names.begin(), leader_names.end(), "queue_wait"),
            leader_names.end());
  EXPECT_NE(std::find(leader_names.begin(), leader_names.end(), "decode"),
            leader_names.end());
}

TEST_F(ServeObsTest, QueuedDecodeCarriesBatchAttribution) {
  ServerOptions opts;
  opts.beam_size = 4;
  opts.inline_fast_path = false;
  opts.cache_capacity = 0;
  auto server = MakeServer(opts);
  RecommendRequest req;
  req.history = {9, 8, 7};
  RecommendResponse resp = server->Recommend(req);
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_GT(resp.debug.decode_ticks, 0)
      << "a batched decode participates in at least one tick";
  EXPECT_GT(resp.debug.decode_share_us, 0.0);
}

TEST_F(ServeObsTest, ShedRequestTimelineEndsInShed) {
  ServerOptions opts;
  opts.degraded_fallbacks = false;  // this test asserts the shed contract
  opts.beam_size = 4;
  opts.inline_fast_path = false;
  opts.start_scheduler = false;
  opts.max_queue = 1;
  opts.cache_capacity = 0;
  auto server = MakeServer(opts);

  RecommendRequest filler;
  filler.history = {1};
  std::thread blocked([&] { (void)server->Recommend(filler); });
  ASSERT_TRUE(WaitUntil([&] { return server->queue_depth() == 1; }));

  RecommendRequest req;
  req.history = {2};
  RecommendResponse resp = server->Recommend(req);
  EXPECT_EQ(resp.status, Status::kShedQueueFull);
  std::vector<std::string> names = StageNames(resp.debug);
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.back(), "shed");
  ExpectTimelineMatchesLatency(resp);

  server->Start();  // release the filler
  blocked.join();
}

TEST_F(ServeObsTest, DumpFlightRecorderContainsRecentSheds) {
  ServerOptions opts;
  opts.degraded_fallbacks = false;  // this test asserts the shed contract
  opts.beam_size = 4;
  opts.inline_fast_path = false;
  opts.start_scheduler = false;
  opts.max_queue = 1;
  opts.cache_capacity = 0;
  auto server = MakeServer(opts);

  RecommendRequest filler;
  filler.history = {1};
  std::thread blocked([&] { (void)server->Recommend(filler); });
  ASSERT_TRUE(WaitUntil([&] { return server->queue_depth() == 1; }));

  const int kSheds = 5;
  for (int i = 0; i < kSheds; ++i) {
    RecommendRequest req;
    // Distinct keys, none colliding with the filler's prompt: the
    // builder maps item ids mod (vocab-4), so {20..24} -> tokens
    // {8,9,10,11,0}-ish, never the filler's. A collision would coalesce
    // onto the parked filler and wait forever instead of shedding.
    req.history = {20 + i};
    RecommendResponse resp = server->Recommend(req);
    ASSERT_EQ(resp.status, Status::kShedQueueFull);
  }

  std::ostringstream dump;
  server->DumpFlightRecorder(dump);
  std::istringstream in(dump.str());
  std::string line;
  int shed_lines = 0;
  while (std::getline(in, line)) {
    if (line.find("\"detail\":\"shed_queue_full\"") != std::string::npos) {
      ++shed_lines;
      EXPECT_NE(line.find("\"kind\":\"shed\""), std::string::npos) << line;
    }
  }
  EXPECT_GE(shed_lines, kSheds) << dump.str();

  server->Start();
  blocked.join();
}

TEST_F(ServeObsTest, SloMonitorTracksCompletions) {
  ServerOptions opts;
  opts.beam_size = 4;
  opts.slo.target_ms = 10000.0;  // nothing here should count as bad
  auto server = MakeServer(opts);
  const int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    RecommendRequest req;
    req.history = {i};
    ASSERT_EQ(server->Recommend(req).status, Status::kOk);
  }
  obs::SloWindow w = server->slo().Window();
  EXPECT_EQ(w.total, kRequests);
  EXPECT_EQ(w.bad, 0);
  EXPECT_DOUBLE_EQ(w.burn_rate, 0.0);
  std::string statusz = server->Statusz();
  EXPECT_NE(statusz.find("slo: target 10000ms"), std::string::npos) << statusz;
  EXPECT_NE(statusz.find("total 6"), std::string::npos) << statusz;
}

TEST_F(ServeObsTest, ShedsCountAgainstTheSlo) {
  ServerOptions opts;
  opts.degraded_fallbacks = false;  // this test asserts the shed contract
  opts.beam_size = 4;
  opts.inline_fast_path = false;
  opts.start_scheduler = false;
  opts.max_queue = 1;
  opts.cache_capacity = 0;
  opts.slo.target_ms = 10000.0;
  auto server = MakeServer(opts);

  RecommendRequest filler;
  filler.history = {1};
  std::thread blocked([&] { (void)server->Recommend(filler); });
  ASSERT_TRUE(WaitUntil([&] { return server->queue_depth() == 1; }));
  RecommendRequest req;
  req.history = {2};
  ASSERT_EQ(server->Recommend(req).status, Status::kShedQueueFull);
  obs::SloWindow w = server->slo().Window();
  EXPECT_GE(w.bad, 1) << "a shed is budget burn even with a lax target";
  EXPECT_GT(w.burn_rate, 0.0);
  server->Start();
  blocked.join();
}

TEST_F(ServeObsTest, SampledRequestsExportAsyncSpans) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Clear();
  ServerOptions opts;
  opts.beam_size = 4;
  opts.trace_sample_n = 1;  // sample everything
  auto server = MakeServer(opts);
  rec.SetEnabled(true);
  RecommendRequest req;
  req.history = {5, 6};
  RecommendResponse resp = server->Recommend(req);
  rec.SetEnabled(false);
  ASSERT_EQ(resp.status, Status::kOk);
  ASSERT_TRUE(resp.debug.sampled);

  int begins = 0, ends = 0;
  bool saw_req = false, saw_stage = false;
  for (const obs::TraceEvent& e : rec.Events()) {
    if (e.async_id != resp.debug.request_id) continue;
    if (e.phase == 'b') ++begins;
    if (e.phase == 'e') ++ends;
    if (e.name == "req") saw_req = true;
    if (e.name == "req.decode") saw_stage = true;
  }
  // One enclosing pair plus one pair per recorded stage.
  EXPECT_EQ(begins, static_cast<int>(resp.debug.stages.size()) + 1);
  EXPECT_EQ(begins, ends);
  EXPECT_TRUE(saw_req);
  EXPECT_TRUE(saw_stage);
  rec.Clear();
}

TEST_F(ServeObsTest, SamplingOffMeansNoDebugSampledFlag) {
  ServerOptions opts;
  opts.beam_size = 4;
  opts.trace_sample_n = 0;  // sampling disabled; timelines still built
  auto server = MakeServer(opts);
  RecommendRequest req;
  req.history = {4};
  RecommendResponse resp = server->Recommend(req);
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_FALSE(resp.debug.sampled);
  EXPECT_FALSE(resp.debug.stages.empty());
}

/// Satellite: Statusz is a one-stop serving snapshot — SLO line plus
/// request, cache-rate, queue, batch-lane, and shed counters.
TEST_F(ServeObsTest, StatuszIsAOneStopSnapshot) {
  ServerOptions opts;
  opts.beam_size = 4;
  auto server = MakeServer(opts);
  RecommendRequest req;
  req.history = {2, 3};
  ASSERT_EQ(server->Recommend(req).status, Status::kOk);
  ASSERT_EQ(server->Recommend(req).status, Status::kOk);  // cache hit

  std::string statusz = server->Statusz();
  EXPECT_NE(statusz.find("slo: target"), std::string::npos) << statusz;
  EXPECT_NE(statusz.find("requests 2 | completed 2 | decoded 1"),
            std::string::npos)
      << statusz;
  EXPECT_NE(statusz.find("cache: hits 1 (50.0%)"), std::string::npos)
      << statusz;
  EXPECT_NE(statusz.find("queue: depth 0 / 256"), std::string::npos)
      << statusz;
  EXPECT_NE(statusz.find("batch: active_lanes"), std::string::npos)
      << statusz;
  EXPECT_NE(statusz.find("shed: queue_full 0 | deadline 0"),
            std::string::npos)
      << statusz;
}

/// Tentpole integration: a server constructed with debug_port exposes
/// its statusz section and the sampled request timelines over HTTP.
TEST_F(ServeObsTest, DebugzServesServeSectionAndTimelines) {
  obs::RecentTimelines::Global().Clear();
  ServerOptions opts;
  opts.beam_size = 4;
  opts.debug_port = 0;  // ephemeral
  auto server = MakeServer(opts);
  obs::DebugServer& debugz = obs::DebugServer::Global();
  ASSERT_TRUE(debugz.running());
  ASSERT_GT(debugz.port(), 0);

  for (int i = 0; i < 3; ++i) {
    RecommendRequest req;
    req.history = {7 + i};
    ASSERT_EQ(server->Recommend(req).status, Status::kOk);
  }

  obs::HttpResponse resp;
  std::string error;
  ASSERT_TRUE(obs::HttpGet("127.0.0.1", debugz.port(), "/statusz", &resp,
                           &error))
      << error;
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("--- serve ---"), std::string::npos) << resp.body;
  EXPECT_NE(resp.body.find("cache: hits"), std::string::npos) << resp.body;
  EXPECT_NE(resp.body.find("batch: active_lanes"), std::string::npos)
      << resp.body;

  ASSERT_TRUE(obs::HttpGet("127.0.0.1", debugz.port(), "/timelinez", &resp,
                           &error))
      << error;
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"request_id\":"), std::string::npos)
      << resp.body;
  EXPECT_NE(resp.body.find("\"stage\":\"build\""), std::string::npos)
      << resp.body;

  // A destroyed server withdraws its section instead of dangling.
  server.reset();
  ASSERT_TRUE(obs::HttpGet("127.0.0.1", debugz.port(), "/statusz", &resp,
                           &error))
      << error;
  EXPECT_EQ(resp.body.find("--- serve ---"), std::string::npos) << resp.body;
  // Join the debug thread so the later fork-based death test does not
  // inherit a live event loop.
  debugz.Stop();
}

// A crash must leave a readable black box: force a burst of sheds, then
// fail an LCREC_CHECK and require the stderr dump to contain the shed
// events recorded just before death. Threadsafe style re-executes the
// binary, so everything — server, sheds, crash — happens inside the
// death statement.
TEST_F(ServeObsTest, CrashDumpNamesTheRecentSheds) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto force_sheds_then_crash = [this] {
    ServerOptions opts;
    opts.degraded_fallbacks = false;  // shed contract
    opts.beam_size = 4;
    opts.inline_fast_path = false;
    opts.start_scheduler = false;
    opts.max_queue = 1;
    opts.cache_capacity = 0;
    auto server = MakeServer(opts);
    RecommendRequest filler;
    filler.history = {1};
    std::thread blocked([&] { (void)server->Recommend(filler); });
    blocked.detach();  // the process dies before this request resolves
    if (!WaitUntil([&] { return server->queue_depth() == 1; })) {
      std::_Exit(42);  // staging failed; don't fake the expected death
    }
    for (int i = 0; i < 4; ++i) {
      RecommendRequest req;
      req.history = {20 + i};
      (void)server->Recommend(req);
    }
    LCREC_CHECK(false);  // -> flight-recorder dump on stderr, then abort
  };
  EXPECT_DEATH(force_sheds_then_crash(),
               "flight recorder dump(.*shed_queue_full){3}");
}

}  // namespace
}  // namespace lcrec::serve

// lcrec::serve::Server correctness: concurrent clients get exactly the
// sequential decoder's rankings, the result cache and single-flight
// dedup collapse duplicate work, and overload sheds with a reason
// instead of queueing without bound. The shed/coalesce tests park the
// scheduler (start_scheduler=false) to stage requests deterministically.
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "llm/generate.h"
#include "llm/minillm.h"
#include "obs/debugz.h"
#include "obs/sync.h"
#include "quant/indexing.h"
#include "serve/chaos.h"
#include "serve/server.h"
#include "tests/reference_decode.h"
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

class ServeTest : public ::testing::Test {
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

  /// What the sequential reference decoder returns for the same request.
  std::vector<llm::ScoredItem> Reference(const RecommendRequest& req,
                                         int beam_size) const {
    return testing::ReferenceGenerateItems(*model_, Builder()(req.history),
                                           *trie_, *token_map_, beam_size,
                                           req.top_n);
  }

  text::Vocabulary vocab_;
  quant::ItemIndexing indexing_ = quant::ItemIndexing::VanillaId(1);
  std::unique_ptr<quant::PrefixTrie> trie_;
  std::unique_ptr<llm::MiniLlm> model_;
  std::unique_ptr<llm::IndexTokenMap> token_map_;
};

void ExpectSameRanking(const std::vector<llm::ScoredItem>& got,
                       const std::vector<llm::ScoredItem>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item) << "rank " << i;
    EXPECT_EQ(got[i].logprob, want[i].logprob) << "rank " << i;
  }
}

TEST_F(ServeTest, ConcurrentClientsMatchSequentialReference) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 3;
  ServerOptions opts;
  opts.beam_size = 6;
  opts.max_batch_lanes = 4;
  auto server = MakeServer(opts);

  // Distinct histories, references computed with the offline decoder.
  std::vector<RecommendRequest> reqs;
  std::vector<std::vector<llm::ScoredItem>> want;
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    RecommendRequest r;
    r.history = {i, i + 1, 2 * i};
    r.top_n = 5;
    reqs.push_back(r);
    want.push_back(Reference(r, opts.beam_size));
  }

  std::vector<RecommendResponse> got(reqs.size());
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        size_t idx = static_cast<size_t>(t * kPerThread + i);
        got[idx] = server->Recommend(reqs[idx]);
      }
    });
  }
  for (auto& c : clients) c.join();

  for (size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_EQ(got[i].status, Status::kOk) << "request " << i;
    ExpectSameRanking(got[i].items, want[i]);
  }
  ServerStats s = server->stats();
  EXPECT_EQ(s.requests, kThreads * kPerThread);
  EXPECT_EQ(s.completed, kThreads * kPerThread);
  EXPECT_EQ(s.shed_queue_full, 0);
  EXPECT_EQ(s.shed_deadline, 0);
}

TEST_F(ServeTest, ResultCacheServesRepeatsWithoutDecoding) {
  ServerOptions opts;
  opts.beam_size = 6;
  auto server = MakeServer(opts);
  RecommendRequest req;
  req.history = {3, 1, 4};
  RecommendResponse first = server->Recommend(req);
  RecommendResponse second = server->Recommend(req);
  ASSERT_EQ(first.status, Status::kOk);
  ASSERT_EQ(second.status, Status::kOk);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  ExpectSameRanking(second.items, first.items);
  ServerStats s = server->stats();
  EXPECT_EQ(s.decoded, 1);
  EXPECT_EQ(s.cache_hits, 1);
}

TEST_F(ServeTest, CacheKeyedByTopNNotJustHistory) {
  ServerOptions opts;
  opts.beam_size = 6;
  auto server = MakeServer(opts);
  RecommendRequest req;
  req.history = {3, 1, 4};
  req.top_n = 5;
  RecommendRequest wider = req;
  wider.top_n = 8;
  EXPECT_FALSE(server->Recommend(req).cache_hit);
  RecommendResponse r = server->Recommend(wider);
  EXPECT_FALSE(r.cache_hit);  // different top_n must not share an entry
  EXPECT_EQ(r.items.size(), 6u);  // beam 6 caps the completed-item list
  EXPECT_EQ(server->stats().decoded, 2);
}

TEST_F(ServeTest, IdenticalInFlightRequestsAreCoalescedSingleFlight) {
  ServerOptions opts;
  opts.beam_size = 6;
  opts.start_scheduler = false;  // stage everything, then release
  opts.inline_fast_path = false;
  opts.cache_capacity = 0;  // force the dedup to happen in flight
  auto server = MakeServer(opts);

  RecommendRequest req;
  req.history = {7, 7, 7};
  std::vector<std::thread> clients;
  std::vector<RecommendResponse> got(8);
  clients.emplace_back([&] { got[0] = server->Recommend(req); });  // leader
  ASSERT_TRUE(WaitUntil([&] { return server->queue_depth() == 1; }));
  for (int i = 1; i < 8; ++i) {
    clients.emplace_back([&, i] { got[static_cast<size_t>(i)] =
                                      server->Recommend(req); });
  }
  // All seven followers must have joined the leader before release.
  ASSERT_TRUE(WaitUntil([&] { return server->stats().coalesced == 7; }));
  server->Start();
  for (auto& c : clients) c.join();

  ServerStats s = server->stats();
  EXPECT_EQ(s.decoded, 1) << "single-flight must decode exactly once";
  EXPECT_EQ(s.completed, 8);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(got[static_cast<size_t>(i)].status, Status::kOk);
    ExpectSameRanking(got[static_cast<size_t>(i)].items, got[0].items);
  }
  int coalesced = 0;
  for (const auto& r : got) coalesced += r.coalesced ? 1 : 0;
  EXPECT_EQ(coalesced, 7);
}

TEST_F(ServeTest, FullQueueShedsWithReasonInsteadOfBlocking) {
  ServerOptions opts;
  opts.degraded_fallbacks = false;  // this test asserts the shed contract
  opts.beam_size = 6;
  opts.start_scheduler = false;
  opts.inline_fast_path = false;
  opts.cache_capacity = 0;
  opts.max_queue = 2;
  auto server = MakeServer(opts);

  // Two distinct requests fill the queue while the scheduler is parked.
  std::vector<std::thread> blocked;
  std::vector<RecommendResponse> blocked_resp(2);
  for (int i = 0; i < 2; ++i) {
    blocked.emplace_back([&, i] {
      RecommendRequest r;
      r.history = {100 + i};
      blocked_resp[static_cast<size_t>(i)] = server->Recommend(r);
    });
  }
  ASSERT_TRUE(WaitUntil([&] { return server->queue_depth() == 2; }));

  // Further distinct requests are rejected immediately with a reason.
  for (int i = 0; i < 4; ++i) {
    RecommendRequest r;
    r.history = {200 + i};
    RecommendResponse resp = server->Recommend(r);
    EXPECT_EQ(resp.status, Status::kShedQueueFull);
    EXPECT_TRUE(resp.items.empty());
  }
  EXPECT_EQ(server->stats().shed_queue_full, 4);
  EXPECT_EQ(StatusName(Status::kShedQueueFull), "shed_queue_full");

  server->Start();
  for (auto& b : blocked) b.join();
  EXPECT_EQ(blocked_resp[0].status, Status::kOk);
  EXPECT_EQ(blocked_resp[1].status, Status::kOk);
}

TEST_F(ServeTest, ExpiredDeadlineIsShedAtAdmission) {
  ServerOptions opts;
  opts.degraded_fallbacks = false;  // this test asserts the shed contract
  opts.beam_size = 6;
  opts.start_scheduler = false;
  opts.inline_fast_path = false;
  auto server = MakeServer(opts);

  RecommendResponse resp;
  std::thread client([&] {
    RecommendRequest r;
    r.history = {42};
    r.deadline_ms = 5.0;
    resp = server->Recommend(r);
  });
  ASSERT_TRUE(WaitUntil([&] { return server->queue_depth() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server->Start();  // the scheduler finds the request already expired
  client.join();

  EXPECT_EQ(resp.status, Status::kShedDeadline);
  EXPECT_EQ(server->stats().shed_deadline, 1);
  EXPECT_EQ(server->stats().decoded, 0);
}

TEST_F(ServeTest, IdleServerServesSingleRequestInline) {
  ServerOptions opts;
  opts.beam_size = 6;
  auto server = MakeServer(opts);
  RecommendRequest req;
  req.history = {5, 9};
  RecommendResponse resp = server->Recommend(req);
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_TRUE(resp.inline_path);
  ExpectSameRanking(resp.items, Reference(req, opts.beam_size));
  ServerStats s = server->stats();
  EXPECT_EQ(s.inline_fast_path, 1);
  // The request never waited on the scheduler: no batching-delay tax.
  EXPECT_EQ(s.batch_ticks, 0);
}

TEST_F(ServeTest, ConcurrentCallersShareOneInlineSlot) {
  // The first caller claims the inline slot and holds it through a long
  // injected decode delay (the only one: max_fires = 1). With the
  // scheduler parked, a second caller arriving meanwhile must queue, and
  // from then on the non-empty queue sends every other caller there too.
  // Only then does the scheduler start, so the seven queued requests
  // batch instead of each decoding alone on its own thread. The waits
  // only EXPECT, so every caller is still released and joined.
  struct Disarm {
    ~Disarm() { chaos::DisarmChaos(); }
  } disarm;
  chaos::ChaosSpec delay;
  delay.site = chaos::ChaosSpec::Site::kDecode;
  delay.mode = chaos::ChaosSpec::Mode::kDelay;
  delay.rate = 1.0;
  delay.param_ms = 1000.0;
  delay.max_fires = 1;
  chaos::ArmChaos({delay});

  constexpr int kCallers = 8;
  ServerOptions opts;
  opts.beam_size = 6;
  opts.cache_capacity = 0;
  opts.start_scheduler = false;
  auto server = MakeServer(opts);
  std::vector<RecommendRequest> reqs(kCallers);
  for (int i = 0; i < kCallers; ++i) reqs[i].history = {i, 2 * i + 1};
  std::vector<RecommendResponse> got(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  auto call = [&](int i) {
    callers.emplace_back([&, i] { got[i] = server->Recommend(reqs[i]); });
  };

  call(0);
  EXPECT_TRUE(
      WaitUntil([&] { return server->stats().inline_fast_path == 1; }));
  call(1);
  EXPECT_TRUE(WaitUntil([&] { return server->queue_depth() == 1; }));
  for (int i = 2; i < kCallers; ++i) call(i);
  EXPECT_TRUE(
      WaitUntil([&] { return server->queue_depth() == kCallers - 1; }));
  server->Start();
  for (auto& c : callers) c.join();

  for (int i = 0; i < kCallers; ++i) {
    ASSERT_EQ(got[i].status, Status::kOk) << "caller " << i;
    ExpectSameRanking(got[i].items, Reference(reqs[i], opts.beam_size));
  }
  ServerStats s = server->stats();
  EXPECT_EQ(s.inline_fast_path, 1);
  EXPECT_GT(s.batch_ticks, 0);
  EXPECT_EQ(s.decoded, kCallers);
}

TEST_F(ServeTest, InlineDisabledStillMatchesReference) {
  ServerOptions opts;
  opts.beam_size = 6;
  opts.inline_fast_path = false;
  auto server = MakeServer(opts);
  RecommendRequest req;
  req.history = {5, 9};
  RecommendResponse resp = server->Recommend(req);
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_FALSE(resp.inline_path);
  ExpectSameRanking(resp.items, Reference(req, opts.beam_size));
  EXPECT_GT(server->stats().batch_ticks, 0);
}

TEST_F(ServeTest, FullLoadRunRegistersNoLockOrderCycles) {
  // Lock-discipline acceptance for the serving stack: a concurrent load
  // run exercises every serve-path mutex (state, queue, cache, slo,
  // plus the obs internals they reach), and the lock-order graph it
  // builds must contain no cycle. Report mode so a violation fails this
  // assertion with the findings text rather than aborting the binary.
  obs::SetDeadlockMode(obs::DeadlockMode::kReport);
  obs::ResetDeadlockStateForTest();
  ServerOptions opts;
  opts.beam_size = 6;
  opts.max_batch_lanes = 4;
  auto server = MakeServer(opts);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 4;
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        RecommendRequest r;
        // Half repeats (cache + single-flight paths), half distinct.
        int seed = (i % 2 == 0) ? t : 1000 + t * kPerThread + i;
        r.history = {seed, seed + 1};
        r.top_n = 5;
        RecommendResponse resp = server->Recommend(r);
        EXPECT_EQ(resp.status, Status::kOk);
      }
    });
  }
  // Introspection during load: /statusz holds the debugz registry mutex
  // while serve's section callback reads slo + queue state, the one real
  // lock nesting in the serving stack — so the run records actual
  // lock-order edges, not a trivially empty graph.
  for (int i = 0; i < 3; ++i) {
    EXPECT_NE(obs::ReadStatusz().find("serve"), std::string::npos);
  }
  for (auto& c : clients) c.join();
  server->Stop();

  bool queue_locked = false;
  for (const obs::MutexStatsRow& row : obs::MutexStatsSnapshot()) {
    if (row.name == "serve.queue") queue_locked = row.acquisitions > 0;
  }
  EXPECT_TRUE(queue_locked);  // the detector saw the serve path
  EXPECT_GT(obs::LockOrderEdgeCount(), 0u);  // the run did build a graph
  EXPECT_EQ(obs::LockOrderCycleCount(), 0);
  std::vector<std::string> findings = obs::LockOrderFindings();
  EXPECT_TRUE(findings.empty())
      << "lock-order cycles flagged during load:\n"
      << (findings.empty() ? "" : findings[0]);
}

TEST_F(ServeTest, StopReleasesQueuedWaiters) {
  ServerOptions opts;
  opts.beam_size = 6;
  opts.start_scheduler = false;
  opts.inline_fast_path = false;
  auto server = MakeServer(opts);
  RecommendResponse resp;
  std::thread client([&] {
    RecommendRequest r;
    r.history = {11};
    resp = server->Recommend(r);
  });
  ASSERT_TRUE(WaitUntil([&] { return server->queue_depth() == 1; }));
  // Start-then-stop: the scheduler drains the admitted request before
  // exiting, so the waiter gets a real answer, not a stranded wait.
  server->Start();
  server->Stop();
  client.join();
  EXPECT_EQ(resp.status, Status::kOk);
}

}  // namespace
}  // namespace lcrec::serve

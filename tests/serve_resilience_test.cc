// Resilience layer (DESIGN.md §14): the shared injection grammar, the
// chaos injector, the circuit breaker state machine (fake clock), the
// result cache's TTL/stale tier, and the server's degradation ladder —
// including the terminal-state accounting invariant under concurrent
// chaos load. The healthy-path regression tests pin that all of this is
// inert by default: infinite TTL, closed breaker, disarmed chaos.
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "llm/generate.h"
#include "llm/minillm.h"
#include "obs/inject.h"
#include "quant/indexing.h"
#include "serve/breaker.h"
#include "serve/cache.h"
#include "serve/chaos.h"
#include "serve/server.h"
#include "tests/reference_decode.h"
#include "text/vocab.h"

namespace lcrec::serve {
namespace {

// --- obs/inject.h: the grammar and sampler both injectors share -------------

TEST(InjectRate, ParsesRatesInZeroOneExclusiveInclusive) {
  double rate = 0.0;
  EXPECT_TRUE(obs::ParseInjectRate("0.1", &rate));
  EXPECT_DOUBLE_EQ(rate, 0.1);
  EXPECT_TRUE(obs::ParseInjectRate(".5", &rate));
  EXPECT_DOUBLE_EQ(rate, 0.5);
  EXPECT_TRUE(obs::ParseInjectRate("1", &rate));
  EXPECT_DOUBLE_EQ(rate, 1.0);

  EXPECT_FALSE(obs::ParseInjectRate("", &rate));
  EXPECT_FALSE(obs::ParseInjectRate("0", &rate));      // never-fires: reject
  EXPECT_FALSE(obs::ParseInjectRate("0.0", &rate));
  EXPECT_FALSE(obs::ParseInjectRate("1.5", &rate));    // above 1
  EXPECT_FALSE(obs::ParseInjectRate("0..5", &rate));   // two dots
  EXPECT_FALSE(obs::ParseInjectRate("-0.1", &rate));   // sign not in grammar
  EXPECT_FALSE(obs::ParseInjectRate("0.1x", &rate));
  EXPECT_FALSE(obs::ParseInjectRate("x", &rate));
}

TEST(InjectRng, SeededStreamIsReproducible) {
  obs::InjectRng a(42), b(42);
  for (int i = 0; i < 64; ++i) {
    double u = a.NextUniform();
    EXPECT_EQ(u, b.NextUniform()) << "draw " << i;
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  // Reset replays the stream from the top; a different seed diverges.
  double first = obs::InjectRng(7).NextUniform();
  a.Reset(7);
  EXPECT_EQ(a.NextUniform(), first);
  obs::InjectRng c(8);
  a.Reset(7);
  EXPECT_NE(a.NextUniform(), c.NextUniform());
}

TEST(InjectRng, FireRespectsTheRateEdges) {
  obs::InjectRng rng(1);
  EXPECT_FALSE(rng.Fire(0.0));
  EXPECT_FALSE(rng.Fire(-1.0));
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(rng.Fire(1.0));
}

// --- serve::chaos: spec grammar + the seeded injector -----------------------

TEST(ChaosSpecParse, AcceptsTheGrammar) {
  std::vector<chaos::ChaosSpec> specs;
  ASSERT_TRUE(chaos::ParseChaosSpecs("decode:fail:0.1", &specs));
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].site, chaos::ChaosSpec::Site::kDecode);
  EXPECT_EQ(specs[0].mode, chaos::ChaosSpec::Mode::kFail);
  EXPECT_DOUBLE_EQ(specs[0].rate, 0.1);

  ASSERT_TRUE(
      chaos::ParseChaosSpecs("decode:delay:0.05:40,queue:full:0.02", &specs));
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].mode, chaos::ChaosSpec::Mode::kDelay);
  EXPECT_DOUBLE_EQ(specs[0].param_ms, 40.0);
  EXPECT_EQ(specs[1].site, chaos::ChaosSpec::Site::kQueue);
  EXPECT_EQ(specs[1].mode, chaos::ChaosSpec::Mode::kFull);

  // Delay without an explicit param keeps the documented 20 ms default.
  ASSERT_TRUE(chaos::ParseChaosSpecs("decode:delay:0.5", &specs));
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_DOUBLE_EQ(specs[0].param_ms, 20.0);
}

TEST(ChaosSpecParse, RejectsMalformedSpecs) {
  std::vector<chaos::ChaosSpec> specs;
  const char* bad[] = {
      "",                      // empty
      "decode",                // missing fields
      "decode:fail",           // missing rate
      "decode:fail:0",         // rate must be in (0, 1]
      "decode:fail:2",         // rate above 1
      "boom:fail:0.1",         // unknown site
      "decode:boom:0.1",       // unknown mode
      "queue:fail:0.1",        // queue pressure is the only queue mode
      "queue:delay:0.1",       // (site/mode pairing, both directions)
      "decode:full:0.1",       // full is queue-only
      "decode:fail:0.1:20",    // param is delay-only
      "queue:full:0.1:20",     // param is delay-only
      "decode:delay:0.1:",     // empty param
      "decode:delay:0.1:2x",   // non-numeric param
      "decode:delay:0.1:0",    // zero delay
      "decode:fail:0.1:x:y",   // too many fields
      ",decode:fail:0.1",      // empty list element
      "decode:fail:0.1,",      // trailing comma
  };
  for (const char* text : bad) {
    std::vector<chaos::ChaosSpec> untouched{chaos::ChaosSpec{}};
    EXPECT_FALSE(chaos::ParseChaosSpecs(text, &untouched)) << text;
    EXPECT_EQ(untouched.size(), 1u) << text << " clobbered *specs";
  }
}

/// Every injector test disarms on scope exit: the injector is
/// process-wide and the serving tests below must start from "off".
struct ChaosScope {
  ~ChaosScope() { chaos::DisarmChaos(); }
};

TEST(ChaosInjector, SeededFiringIsCountedAndCapped) {
  ChaosScope scope;
  chaos::ChaosSpec fail;
  fail.site = chaos::ChaosSpec::Site::kDecode;
  fail.mode = chaos::ChaosSpec::Mode::kFail;
  fail.rate = 1.0;
  fail.max_fires = 2;
  chaos::ArmChaos({fail}, /*seed=*/7);
  ASSERT_TRUE(chaos::ChaosArmed());

  EXPECT_TRUE(chaos::OnDecode().fail);
  EXPECT_TRUE(chaos::OnDecode().fail);
  EXPECT_FALSE(chaos::OnDecode().fail) << "max_fires cap ignored";
  EXPECT_EQ(chaos::ChaosFires(), 2);

  chaos::DisarmChaos();
  EXPECT_FALSE(chaos::ChaosArmed());
  EXPECT_FALSE(chaos::OnDecode().fail);
  EXPECT_FALSE(chaos::OnQueueAdmit());
  EXPECT_EQ(chaos::ChaosFires(), 0) << "re-arm must reset fire counts";
}

TEST(ChaosInjector, DelayCarriesItsParamAndSitesAreIndependent) {
  ChaosScope scope;
  chaos::ChaosSpec delay;
  delay.site = chaos::ChaosSpec::Site::kDecode;
  delay.mode = chaos::ChaosSpec::Mode::kDelay;
  delay.rate = 1.0;
  delay.param_ms = 5.0;
  chaos::ChaosSpec queue;
  queue.site = chaos::ChaosSpec::Site::kQueue;
  queue.mode = chaos::ChaosSpec::Mode::kFull;
  queue.rate = 1.0;
  queue.max_fires = 1;
  chaos::ArmChaos({delay, queue}, /*seed=*/3);

  chaos::DecodeChaos action = chaos::OnDecode();
  EXPECT_FALSE(action.fail);
  EXPECT_DOUBLE_EQ(action.delay_us, 5000.0);
  EXPECT_TRUE(chaos::OnQueueAdmit());
  EXPECT_FALSE(chaos::OnQueueAdmit()) << "queue cap ignored";
  // The queue spec never answers decode consultations or vice versa.
  EXPECT_DOUBLE_EQ(chaos::OnDecode().delay_us, 5000.0);
  std::string status = chaos::ChaosStatusText();
  EXPECT_NE(status.find("decode:delay"), std::string::npos) << status;
  EXPECT_NE(status.find("queue:full"), std::string::npos) << status;
}

// --- CircuitBreaker: the state machine under a fake clock -------------------

struct BreakerHarness {
  double now_us = 0.0;
  std::vector<BreakerState> transitions;
  BreakerOptions opts;

  BreakerHarness(int failure_threshold, int success_threshold,
                 double cooldown_ms, int probes) {
    opts.failure_threshold = failure_threshold;
    opts.success_threshold = success_threshold;
    opts.open_cooldown_ms = cooldown_ms;
    opts.half_open_probes = probes;
    opts.now_us = [this] { return now_us; };
    opts.on_transition = [this](BreakerState s) { transitions.push_back(s); };
  }
};

TEST(CircuitBreakerTest, TripsOnlyAfterConsecutiveFailures) {
  BreakerHarness h(3, 1, 10.0, 1);
  CircuitBreaker breaker(h.opts);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);

  breaker.RecordFailure();
  breaker.RecordFailure();
  breaker.RecordSuccess();  // interleaved success resets the count
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.Allow());

  breaker.RecordFailure();  // third consecutive
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.stats().trips, 1);
  EXPECT_FALSE(breaker.Allow());
  EXPECT_EQ(breaker.stats().short_circuits, 1);
}

TEST(CircuitBreakerTest, CooldownGrantsBoundedHalfOpenProbes) {
  BreakerHarness h(1, 2, 10.0, 2);
  CircuitBreaker breaker(h.opts);
  breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.Allow()) << "still cooling down";

  h.now_us += 9.0 * 1000.0;
  EXPECT_FALSE(breaker.Allow()) << "cooldown is 10ms, only 9 elapsed";
  h.now_us += 1.0 * 1000.0;
  EXPECT_TRUE(breaker.Allow());  // promotes to half-open, probe slot 1
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.Allow());   // probe slot 2
  EXPECT_FALSE(breaker.Allow());  // probe budget exhausted
  EXPECT_EQ(breaker.stats().probes, 2);

  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen)
      << "success_threshold is 2";
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.stats().recoveries, 1);
  EXPECT_TRUE(breaker.Allow());
}

TEST(CircuitBreakerTest, HalfOpenProbeFailureReopensAndRestartsCooldown) {
  BreakerHarness h(1, 1, 10.0, 1);
  CircuitBreaker breaker(h.opts);
  breaker.RecordFailure();
  h.now_us += 10.0 * 1000.0;
  ASSERT_TRUE(breaker.Allow());
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);

  breaker.RecordFailure();  // one failed probe is enough
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.stats().trips, 2);
  EXPECT_FALSE(breaker.Allow()) << "cooldown restarted at the re-trip";
  h.now_us += 10.0 * 1000.0;
  EXPECT_TRUE(breaker.Allow());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);

  // The transition hook saw the whole journey, in order.
  ASSERT_EQ(h.transitions.size(), 5u);
  EXPECT_EQ(h.transitions[0], BreakerState::kOpen);
  EXPECT_EQ(h.transitions[1], BreakerState::kHalfOpen);
  EXPECT_EQ(h.transitions[2], BreakerState::kOpen);
  EXPECT_EQ(h.transitions[3], BreakerState::kHalfOpen);
  EXPECT_EQ(h.transitions[4], BreakerState::kClosed);
}

// --- ResultCache: TTL and the stale tier ------------------------------------

llm::ScoredItem Item(int id) { return {id, -static_cast<float>(id)}; }

TEST(ResultCacheTtl, InfiniteTtlNeverGoesStale) {
  double now_us = 0.0;
  ResultCache cache(4, /*ttl_ms=*/0.0, [&now_us] { return now_us; });
  cache.Put(1, {Item(3)});
  now_us += 1e12;  // ~11 days later
  std::vector<llm::ScoredItem> out;
  EXPECT_TRUE(cache.Get(1, &out)) << "ttl<=0 must mean fresh forever";
  double age_ms = -1.0;
  EXPECT_TRUE(cache.GetWithStaleness(1, &out, &age_ms));
  EXPECT_EQ(cache.stale_serves(), 0);
}

TEST(ResultCacheTtl, StaleEntriesMissFreshLookupsButStayServable) {
  double now_us = 0.0;
  ResultCache cache(4, /*ttl_ms=*/10.0, [&now_us] { return now_us; });
  cache.Put(1, {Item(3), Item(5)});

  std::vector<llm::ScoredItem> out;
  now_us = 5.0 * 1000.0;
  EXPECT_TRUE(cache.Get(1, &out)) << "age 5ms < ttl 10ms";

  now_us = 20.0 * 1000.0;
  EXPECT_FALSE(cache.Get(1, &out)) << "stale entries miss the fresh path";
  EXPECT_EQ(cache.size(), 1u) << "...without being evicted";

  double age_ms = 0.0;
  out.clear();
  ASSERT_TRUE(cache.GetWithStaleness(1, &out, &age_ms));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].item, 3);
  EXPECT_DOUBLE_EQ(age_ms, 20.0);
  EXPECT_EQ(cache.stale_serves(), 1);

  // A refresh re-timestamps: fresh again.
  cache.Put(1, {Item(7)});
  EXPECT_TRUE(cache.Get(1, &out));
  EXPECT_EQ(out[0].item, 7);
}

// --- Server: the degradation ladder end to end ------------------------------

void ExpectSameRanking(const std::vector<llm::ScoredItem>& got,
                       const std::vector<llm::ScoredItem>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item) << "rank " << i;
    EXPECT_EQ(got[i].logprob, want[i].logprob) << "rank " << i;
  }
}

template <typename Pred>
bool WaitUntil(Pred pred, int timeout_ms = 10000) {
  for (int i = 0; i < timeout_ms; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    chaos::DisarmChaos();
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

  void TearDown() override { chaos::DisarmChaos(); }

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

  std::vector<llm::ScoredItem> Reference(const RecommendRequest& req,
                                         int beam_size) const {
    return testing::ReferenceGenerateItems(*model_, Builder()(req.history),
                                           *trie_, *token_map_, beam_size,
                                           req.top_n);
  }

  static void AlwaysFailDecode(int max_fires = 0) {
    chaos::ChaosSpec fail;
    fail.site = chaos::ChaosSpec::Site::kDecode;
    fail.mode = chaos::ChaosSpec::Mode::kFail;
    fail.rate = 1.0;
    fail.max_fires = max_fires;
    chaos::ArmChaos({fail}, /*seed=*/1);
  }

  text::Vocabulary vocab_;
  quant::ItemIndexing indexing_ = quant::ItemIndexing::VanillaId(1);
  std::unique_ptr<quant::PrefixTrie> trie_;
  std::unique_ptr<llm::MiniLlm> model_;
  std::unique_ptr<llm::IndexTokenMap> token_map_;
};

TEST_F(ResilienceTest, PopularityTierAnswersWhenDecodeIsDown) {
  AlwaysFailDecode();
  ServerOptions opts;
  opts.beam_size = 4;
  opts.decode_retries = 1;
  opts.popularity_items = {5, 3, 9, 1};
  auto server = MakeServer(opts);

  RecommendRequest req;
  req.history = {1, 2, 3};
  req.top_n = 3;
  RecommendResponse resp = server->Recommend(req);
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.degrade, DegradeLevel::kPopularity);
  EXPECT_STREQ(resp.degrade_label, "popularity");
  ASSERT_EQ(resp.items.size(), 3u);
  EXPECT_EQ(resp.items[0].item, 5);
  EXPECT_EQ(resp.items[1].item, 3);
  EXPECT_EQ(resp.items[2].item, 9);

  ServerStats stats = server->stats();
  EXPECT_EQ(stats.degraded_popularity, 1);
  EXPECT_EQ(stats.decode_failures, 2) << "initial attempt + one retry";
  EXPECT_EQ(stats.decode_retries, 1);
  EXPECT_EQ(stats.shed_queue_full + stats.shed_deadline, 0)
      << "the ladder answered; nothing was shed";
}

TEST_F(ResilienceTest, WithoutPopularityPriorTheTierUsesIndexOrder) {
  AlwaysFailDecode();
  ServerOptions opts;
  opts.decode_retries = 0;
  auto server = MakeServer(opts);
  RecommendRequest req;
  req.history = {4};
  req.top_n = 4;
  RecommendResponse resp = server->Recommend(req);
  EXPECT_EQ(resp.status, Status::kOk);
  ASSERT_EQ(resp.items.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(resp.items[i].item, i);
}

TEST_F(ResilienceTest, StaleCacheTierBeatsThePopularityPrior) {
  ServerOptions opts;
  opts.beam_size = 4;
  opts.cache_ttl_ms = 5.0;
  opts.decode_retries = 0;
  auto server = MakeServer(opts);

  RecommendRequest req;
  req.history = {7, 8};
  req.top_n = 4;
  RecommendResponse healthy = server->Recommend(req);
  ASSERT_EQ(healthy.status, Status::kOk);
  EXPECT_EQ(healthy.degrade, DegradeLevel::kFull);
  EXPECT_STREQ(healthy.degrade_label, "full");

  // Let the cached entry age past its TTL, then break the decode path.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  AlwaysFailDecode();

  RecommendResponse degraded = server->Recommend(req);
  EXPECT_EQ(degraded.status, Status::kOk);
  EXPECT_EQ(degraded.degrade, DegradeLevel::kStaleCache);
  EXPECT_STREQ(degraded.degrade_label, "stale_cache");
  ASSERT_EQ(degraded.items.size(), healthy.items.size());
  for (size_t i = 0; i < degraded.items.size(); ++i) {
    EXPECT_EQ(degraded.items[i].item, healthy.items[i].item) << "rank " << i;
  }
  EXPECT_EQ(server->stats().degraded_stale_cache, 1);
  EXPECT_EQ(server->cache().stale_serves(), 1);
}

TEST_F(ResilienceTest, BreakerTripsToPopularityAndRecoversViaProbes) {
  AlwaysFailDecode(/*max_fires=*/2);
  ServerOptions opts;
  opts.decode_retries = 0;
  opts.breaker.failure_threshold = 2;
  opts.breaker.success_threshold = 1;
  opts.breaker.open_cooldown_ms = 30.0;
  auto server = MakeServer(opts);

  // Two failing decodes trip the breaker (distinct histories: a cache
  // hit would bypass the decode path entirely).
  for (int i = 0; i < 2; ++i) {
    RecommendRequest req;
    req.history = {100 + i};
    req.top_n = 2;
    RecommendResponse resp = server->Recommend(req);
    EXPECT_EQ(resp.status, Status::kOk);
    EXPECT_EQ(resp.degrade, DegradeLevel::kPopularity);
  }
  EXPECT_EQ(server->breaker().state(), BreakerState::kOpen);

  // While open, requests short-circuit to the fallback without decoding.
  RecommendRequest shorted;
  shorted.history = {200};
  shorted.top_n = 2;
  RecommendResponse resp = server->Recommend(shorted);
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.degrade, DegradeLevel::kPopularity);
  EXPECT_GE(server->stats().breaker_short_circuits, 1);

  // After the cooldown the injected failures are exhausted (max_fires=2),
  // so the half-open probe succeeds and closes the breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  RecommendRequest probe;
  probe.history = {300};
  probe.top_n = 2;
  RecommendResponse healthy = server->Recommend(probe);
  EXPECT_EQ(healthy.status, Status::kOk);
  EXPECT_EQ(healthy.degrade, DegradeLevel::kFull);
  EXPECT_EQ(server->breaker().state(), BreakerState::kClosed);
  EXPECT_EQ(server->breaker().stats().recoveries, 1);
}

TEST_F(ResilienceTest, ExpiredDeadlineDegradesInsteadOfSheddingByDefault) {
  ServerOptions opts;
  opts.start_scheduler = false;  // park the scheduler to stage expiry
  opts.inline_fast_path = false;
  opts.popularity_items = {2, 4};
  auto server = MakeServer(opts);

  RecommendRequest req;
  req.history = {9};
  req.top_n = 2;
  req.deadline_ms = 5.0;
  RecommendResponse resp;
  std::thread client([&] { resp = server->Recommend(req); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server->Start();  // deadline long expired at admission
  client.join();

  EXPECT_EQ(resp.status, Status::kOk) << "fallbacks on: degraded, not shed";
  EXPECT_EQ(resp.degrade, DegradeLevel::kPopularity);
  ServerStats stats = server->stats();
  EXPECT_EQ(stats.shed_deadline, 0);
  EXPECT_EQ(stats.degraded_popularity, 1);
}

TEST_F(ResilienceTest, MostlyBurnedBudgetDecodesAtTheDegradedBeam) {
  ServerOptions opts;
  opts.beam_size = 8;
  opts.degraded_beam = 2;
  opts.budget_cap_fraction = 0.5;
  opts.start_scheduler = false;
  opts.inline_fast_path = false;
  auto server = MakeServer(opts);

  RecommendRequest req;
  req.history = {3, 1};
  req.top_n = 4;
  req.deadline_ms = 400.0;
  RecommendResponse resp;
  std::thread client([&] { resp = server->Recommend(req); });
  // Burn > half the budget in the queue; plenty remains for the (fast)
  // reduced-beam decode itself.
  std::this_thread::sleep_for(std::chrono::milliseconds(240));
  server->Start();
  client.join();

  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.degrade, DegradeLevel::kBudgetCapped);
  EXPECT_STREQ(resp.degrade_label, "budget_capped");
  // The capped lane is the sequential reference at the capped width —
  // the bit-identical batching contract holds at every beam.
  ExpectSameRanking(resp.items, Reference(req, opts.degraded_beam));
  EXPECT_EQ(server->stats().degraded_budget_capped, 1);
}

TEST_F(ResilienceTest, HealthyPathIsUntouchedByTheResilienceLayer) {
  // Chaos disarmed, breaker closed, infinite TTL, no deadline: responses
  // equal the offline decoder's, labeled full, with zero degrade/fault
  // accounting — the regression pin that the ladder is inert by default.
  ServerOptions opts;
  opts.beam_size = 4;
  auto server = MakeServer(opts);
  for (int i = 0; i < 6; ++i) {
    RecommendRequest req;
    req.history = {i, i + 2};
    req.top_n = 4;
    RecommendResponse resp = server->Recommend(req);
    ASSERT_EQ(resp.status, Status::kOk);
    EXPECT_EQ(resp.degrade, DegradeLevel::kFull);
    EXPECT_STREQ(resp.degrade_label, "full");
    ExpectSameRanking(resp.items, Reference(req, opts.beam_size));
  }
  ServerStats stats = server->stats();
  EXPECT_EQ(stats.degraded_budget_capped + stats.degraded_stale_cache +
                stats.degraded_popularity,
            0);
  EXPECT_EQ(stats.decode_failures, 0);
  EXPECT_EQ(stats.breaker_short_circuits, 0);
  EXPECT_EQ(server->breaker().state(), BreakerState::kClosed);
  EXPECT_EQ(server->cache().stale_serves(), 0);
}

TEST_F(ResilienceTest, TerminalStateAccountingHoldsUnderConcurrentChaos) {
  // The invariant: every admitted request ends in exactly one terminal
  // state, and the counters sum — requests == completed + sheds +
  // shutdowns — even with decode failures and queue pressure firing
  // concurrently. Distinct histories keep requests from coalescing, so
  // the response-side tier tallies must equal the server's counters.
  chaos::ChaosSpec fail;
  fail.site = chaos::ChaosSpec::Site::kDecode;
  fail.mode = chaos::ChaosSpec::Mode::kFail;
  fail.rate = 0.3;
  chaos::ChaosSpec pressure;
  pressure.site = chaos::ChaosSpec::Site::kQueue;
  pressure.mode = chaos::ChaosSpec::Mode::kFull;
  pressure.rate = 0.2;
  chaos::ArmChaos({fail, pressure}, /*seed=*/11);

  ServerOptions opts;
  opts.beam_size = 4;
  opts.decode_retries = 1;
  auto server = MakeServer(opts);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::atomic<int> ok{0}, degraded{0}, budget_capped{0}, stale{0}, pop{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        RecommendRequest req;
        req.history = {t * 1000 + i, t, i};  // unique per (t, i)
        req.top_n = 3;
        req.deadline_ms = 200.0;
        RecommendResponse resp = server->Recommend(req);
        if (resp.status == Status::kOk) ok.fetch_add(1);
        switch (resp.degrade) {
          case DegradeLevel::kFull: break;
          case DegradeLevel::kBudgetCapped:
            budget_capped.fetch_add(1);
            degraded.fetch_add(1);
            break;
          case DegradeLevel::kStaleCache:
            stale.fetch_add(1);
            degraded.fetch_add(1);
            break;
          case DegradeLevel::kPopularity:
            pop.fetch_add(1);
            degraded.fetch_add(1);
            break;
        }
      }
    });
  }
  for (auto& c : clients) c.join();

  const int total = kThreads * kPerThread;
  ServerStats stats = server->stats();
  EXPECT_EQ(ok.load(), total) << "fallbacks on: every request resolves kOk";
  EXPECT_EQ(stats.requests, total);
  EXPECT_EQ(stats.requests, stats.completed + stats.shed_queue_full +
                                stats.shed_deadline + stats.shed_shutdown)
      << "a request vanished without reaching a terminal state";
  EXPECT_EQ(stats.shed_queue_full + stats.shed_deadline + stats.shed_shutdown,
            0);
  EXPECT_EQ(stats.degraded_budget_capped, budget_capped.load());
  EXPECT_EQ(stats.degraded_stale_cache, stale.load());
  EXPECT_EQ(stats.degraded_popularity, pop.load());
  EXPECT_GT(degraded.load(), 0) << "chaos at these rates must degrade some";
}

TEST_F(ResilienceTest, FallbacksOffPreservesTheShedContract) {
  // With the ladder disabled, injected decode failures surface as
  // kShedDecodeFailure — the strict-error contract the pre-ladder tests
  // rely on, now under injected (not staged) faults.
  AlwaysFailDecode();
  ServerOptions opts;
  opts.degraded_fallbacks = false;
  opts.decode_retries = 0;
  auto server = MakeServer(opts);
  RecommendRequest req;
  req.history = {42};
  req.top_n = 2;
  RecommendResponse resp = server->Recommend(req);
  EXPECT_EQ(resp.status, Status::kShedDecodeFailure);
  EXPECT_TRUE(resp.items.empty());
  ServerStats stats = server->stats();
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.decode_failures, 1);
}

TEST_F(ResilienceTest, WatchdogFlagsAStalledSchedulerTick) {
  // One injected 120ms decode stall against a 25ms watchdog budget: the
  // watchdog (20ms poll) must catch the episode and count a fire.
  chaos::ChaosSpec stall;
  stall.site = chaos::ChaosSpec::Site::kDecode;
  stall.mode = chaos::ChaosSpec::Mode::kDelay;
  stall.rate = 1.0;
  stall.param_ms = 120.0;
  stall.max_fires = 1;
  chaos::ArmChaos({stall}, /*seed=*/1);

  ServerOptions opts;
  opts.inline_fast_path = false;  // route through the watched scheduler
  opts.watchdog_stall_ms = 25.0;
  auto server = MakeServer(opts);
  RecommendRequest req;
  req.history = {17};
  req.top_n = 2;
  RecommendResponse resp = server->Recommend(req);
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_TRUE(WaitUntil([&] { return server->stats().watchdog_fires >= 1; }))
      << "watchdog never fired on a 120ms stall";
}

}  // namespace
}  // namespace lcrec::serve

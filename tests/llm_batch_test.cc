// Equivalence suite for the batched decode path: a ForwardBatch lane must
// reproduce the same lane run alone exactly, and every BatchEngine lane
// must reproduce the sequential reference decoder
// (tests/reference_decode.h) exactly — the serving layer treats batched
// == sequential as a hard contract.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/graph.h"
#include "llm/batch.h"
#include "llm/generate.h"
#include "llm/minillm.h"
#include "obs/trace.h"
#include "quant/indexing.h"
#include "tests/reference_decode.h"
#include "text/vocab.h"

namespace lcrec::llm {
namespace {

MiniLlmConfig TinyConfig(int vocab = 40) {
  MiniLlmConfig cfg;
  cfg.vocab_size = vocab;
  cfg.d_model = 16;
  cfg.n_heads = 2;
  cfg.n_layers = 2;
  cfg.d_ff = 32;
  cfg.max_seq = 64;
  cfg.seed = 3;
  return cfg;
}

void ExpectSameLogits(const core::Tensor& batched, const core::Tensor& alone,
                      const char* what) {
  ASSERT_EQ(batched.size(), alone.size()) << what;
  for (int64_t j = 0; j < batched.size(); ++j) {
    // Bit-identical, not approximately equal: VecMatBatch's per-lane
    // accumulation order does not depend on the other lanes (and 1e-5 is
    // the documented floor the serving layer may rely on if a platform
    // ever breaks exactness).
    EXPECT_EQ(batched.at(j), alone.at(j)) << what << " logit " << j;
  }
}

TEST(ForwardBatch, RaggedLanesMatchSequentialForward) {
  MiniLlm model(TinyConfig());
  std::vector<std::vector<int>> prompts = {
      {1, 4, 7}, {1, 9}, {1, 5, 6, 8, 10}, {1, 33, 2, 17}};

  // Sequential reference: each lane alone.
  std::vector<MiniLlm::KvCache> ref_caches;
  std::vector<core::Tensor> ref_logits;
  for (const auto& p : prompts) {
    ref_caches.push_back(model.MakeCache());
    ref_logits.push_back(model.Forward(ref_caches.back(), p));
  }

  std::vector<MiniLlm::KvCache> caches(prompts.size());
  std::vector<MiniLlm::KvCache*> cache_ptrs;
  for (auto& c : caches) {
    c = model.MakeCache();
    cache_ptrs.push_back(&c);
  }
  std::vector<core::Tensor> batched = model.ForwardBatch(cache_ptrs, prompts);

  ASSERT_EQ(batched.size(), prompts.size());
  for (size_t b = 0; b < prompts.size(); ++b) {
    ExpectSameLogits(batched[b], ref_logits[b], "prefill");
    EXPECT_EQ(caches[b].length, ref_caches[b].length);
  }

  // Second ragged step: continue two lanes by one token each while the
  // others sit out (the continuous-batching shape).
  core::Tensor r0 = model.Forward(ref_caches[0], {12});
  core::Tensor r2 = model.Forward(ref_caches[2], {3});
  std::vector<core::Tensor> step =
      model.ForwardBatch({&caches[0], &caches[2]}, {{12}, {3}});
  ASSERT_EQ(step.size(), 2u);
  ExpectSameLogits(step[0], r0, "decode lane 0");
  ExpectSameLogits(step[1], r2, "decode lane 2");
  EXPECT_EQ(caches[0].length, ref_caches[0].length);
  EXPECT_EQ(caches[2].length, ref_caches[2].length);
}

TEST(ForwardBatch, SingleLaneIsForward) {
  MiniLlm model(TinyConfig());
  std::vector<int> tokens = {1, 4, 17, 8, 22};
  MiniLlm::KvCache ref = model.MakeCache();
  core::Tensor want = model.Forward(ref, tokens);
  MiniLlm::KvCache cache = model.MakeCache();
  std::vector<core::Tensor> got = model.ForwardBatch({&cache}, {tokens});
  ASSERT_EQ(got.size(), 1u);
  ExpectSameLogits(got[0], want, "single lane");
}

TEST(ForwardBatch, EmptyBatchReturnsEmpty) {
  MiniLlm model(TinyConfig());
  EXPECT_TRUE(model.ForwardBatch({}, {}).empty());
}

class BatchGenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::Rng rng(5);
    indexing_ = quant::ItemIndexing::Random(12, 3, 4, rng);
    trie_ = std::make_unique<quant::PrefixTrie>(indexing_);
    for (const std::string& tok : indexing_.AllTokenStrings()) {
      vocab_.AddToken(tok);
    }
    model_ = std::make_unique<MiniLlm>(TinyConfig(vocab_.size()));
    token_map_ = std::make_unique<IndexTokenMap>(indexing_, vocab_);
  }

  std::vector<std::vector<int>> Prompts() const {
    // Distinct prompts (different KV states) sharing one trie/token map.
    return {{text::Vocabulary::kBos},
            {text::Vocabulary::kBos, 4},
            {text::Vocabulary::kBos, 5, 6},
            {text::Vocabulary::kBos, 7, 4, 5}};
  }

  text::Vocabulary vocab_;
  quant::ItemIndexing indexing_ = quant::ItemIndexing::VanillaId(1);
  std::unique_ptr<quant::PrefixTrie> trie_;
  std::unique_ptr<MiniLlm> model_;
  std::unique_ptr<IndexTokenMap> token_map_;

  /// The sequential reference decoder at this fixture's trie.
  std::vector<ScoredItem> Reference(const std::vector<int>& prompt, int beam,
                                    int top_n) const {
    return testing::ReferenceGenerateItems(*model_, prompt, *trie_,
                                           *token_map_, beam, top_n);
  }

  /// Decodes `prompts` jointly, all admitted before the first tick;
  /// results are indexed like `prompts`.
  std::vector<std::vector<ScoredItem>> Joint(
      const std::vector<std::vector<int>>& prompts, int beam,
      int top_n) const {
    BatchEngine engine(*model_, *trie_, *token_map_, beam);
    for (size_t i = 0; i < prompts.size(); ++i) {
      engine.Admit(static_cast<uint64_t>(i), prompts[i], top_n);
    }
    std::vector<std::vector<ScoredItem>> out(prompts.size());
    while (!engine.Idle()) {
      for (BatchResult& r : engine.Tick()) out[r.tag] = std::move(r.items);
    }
    return out;
  }
};

void ExpectSameRanking(const std::vector<ScoredItem>& got,
                       const std::vector<ScoredItem>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item) << "rank " << i;
    EXPECT_EQ(got[i].logprob, want[i].logprob) << "rank " << i;
  }
}

TEST_F(BatchGenTest, JointDecodeMatchesSequentialPerPrompt) {
  std::vector<std::vector<int>> prompts = Prompts();
  auto batched = Joint(prompts, /*beam=*/8, /*top_n=*/6);
  ASSERT_EQ(batched.size(), prompts.size());
  for (size_t i = 0; i < prompts.size(); ++i) {
    ExpectSameRanking(batched[i], Reference(prompts[i], 8, 6));
    // The one-lane public entry point is the same engine.
    ExpectSameRanking(
        GenerateItems(*model_, prompts[i], *trie_, *token_map_, 8, 6),
        batched[i]);
  }
}

TEST_F(BatchGenTest, MidFlightAdmissionDoesNotPerturbResults) {
  // Continuous batching: a request admitted while another is mid-decode
  // must produce the same ranking as either alone.
  std::vector<std::vector<int>> prompts = Prompts();
  BatchEngine engine(*model_, *trie_, *token_map_, /*beam=*/8);
  engine.Admit(0, prompts[0], 6);
  std::vector<BatchResult> results;
  auto drain = [&](int ticks) {
    for (int t = 0; t < ticks && !engine.Idle(); ++t) {
      for (BatchResult& r : engine.Tick()) results.push_back(std::move(r));
    }
  };
  drain(2);  // prompt 0 is now mid-decode
  ASSERT_FALSE(engine.Idle());
  engine.Admit(1, prompts[1], 6);
  drain(1);
  engine.Admit(2, prompts[2], 6);
  drain(1000);  // run everything to completion
  EXPECT_TRUE(engine.Idle());
  ASSERT_EQ(results.size(), 3u);
  std::sort(results.begin(), results.end(),
            [](const BatchResult& a, const BatchResult& b) {
              return a.tag < b.tag;
            });
  for (size_t i = 0; i < results.size(); ++i) {
    ExpectSameRanking(results[i].items, Reference(prompts[i], 8, 6));
  }
}

TEST_F(BatchGenTest, TieBreaksRankTiedItemsByAscendingId) {
  // Zeroing the (tied) token-embedding table makes every logit exactly
  // 0, so every candidate and every finished item has an identical
  // log-probability: the ranking is decided purely by the tie-break
  // contract (item id ascending; beam/code ascending inside the search).
  core::Parameter* emb = model_->params().Find("tok_emb");
  ASSERT_NE(emb, nullptr);
  for (int64_t i = 0; i < emb->value.size(); ++i) emb->value.at(i) = 0.0f;

  auto run = [&] {
    return GenerateItems(*model_, {text::Vocabulary::kBos}, *trie_,
                         *token_map_, /*beam=*/12, /*top_n=*/12);
  };
  auto first = run();
  ASSERT_FALSE(first.empty());
  for (size_t i = 0; i + 1 < first.size(); ++i) {
    EXPECT_EQ(first[i].logprob, first[i + 1].logprob) << "not a tie";
    EXPECT_LT(first[i].item, first[i + 1].item) << "tie not broken by id";
  }
  // Deterministic across runs, equal to the reference decoder, and
  // unchanged when the lane shares its ticks with another.
  ExpectSameRanking(run(), first);
  ExpectSameRanking(Reference({text::Vocabulary::kBos}, 12, 12), first);
  auto batched = Joint({{text::Vocabulary::kBos}, {text::Vocabulary::kBos, 4}},
                       12, 12);
  ExpectSameRanking(batched[0], first);
}

TEST_F(BatchGenTest, ExpiredDeadlineRetiresLanePartialBeforeForward) {
  // A lane whose deadline has already passed must be retired as partial
  // on the next Tick() without paying any forward work — the engine's
  // side of the server's deadline-budget contract.
  BatchEngine engine(*model_, *trie_, *token_map_, /*beam=*/8);
  LaneOptions lane;
  // NowMicros is process-relative, so "1ms ago" could be negative (= no
  // deadline) in a fresh process: take "now" and let it pass instead.
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  lane.deadline_us = obs::NowMicros();
  engine.Admit(0, {text::Vocabulary::kBos}, 6, lane);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));

  std::vector<BatchResult> results = engine.Tick();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].partial);
  EXPECT_TRUE(results[0].items.empty()) << "no beam ever finished";
  EXPECT_EQ(results[0].ticks, 0) << "retired before any forward";
  EXPECT_TRUE(engine.Idle());
}

TEST_F(BatchGenTest, BeamCapMatchesSequentialAtTheCappedWidth) {
  // A capped lane is the reference decoder at the capped width — the
  // bit-identical contract holds at EVERY beam, not just the engine's —
  // and an uncapped lane in the same batch is unperturbed by it.
  std::vector<std::vector<int>> prompts = Prompts();
  BatchEngine engine(*model_, *trie_, *token_map_, /*beam=*/8);
  LaneOptions capped;
  capped.beam_cap = 2;
  engine.Admit(0, prompts[0], 6, capped);
  engine.Admit(1, prompts[1], 6);  // full engine beam alongside

  std::vector<BatchResult> results;
  for (int t = 0; t < 1000 && !engine.Idle(); ++t) {
    for (BatchResult& r : engine.Tick()) results.push_back(std::move(r));
  }
  EXPECT_TRUE(engine.Idle());
  ASSERT_EQ(results.size(), 2u);
  std::sort(results.begin(), results.end(),
            [](const BatchResult& a, const BatchResult& b) {
              return a.tag < b.tag;
            });

  EXPECT_FALSE(results[0].partial);
  EXPECT_EQ(results[0].beam_used, 2);
  ExpectSameRanking(results[0].items,
                    Reference(prompts[0], /*beam=*/2, /*top_n=*/6));
  EXPECT_FALSE(results[1].partial);
  EXPECT_EQ(results[1].beam_used, 8);
  ExpectSameRanking(results[1].items,
                    Reference(prompts[1], /*beam=*/8, /*top_n=*/6));
}

}  // namespace
}  // namespace lcrec::llm

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "llm/generate.h"
#include "llm/minillm.h"
#include "llm/trainer.h"
#include "quant/indexing.h"
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

TEST(MiniLlm, LogitsShape) {
  MiniLlm model(TinyConfig());
  core::Graph g;
  core::VarId logits = model.BuildLogits(g, {4, 5, 6}, false);
  EXPECT_EQ(g.val(logits).rows(), 3);
  EXPECT_EQ(g.val(logits).cols(), 40);
}

TEST(MiniLlm, CausalityFutureTokensDoNotAffectPastLogits) {
  MiniLlm model(TinyConfig());
  core::Graph g1, g2;
  core::VarId a = model.BuildLogits(g1, {4, 5, 6, 7}, false);
  core::VarId b = model.BuildLogits(g2, {4, 5, 6, 9}, false);  // last differs
  // Logits at positions 0..2 must be identical.
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 40; ++j) {
      EXPECT_FLOAT_EQ(g1.val(a).at(i, j), g2.val(b).at(i, j))
          << "position " << i;
    }
  }
}

TEST(MiniLlm, KvCacheForwardMatchesGraphForward) {
  MiniLlm model(TinyConfig());
  std::vector<int> tokens = {4, 17, 8, 22, 5, 31};
  core::Graph g;
  core::VarId logits = model.BuildLogits(g, tokens, false);
  // Incremental forward, one token at a time.
  MiniLlm::KvCache cache = model.MakeCache();
  for (size_t t = 0; t < tokens.size(); ++t) {
    core::Tensor step = model.Forward(cache, {tokens[t]});
    for (int64_t j = 0; j < 40; ++j) {
      EXPECT_NEAR(step.at(j), g.val(logits).at(static_cast<int64_t>(t), j),
                  1e-3f)
          << "pos " << t << " tok " << j;
    }
  }
}

TEST(MiniLlm, KvCacheChunkedEqualsTokenByToken) {
  MiniLlm model(TinyConfig());
  std::vector<int> tokens = {4, 17, 8, 22, 5};
  MiniLlm::KvCache c1 = model.MakeCache();
  core::Tensor chunked = model.Forward(c1, tokens);
  MiniLlm::KvCache c2 = model.MakeCache();
  core::Tensor last;
  for (int tok : tokens) last = model.Forward(c2, {tok});
  for (int64_t j = 0; j < 40; ++j) {
    EXPECT_NEAR(chunked.at(j), last.at(j), 1e-4f);
  }
  EXPECT_EQ(c1.length, c2.length);
}

TEST(MiniLlm, NumParametersPositiveAndTied) {
  MiniLlm model(TinyConfig());
  // Tied head: vocab*d (embeddings) counted once.
  int64_t expected_emb = 40 * 16 + 64 * 16;  // tok + pos
  EXPECT_GT(model.NumParameters(), expected_emb);
  EXPECT_EQ(model.TokenEmbeddings().rows(), 40);
}

TEST(Trainer, AssembleTokensMasksPrompt) {
  TrainExample ex;
  ex.prompt = {10, 11, 12};
  ex.response = {20, 21};
  std::vector<int> tokens, targets;
  LlmTrainer::AssembleTokens(ex, 64, &tokens, &targets);
  // tokens: <bos> 10 11 12 20 21 <eos>
  ASSERT_EQ(tokens.size(), 7u);
  EXPECT_EQ(tokens[0], text::Vocabulary::kBos);
  EXPECT_EQ(tokens[6], text::Vocabulary::kEos);
  // Positions 0..2 (predicting prompt) ignored; 3 predicts 20; 4 predicts
  // 21; 5 predicts eos; 6 (last) ignored.
  EXPECT_EQ(targets[0], core::Graph::kIgnore);
  EXPECT_EQ(targets[2], core::Graph::kIgnore);
  EXPECT_EQ(targets[3], 20);
  EXPECT_EQ(targets[4], 21);
  EXPECT_EQ(targets[5], text::Vocabulary::kEos);
  EXPECT_EQ(targets[6], core::Graph::kIgnore);
}

TEST(Trainer, AssembleTokensTruncatesLongPromptFromLeft) {
  TrainExample ex;
  for (int i = 0; i < 100; ++i) ex.prompt.push_back(10 + i);
  ex.response = {5, 6};
  std::vector<int> tokens, targets;
  LlmTrainer::AssembleTokens(ex, 32, &tokens, &targets);
  EXPECT_LE(tokens.size(), 32u);
  // The most recent prompt tokens survive.
  EXPECT_EQ(tokens[1], 10 + 100 - (32 - 4));
  EXPECT_EQ(tokens[tokens.size() - 3], 5);
}

TEST(Trainer, LossDecreasesOnTinyTask) {
  // Memorize: prompt {4} -> response {5}; prompt {6} -> response {7}.
  MiniLlm model(TinyConfig(16));
  std::vector<TrainExample> data = {
      {{4}, {5}, "t"}, {{6}, {7}, "t"}, {{8}, {9}, "t"}, {{10}, {11}, "t"}};
  TrainerOptions opt;
  opt.epochs = 80;
  opt.batch_size = 2;
  opt.learning_rate = 5e-3f;
  LlmTrainer trainer(&model, opt);
  float before = trainer.EvalLoss(data);
  trainer.Train(data);
  float after = trainer.EvalLoss(data);
  EXPECT_LT(after, before * 0.3f);
}

TEST(Trainer, TrainedModelGeneratesMemorizedResponse) {
  MiniLlm model(TinyConfig(16));
  std::vector<TrainExample> data = {
      {{4}, {5}, "t"}, {{6}, {7}, "t"}, {{8}, {9}, "t"}, {{10}, {11}, "t"}};
  TrainerOptions opt;
  opt.epochs = 80;
  opt.batch_size = 4;
  opt.learning_rate = 5e-3f;
  LlmTrainer trainer(&model, opt);
  trainer.Train(data);
  std::vector<int> gen =
      GenerateText(model, {text::Vocabulary::kBos, 6}, 4,
                   text::Vocabulary::kEos);
  ASSERT_FALSE(gen.empty());
  EXPECT_EQ(gen[0], 7);
}

class ConstrainedGenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::Rng rng(5);
    indexing_ = quant::ItemIndexing::Random(12, 3, 4, rng);
    trie_ = std::make_unique<quant::PrefixTrie>(indexing_);
    // Register all index tokens in the vocabulary.
    for (const std::string& tok : indexing_.AllTokenStrings()) {
      vocab_.AddToken(tok);
    }
    MiniLlmConfig cfg = TinyConfig(vocab_.size());
    model_ = std::make_unique<MiniLlm>(cfg);
    token_map_ = std::make_unique<IndexTokenMap>(indexing_, vocab_);
  }

  text::Vocabulary vocab_;
  quant::ItemIndexing indexing_ = quant::ItemIndexing::VanillaId(1);
  std::unique_ptr<quant::PrefixTrie> trie_;
  std::unique_ptr<MiniLlm> model_;
  std::unique_ptr<IndexTokenMap> token_map_;
};

TEST_F(ConstrainedGenTest, GeneratesOnlyValidItems) {
  auto results = GenerateItems(*model_, {text::Vocabulary::kBos}, *trie_,
                               *token_map_, /*beam=*/8, /*top_n=*/8);
  ASSERT_FALSE(results.empty());
  std::set<int> seen;
  for (const ScoredItem& r : results) {
    EXPECT_GE(r.item, 0);
    EXPECT_LT(r.item, 12);
    EXPECT_TRUE(seen.insert(r.item).second) << "duplicate item";
    EXPECT_LE(r.logprob, 0.0f);
  }
}

TEST_F(ConstrainedGenTest, ScoresAreSorted) {
  auto results = GenerateItems(*model_, {text::Vocabulary::kBos}, *trie_,
                               *token_map_, 12, 12);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].logprob, results[i].logprob);
  }
}

TEST_F(ConstrainedGenTest, BeamWiderFindsAtLeastAsGoodTop1) {
  auto narrow = GenerateItems(*model_, {text::Vocabulary::kBos}, *trie_,
                              *token_map_, 1, 1);
  auto wide = GenerateItems(*model_, {text::Vocabulary::kBos}, *trie_,
                            *token_map_, 12, 1);
  ASSERT_FALSE(narrow.empty());
  ASSERT_FALSE(wide.empty());
  EXPECT_GE(wide[0].logprob, narrow[0].logprob - 1e-5f);
}

TEST_F(ConstrainedGenTest, UntrainedModelStillProducesBeamManyItems) {
  auto results = GenerateItems(*model_, {text::Vocabulary::kBos}, *trie_,
                               *token_map_, 6, 6);
  EXPECT_EQ(results.size(), 6u);
}

TEST_F(ConstrainedGenTest, ScoreContinuationMatchesManualSum) {
  std::vector<int> prompt = {text::Vocabulary::kBos};
  std::vector<int> cont = token_map_->ItemTokenIds(indexing_, 3);
  float score = ScoreContinuation(*model_, prompt, cont);
  EXPECT_LT(score, 0.0f);
  // Greedy sanity: total of per-step max logprobs bounds any continuation.
  EXPECT_GT(score, -100.0f);
}

TEST_F(ConstrainedGenTest, TrainingMakesTargetItemWin) {
  // Teach the model: <bos> -> item 5's code tokens. After training, item 5
  // must rank first in constrained generation.
  std::vector<int> target_tokens = token_map_->ItemTokenIds(indexing_, 5);
  std::vector<TrainExample> data(8, TrainExample{{}, target_tokens, "seq"});
  TrainerOptions opt;
  opt.epochs = 30;
  opt.batch_size = 4;
  opt.learning_rate = 5e-3f;
  LlmTrainer trainer(model_.get(), opt);
  trainer.Train(data);
  auto results = GenerateItems(*model_, {text::Vocabulary::kBos}, *trie_,
                               *token_map_, 4, 1);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].item, 5);
}

}  // namespace
}  // namespace lcrec::llm

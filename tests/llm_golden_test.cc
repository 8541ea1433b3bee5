// Golden outputs of trie-constrained beam search. Each case pins the
// ranked (item, logprob bit pattern) list for a fixed model seed, prompt
// and beam width. The tables were recorded from the sequential decoder
// (one Forward per beam, tests/reference_decode.h) before decoding moved
// onto llm::BatchEngine, so they hold the public decode entry points to
// the exact fp32 results of that search: a change to the model step, the
// candidate scoring, the ordering contract or the pruning rule shows up
// here as a changed bit, not as a drift inside a tolerance.
//
// On a mismatch the test prints the actual table as a C++ literal.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "llm/batch.h"
#include "llm/generate.h"
#include "llm/minillm.h"
#include "quant/indexing.h"
#include "tests/reference_decode.h"
#include "text/vocab.h"

namespace lcrec::llm {
namespace {

struct Golden {
  int item;
  uint32_t bits;  // std::bit_cast<uint32_t>(logprob)
};

std::string Literal(const std::vector<ScoredItem>& got) {
  std::string s = "{";
  for (size_t i = 0; i < got.size(); ++i) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s{%d, 0x%08Xu}", i == 0 ? "" : ", ",
                  got[i].item, std::bit_cast<uint32_t>(got[i].logprob));
    s += buf;
  }
  return s + "}";
}

void ExpectGolden(const std::vector<ScoredItem>& got,
                  const std::vector<Golden>& want, const std::string& what) {
  bool same = got.size() == want.size();
  for (size_t i = 0; same && i < got.size(); ++i) {
    same = got[i].item == want[i].item &&
           std::bit_cast<uint32_t>(got[i].logprob) == want[i].bits;
  }
  EXPECT_TRUE(same) << what << " decoded " << Literal(got);
}

/// A 40-item, 3-level, 5-code random indexing (beam 20 prunes at every
/// level) over a small model with the given seed.
class GoldenDecode {
 public:
  explicit GoldenDecode(uint64_t model_seed) {
    core::Rng rng(5);
    indexing_ = quant::ItemIndexing::Random(40, 3, 5, rng);
    trie_ = std::make_unique<quant::PrefixTrie>(indexing_);
    for (const std::string& tok : indexing_.AllTokenStrings()) {
      vocab_.AddToken(tok);
    }
    MiniLlmConfig cfg;
    cfg.vocab_size = vocab_.size();
    cfg.d_model = 16;
    cfg.n_heads = 2;
    cfg.n_layers = 2;
    cfg.d_ff = 32;
    cfg.max_seq = 64;
    cfg.seed = model_seed;
    model_ = std::make_unique<MiniLlm>(cfg);
    token_map_ = std::make_unique<IndexTokenMap>(indexing_, vocab_);
  }

  /// The public one-request decoder and the test reference, both checked
  /// against the same table.
  void Expect(const std::vector<int>& prompt, int beam, int top_n,
              const std::vector<Golden>& want, const std::string& what) {
    ExpectGolden(GenerateItems(*model_, prompt, *trie_, *token_map_, beam,
                               top_n),
                 want, what + " GenerateItems");
    ExpectGolden(testing::ReferenceGenerateItems(*model_, prompt, *trie_,
                                                 *token_map_, beam, top_n),
                 want, what + " reference");
  }

  MiniLlm& model() { return *model_; }
  const quant::PrefixTrie& trie() const { return *trie_; }
  const IndexTokenMap& token_map() const { return *token_map_; }

 private:
  text::Vocabulary vocab_;
  quant::ItemIndexing indexing_ = quant::ItemIndexing::VanillaId(1);
  std::unique_ptr<quant::PrefixTrie> trie_;
  std::unique_ptr<MiniLlm> model_;
  std::unique_ptr<IndexTokenMap> token_map_;
};

constexpr int kBos = text::Vocabulary::kBos;

TEST(GoldenDecode, Seed3PromptsAtBeams2And8And20) {
  GoldenDecode d(3);
  d.Expect({kBos}, 2, 10,
           {{0, 0xC1070472u}, {20, 0xC10853C1u}},
           "bos beam 2");
  d.Expect({kBos}, 8, 10,
           {{0, 0xC1070472u}, {20, 0xC10853C1u}, {31, 0xC1089528u},
            {21, 0xC108C2BBu}, {8, 0xC1091DF8u}, {11, 0xC109F988u},
            {7, 0xC10A0DD0u}, {13, 0xC10A56A0u}},
           "bos beam 8");
  d.Expect({kBos}, 20, 10,
           {{0, 0xC1070472u}, {20, 0xC10853C1u}, {31, 0xC1089528u},
            {21, 0xC108C2BBu}, {8, 0xC1091DF8u}, {11, 0xC109F988u},
            {7, 0xC10A0DD0u}, {13, 0xC10A56A0u}, {19, 0xC10A68D4u},
            {36, 0xC10AC673u}},
           "bos beam 20");
  d.Expect({kBos, 4}, 2, 10,
           {{32, 0xC10AF2D2u}, {19, 0xC10C3262u}},
           "bos,4 beam 2");
  d.Expect({kBos, 4}, 8, 10,
           {{10, 0xC10A9814u}, {15, 0xC10AD9C2u}, {32, 0xC10AF2D2u},
            {18, 0xC10B0058u}, {2, 0xC10B4746u}, {11, 0xC10B876Au},
            {20, 0xC10BC9FBu}, {7, 0xC10BD4E4u}},
           "bos,4 beam 8");
  d.Expect({kBos, 4}, 20, 10,
           {{10, 0xC10A9814u}, {15, 0xC10AD9C2u}, {32, 0xC10AF2D2u},
            {18, 0xC10B0058u}, {2, 0xC10B4746u}, {11, 0xC10B876Au},
            {20, 0xC10BC9FBu}, {7, 0xC10BD4E4u}, {19, 0xC10C3262u},
            {0, 0xC10C3D85u}},
           "bos,4 beam 20");
  d.Expect({kBos, 5, 6}, 2, 10,
           {{32, 0xC10AE6E8u}, {19, 0xC10B292Du}},
           "bos,5,6 beam 2");
  d.Expect({kBos, 5, 6}, 8, 10,
           {{20, 0xC10A0B64u}, {10, 0xC10A2B08u}, {13, 0xC10AD7FEu},
            {8, 0xC10AD9F6u}, {32, 0xC10AE6E8u}, {15, 0xC10B19D9u},
            {19, 0xC10B292Du}, {31, 0xC10B84F7u}},
           "bos,5,6 beam 8");
  d.Expect({kBos, 5, 6}, 20, 10,
           {{20, 0xC10A0B64u}, {10, 0xC10A2B08u}, {13, 0xC10AD7FEu},
            {8, 0xC10AD9F6u}, {32, 0xC10AE6E8u}, {15, 0xC10B19D9u},
            {19, 0xC10B292Du}, {27, 0xC10B7FBBu}, {31, 0xC10B84F7u},
            {21, 0xC10B9F5Au}},
           "bos,5,6 beam 20");
  d.Expect({kBos, 7, 4, 5}, 2, 10,
           {{19, 0xC10B56C4u}, {32, 0xC10C00A5u}},
           "bos,7,4,5 beam 2");
  d.Expect({kBos, 7, 4, 5}, 8, 10,
           {{18, 0xC10AFCD7u}, {19, 0xC10B56C4u}, {10, 0xC10B922Au},
            {20, 0xC10BC948u}, {32, 0xC10C00A5u}, {15, 0xC10C217Du},
            {12, 0xC10C3851u}, {36, 0xC10D49C1u}},
           "bos,7,4,5 beam 8");
  d.Expect({kBos, 7, 4, 5}, 20, 10,
           {{18, 0xC10AFCD7u}, {19, 0xC10B56C4u}, {10, 0xC10B922Au},
            {20, 0xC10BC948u}, {35, 0xC10BFDA6u}, {32, 0xC10C00A5u},
            {15, 0xC10C217Du}, {12, 0xC10C3851u}, {22, 0xC10CBE4Eu},
            {5, 0xC10D1547u}},
           "bos,7,4,5 beam 20");
}

TEST(GoldenDecode, Seed17PromptsAtBeams2And8And20) {
  GoldenDecode d(17);
  d.Expect({kBos, 9}, 2, 10,
           {{6, 0xC10C30B5u}, {0, 0xC10D957Au}},
           "bos,9 beam 2");
  d.Expect({kBos, 9}, 8, 10,
           {{38, 0xC10B6E52u}, {27, 0xC10B7D16u}, {15, 0xC10C1036u},
            {34, 0xC10C2091u}, {6, 0xC10C30B5u}, {5, 0xC10C6FECu},
            {24, 0xC10C8FD6u}, {37, 0xC10C9460u}},
           "bos,9 beam 8");
  d.Expect({kBos, 9}, 20, 10,
           {{38, 0xC10B6E52u}, {27, 0xC10B7D16u}, {15, 0xC10C1036u},
            {34, 0xC10C2091u}, {6, 0xC10C30B5u}, {5, 0xC10C6FECu},
            {24, 0xC10C8FD6u}, {37, 0xC10C9460u}, {33, 0xC10CE835u},
            {10, 0xC10CF428u}},
           "bos,9 beam 20");
  d.Expect({kBos, 6, 6, 8, 5}, 2, 10,
           {{31, 0xC1090512u}, {39, 0xC109EAC4u}},
           "bos,6,6,8,5 beam 2");
  d.Expect({kBos, 6, 6, 8, 5}, 8, 10,
           {{31, 0xC1090512u}, {39, 0xC109EAC4u}, {10, 0xC10A24F2u},
            {13, 0xC10A7637u}, {22, 0xC10A8DB1u}, {4, 0xC10A9149u},
            {8, 0xC10B06B4u}, {23, 0xC10B2F72u}},
           "bos,6,6,8,5 beam 8");
  d.Expect({kBos, 6, 6, 8, 5}, 20, 10,
           {{31, 0xC1090512u}, {39, 0xC109EAC4u}, {10, 0xC10A24F2u},
            {13, 0xC10A7637u}, {22, 0xC10A8DB1u}, {4, 0xC10A9149u},
            {8, 0xC10B06B4u}, {23, 0xC10B2F72u}, {28, 0xC10B5A40u},
            {21, 0xC10B5D37u}},
           "bos,6,6,8,5 beam 20");
}

TEST(GoldenDecode, ZeroedEmbeddingsRankByTieBreakOnly) {
  // Every logit is exactly 0, so every candidate ties and the ranking is
  // the tie-break contract alone (beam, then code, then item id).
  GoldenDecode d(3);
  core::Parameter* emb = d.model().params().Find("tok_emb");
  ASSERT_NE(emb, nullptr);
  for (int64_t i = 0; i < emb->value.size(); ++i) emb->value.at(i) = 0.0f;
  d.Expect({kBos}, 8, 12,
           {{14, 0xC10D5544u}, {16, 0xC10D5544u}, {22, 0xC10D5544u},
            {26, 0xC10D5544u}, {28, 0xC10D5544u}, {29, 0xC10D5544u},
            {30, 0xC10D5544u}, {33, 0xC10D5544u}},
           "tied beam 8");
  d.Expect({kBos, 4}, 20, 12,
           {{0, 0xC10D5544u}, {2, 0xC10D5544u}, {10, 0xC10D5544u},
            {11, 0xC10D5544u}, {12, 0xC10D5544u}, {14, 0xC10D5544u},
            {15, 0xC10D5544u}, {16, 0xC10D5544u}, {18, 0xC10D5544u},
            {19, 0xC10D5544u}, {20, 0xC10D5544u}, {22, 0xC10D5544u}},
           "tied beam 20");
}

TEST(GoldenDecode, BeamCappedLaneNextToAFullLane) {
  // A beam_cap=2 lane decodes as the beam-2 search, and the full-width
  // lane sharing its ticks is unperturbed.
  GoldenDecode d(3);
  BatchEngine engine(d.model(), d.trie(), d.token_map(), /*beam=*/8);
  LaneOptions capped;
  capped.beam_cap = 2;
  engine.Admit(0, {kBos, 5, 6}, 10, capped);
  engine.Admit(1, {kBos, 7, 4, 5}, 10);
  std::vector<BatchResult> results(2);
  while (!engine.Idle()) {
    for (BatchResult& r : engine.Tick()) results[r.tag] = std::move(r);
  }
  EXPECT_EQ(results[0].beam_used, 2);
  EXPECT_EQ(results[1].beam_used, 8);
  ExpectGolden(results[0].items,
               {{32, 0xC10AE6E8u}, {19, 0xC10B292Du}},
               "capped lane");
  ExpectGolden(results[1].items,
               {{18, 0xC10AFCD7u}, {19, 0xC10B56C4u}, {10, 0xC10B922Au},
                {20, 0xC10BC948u}, {32, 0xC10C00A5u}, {15, 0xC10C217Du},
                {12, 0xC10C3851u}, {36, 0xC10D49C1u}},
               "full lane");
}

}  // namespace
}  // namespace lcrec::llm

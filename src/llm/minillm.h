#ifndef LCREC_LLM_MINILLM_H_
#define LCREC_LLM_MINILLM_H_

#include <memory>
#include <vector>

#include "core/graph.h"
#include "core/rng.h"
#include "core/tensor.h"

namespace lcrec::llm {

struct MiniLlmConfig {
  int vocab_size = 0;   // set after the tokenizer (text + index tokens)
  int d_model = 48;
  int n_heads = 4;
  int n_layers = 2;
  int d_ff = 128;
  int max_seq = 192;
  float dropout = 0.0f;
  uint64_t seed = 23;
};

/// Decoder-only Transformer language model, the stand-in for the paper's
/// LLaMA-7B backbone. Architecture follows LLaMA's recipe at small scale:
/// pre-RMSNorm, multi-head causal self-attention, SwiGLU feed-forward,
/// learned absolute positions, and weight tying between the input
/// embedding and the output projection (so item-index token embeddings —
/// the ones visualized in Figure 4 — receive gradient from both sides).
class MiniLlm {
 public:
  explicit MiniLlm(const MiniLlmConfig& config);

  MiniLlm(const MiniLlm&) = delete;
  MiniLlm& operator=(const MiniLlm&) = delete;

  /// Builds the training graph for one token sequence and returns the
  /// scalar NLL loss var (Eq. 7). `targets[i]` is the token to predict at
  /// position i (usually tokens[i+1]) or Graph::kIgnore.
  core::VarId BuildLoss(core::Graph& g, const std::vector<int>& tokens,
                        const std::vector<int>& targets, bool train);

  /// Autograd forward producing logits [T, vocab] (used by tests and by
  /// BuildLoss).
  core::VarId BuildLogits(core::Graph& g, const std::vector<int>& tokens,
                          bool train);

  /// Incremental-decoding cache: per-layer K/V rows appended per token.
  struct KvCache {
    int length = 0;
    std::vector<std::vector<float>> k;  // [layer][length * d_model]
    std::vector<std::vector<float>> v;
  };

  KvCache MakeCache() const;

  /// Plain (non-autograd) forward of `tokens` continuing `cache`; returns
  /// the [1, vocab] logits after the last fed token. A one-lane
  /// ForwardBatch, so it matches BuildLogits within float tolerance
  /// (asserted in tests).
  core::Tensor Forward(KvCache& cache, const std::vector<int>& tokens) const;

  /// The decode model step: advances every lane's cache by its token list
  /// and returns one [1, vocab] logits tensor per lane (the logits after
  /// that lane's last fed token). Lanes may have different lengths
  /// (ragged prefill next to single-token decode); processing is
  /// step-synchronous, so the weight matrices are traversed once per step
  /// for all lanes instead of once per lane. A lane's arithmetic does not
  /// depend on the other lanes, so its logits are bit-identical to
  /// running it alone (asserted in tests; batched serving relies on it).
  std::vector<core::Tensor> ForwardBatch(
      const std::vector<KvCache*>& caches,
      const std::vector<std::vector<int>>& tokens) const;

  /// Token embedding matrix [vocab, d_model] (tied with output head).
  const core::Tensor& TokenEmbeddings() const { return tok_emb_->value; }

  core::ParamStore& params() { return store_; }
  /// Dropout rng — checkpointed by the trainer so resumed runs replay the
  /// same dropout masks.
  core::Rng& rng() { return rng_; }
  const MiniLlmConfig& config() const { return config_; }
  int64_t NumParameters() const { return store_.TotalSize(); }

 private:
  struct Layer {
    core::Parameter* attn_norm;
    core::Parameter* wq;
    core::Parameter* wk;
    core::Parameter* wv;
    core::Parameter* wo;
    core::Parameter* ffn_norm;
    core::Parameter* w1;  // SwiGLU gate
    core::Parameter* w3;  // SwiGLU up
    core::Parameter* w2;  // SwiGLU down
  };

  MiniLlmConfig config_;
  core::Rng rng_;
  core::ParamStore store_;
  core::Parameter* tok_emb_;
  core::Parameter* pos_emb_;
  core::Parameter* final_norm_;
  std::vector<Layer> layers_;
};

}  // namespace lcrec::llm

#endif  // LCREC_LLM_MINILLM_H_

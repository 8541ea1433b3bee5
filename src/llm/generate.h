#ifndef LCREC_LLM_GENERATE_H_
#define LCREC_LLM_GENERATE_H_

#include <unordered_map>
#include <vector>

#include "llm/minillm.h"
#include "quant/indexing.h"
#include "text/vocab.h"

namespace lcrec::llm {

/// Maps (level, code) pairs of an ItemIndexing to LLM vocabulary token
/// ids. The index tokens must already be registered in the vocabulary.
class IndexTokenMap {
 public:
  IndexTokenMap(const quant::ItemIndexing& indexing,
                const text::Vocabulary& vocab);

  /// Vocabulary id of the token for (level, code), or -1 if unknown.
  int TokenId(int level, int code) const;

  /// Encodes an item's code sequence into vocabulary token ids.
  std::vector<int> ItemTokenIds(const quant::ItemIndexing& indexing,
                                int item) const;

  int levels() const { return static_cast<int>(maps_.size()); }

 private:
  std::vector<std::unordered_map<int, int>> maps_;  // per level: code -> id
};

struct ScoredItem {
  int item = -1;
  float logprob = 0.0f;
};

/// One candidate expansion of a beam during constrained search
/// (BatchEngine::Tick).
struct BeamCandidate {
  int beam = 0;   // index into the active beam set
  int code = 0;   // trie code being appended
  int token = 0;  // vocabulary id of that code's token
  float logp = 0.0f;
};

/// The deterministic ordering contract of constrained decoding (the
/// engine and the tests' reference decoder both sort by it). Log-prob
/// ties are broken structurally (parent beam, then code / item id),
/// never by allocation, lane, or sort-implementation order.
inline bool BeamCandidateOrder(const BeamCandidate& a,
                               const BeamCandidate& b) {
  if (a.logp != b.logp) return a.logp > b.logp;
  if (a.beam != b.beam) return a.beam < b.beam;
  return a.code < b.code;
}

inline bool ScoredItemOrder(const ScoredItem& a, const ScoredItem& b) {
  if (a.logprob != b.logprob) return a.logprob > b.logprob;
  return a.item < b.item;
}

/// log softmax normalizer of a [1, vocab] logits row (candidate scoring
/// and teacher-forced scoring).
float LogSumExp(const core::Tensor& logits);

/// Trie-constrained beam search over item-index tokens (Section III-D2):
/// at every step, only tokens continuing a valid item prefix keep their
/// probability; everything else is masked. Returns up to `top_n` complete
/// items ranked by sequence log-probability. Runs a one-lane BatchEngine
/// (llm/batch.h), so its rankings equal the batched server's bit for bit.
std::vector<ScoredItem> GenerateItems(const MiniLlm& model,
                                      const std::vector<int>& prompt,
                                      const quant::PrefixTrie& trie,
                                      const IndexTokenMap& token_map,
                                      int beam_size = 20, int top_n = 10);

/// Total log-likelihood of `continuation` given `prompt` (teacher-forced),
/// used for the pairwise ranking probes of Table V.
float ScoreContinuation(const MiniLlm& model, const std::vector<int>& prompt,
                        const std::vector<int>& continuation);

/// Greedy free-text generation until `eos_id` or `max_new` tokens; returns
/// the generated ids (without the prompt, without eos). Used by the case
/// studies of Figures 5-6.
std::vector<int> GenerateText(const MiniLlm& model,
                              const std::vector<int>& prompt, int max_new,
                              int eos_id);

}  // namespace lcrec::llm

#endif  // LCREC_LLM_GENERATE_H_

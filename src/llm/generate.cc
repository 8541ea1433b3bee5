#include "llm/generate.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "llm/batch.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace lcrec::llm {

namespace {

/// Per-call metric handles of constrained decoding; the rest of the
/// lcrec.llm.gen.* family is recorded by BatchEngine.
struct GenMetrics {
  obs::Histogram& latency_ms;
  obs::Counter& queries;

  static GenMetrics& Get() {
    static GenMetrics* m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
      return new GenMetrics{
          r.GetHistogram("lcrec.llm.gen.latency_ms",
                         obs::Histogram::ExponentialBounds(0.1, 1.6, 28)),
          r.GetCounter("lcrec.llm.gen.queries"),
      };
    }();
    return *m;
  }
};

}  // namespace

float LogSumExp(const core::Tensor& logits) {
  int64_t n = logits.size();
  float mx = logits.at(0);
  for (int64_t i = 1; i < n; ++i) mx = std::max(mx, logits.at(i));
  double z = 0.0;
  for (int64_t i = 0; i < n; ++i) z += std::exp(logits.at(i) - mx);
  return mx + static_cast<float>(std::log(z));
}

IndexTokenMap::IndexTokenMap(const quant::ItemIndexing& indexing,
                             const text::Vocabulary& vocab) {
  for (int item = 0; item < indexing.num_items(); ++item) {
    const auto& codes = indexing.codes(item);
    if (maps_.size() < codes.size()) maps_.resize(codes.size());
    for (size_t level = 0; level < codes.size(); ++level) {
      std::string tok = quant::ItemIndexing::TokenString(
          static_cast<int>(level), codes[level]);
      // Index tokens must be in the vocabulary.
      LCREC_CHECK(vocab.Contains(tok));
      maps_[level][codes[level]] = vocab.Id(tok);
    }
  }
}

int IndexTokenMap::TokenId(int level, int code) const {
  if (level < 0 || level >= static_cast<int>(maps_.size())) return -1;
  auto it = maps_[level].find(code);
  return it == maps_[level].end() ? -1 : it->second;
}

std::vector<int> IndexTokenMap::ItemTokenIds(
    const quant::ItemIndexing& indexing, int item) const {
  const auto& codes = indexing.codes(item);
  std::vector<int> out;
  out.reserve(codes.size());
  for (size_t level = 0; level < codes.size(); ++level) {
    int id = TokenId(static_cast<int>(level), codes[level]);
    LCREC_CHECK_GE(id, 0);
    out.push_back(id);
  }
  return out;
}

std::vector<ScoredItem> GenerateItems(const MiniLlm& model,
                                      const std::vector<int>& prompt,
                                      const quant::PrefixTrie& trie,
                                      const IndexTokenMap& token_map,
                                      int beam_size, int top_n) {
  obs::ScopedSpan span("llm.generate_items");
  std::vector<ScoredItem> items =
      DecodeLane(model, trie, token_map, beam_size, prompt, top_n).items;
  GenMetrics& gm = GenMetrics::Get();
  gm.queries.Increment();
  gm.latency_ms.Observe(span.ElapsedMs());
  return items;
}

float ScoreContinuation(const MiniLlm& model, const std::vector<int>& prompt,
                        const std::vector<int>& continuation) {
  LCREC_CHECK(!prompt.empty());
  LCREC_CHECK(!continuation.empty());
  MiniLlm::KvCache cache = model.MakeCache();
  core::Tensor logits = model.Forward(cache, prompt);
  float total = 0.0f;
  for (size_t i = 0; i < continuation.size(); ++i) {
    total += logits.at(continuation[i]) - LogSumExp(logits);
    if (i + 1 < continuation.size()) {
      logits = model.Forward(cache, {continuation[i]});
    }
  }
  return total;
}

std::vector<int> GenerateText(const MiniLlm& model,
                              const std::vector<int>& prompt, int max_new,
                              int eos_id) {
  LCREC_CHECK(!prompt.empty());
  MiniLlm::KvCache cache = model.MakeCache();
  core::Tensor logits = model.Forward(cache, prompt);
  std::vector<int> out;
  for (int step = 0; step < max_new; ++step) {
    int best = 0;
    for (int64_t i = 1; i < logits.size(); ++i) {
      if (logits.at(i) > logits.at(best)) best = static_cast<int>(i);
    }
    if (best == eos_id) break;
    out.push_back(best);
    if (step + 1 < max_new && cache.length + 1 <= model.config().max_seq) {
      logits = model.Forward(cache, {best});
    } else {
      break;
    }
  }
  return out;
}

}  // namespace lcrec::llm

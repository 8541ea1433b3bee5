#ifndef LCREC_TESTS_REFERENCE_DECODE_H_
#define LCREC_TESTS_REFERENCE_DECODE_H_

#include <algorithm>
#include <vector>

#include "llm/generate.h"
#include "llm/minillm.h"
#include "quant/indexing.h"

namespace lcrec::testing {

/// Test-only reference for trie-constrained beam search: the plain
/// sequential decoder, one beam and one MiniLlm::Forward at a time, with
/// every beam owning a full copy of its KV cache. The library decodes
/// through llm::BatchEngine only; tests compare its rankings (items and
/// logprob bits) against this loop, which shares nothing with the engine
/// except the model step and the ordering contract in llm/generate.h.
inline std::vector<llm::ScoredItem> ReferenceGenerateItems(
    const llm::MiniLlm& model, const std::vector<int>& prompt,
    const quant::PrefixTrie& trie, const llm::IndexTokenMap& token_map,
    int beam_size, int top_n) {
  struct Beam {
    std::vector<int> codes;
    float logp = 0.0f;
    llm::MiniLlm::KvCache cache;
    core::Tensor logits;  // [1, vocab] after the last fed token
  };

  Beam root;
  root.cache = model.MakeCache();
  root.logits = model.Forward(root.cache, prompt);
  std::vector<Beam> active;
  active.push_back(std::move(root));
  std::vector<llm::ScoredItem> done;

  int max_depth = token_map.levels();
  for (int depth = 0; depth < max_depth && !active.empty(); ++depth) {
    std::vector<llm::BeamCandidate> candidates;
    for (size_t b = 0; b < active.size(); ++b) {
      Beam& beam = active[b];
      std::vector<int> next = trie.NextCodes(beam.codes);
      float lse = llm::LogSumExp(beam.logits);
      int level = static_cast<int>(beam.codes.size());
      for (int code : next) {
        int tok = token_map.TokenId(level, code);
        if (tok < 0) continue;
        float lp = beam.logp + (beam.logits.at(tok) - lse);
        candidates.push_back({static_cast<int>(b), code, tok, lp});
      }
    }
    std::sort(candidates.begin(), candidates.end(), llm::BeamCandidateOrder);
    if (static_cast<int>(candidates.size()) > beam_size) {
      candidates.resize(static_cast<size_t>(beam_size));
    }
    std::vector<Beam> next_active;
    for (const llm::BeamCandidate& c : candidates) {
      Beam child;
      child.codes = active[static_cast<size_t>(c.beam)].codes;
      child.codes.push_back(c.code);
      child.logp = c.logp;
      child.cache = active[static_cast<size_t>(c.beam)].cache;  // copy
      child.logits = model.Forward(child.cache, {c.token});
      int item = trie.ItemAt(child.codes);
      if (item >= 0 && trie.NextCodes(child.codes).empty()) {
        done.push_back({item, child.logp});
      } else {
        next_active.push_back(std::move(child));
      }
    }
    active = std::move(next_active);
  }
  std::sort(done.begin(), done.end(), llm::ScoredItemOrder);
  if (static_cast<int>(done.size()) > top_n) {
    done.resize(static_cast<size_t>(top_n));
  }
  return done;
}

}  // namespace lcrec::testing

#endif  // LCREC_TESTS_REFERENCE_DECODE_H_

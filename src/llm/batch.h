#ifndef LCREC_LLM_BATCH_H_
#define LCREC_LLM_BATCH_H_

#include <cstdint>
#include <vector>

#include "llm/generate.h"
#include "llm/minillm.h"
#include "quant/indexing.h"

namespace lcrec::llm {

/// Result of one finished decode lane, with its share of the batch cost:
/// every tick the lane was active charges it tick_duration/active_lanes,
/// so decode_us across concurrently-retired lanes sums to the engine's
/// actual forward time — the attribution the serving timeline reports.
struct BatchResult {
  uint64_t tag = 0;  // caller-supplied id from Admit()
  std::vector<ScoredItem> items;
  int ticks = 0;          // ticks this lane participated in
  double decode_us = 0.0; // fair-share decode time across those ticks
  /// True when the lane was retired at its deadline before the search
  /// completed: `items` holds whatever finished beams existed by then
  /// (possibly none). Deadline enforcement is tick-granular, so a lane
  /// overshoots its deadline by at most one tick.
  bool partial = false;
  int beam_used = 0;      // effective beam width the lane ran with
};

/// Per-lane knobs for Admit(). Defaults reproduce the unconstrained
/// engine exactly (no deadline, engine-wide beam).
struct LaneOptions {
  /// Absolute retire-by time (obs::NowMicros base). At the first tick
  /// that starts past this, the lane is retired with partial results.
  /// 0 = no deadline.
  double deadline_us = 0.0;
  /// Beam-width cap for this lane; 0 = the engine's beam_size. A capped
  /// lane trades recall for ticks — the budget-capped degrade tier.
  int beam_cap = 0;
};

/// Trie-constrained beam search (Section III-D2) as a continuous-batching
/// engine, and the only implementation of it: GenerateItems() and the
/// server's inline path run it with one lane. Every admitted request
/// becomes a lane holding its own beam set, and each Tick() runs ONE
/// batched model forward (MiniLlm::ForwardBatch) over the pending token
/// expansions of every lane, then advances each lane by one trie level
/// (or by its prompt prefill). Lanes finish independently and new lanes
/// can be admitted between any two ticks, so a long prefill never drains
/// the batch — the scheduler keeps the matmuls occupied with whatever
/// work exists (InferLLM-style request-level batching).
///
/// Per lane, candidates are scored against the lane's own logits,
/// ordered by BeamCandidateOrder, cut to the lane's beam width, and
/// finished items ranked by ScoredItemOrder; nothing depends on the
/// other lanes in the tick, so a lane's result is bit-identical to
/// decoding it alone (asserted in tests against a sequential reference
/// decoder and pinned golden outputs; the serving layer depends on it).
///
/// Not thread-safe: one thread drives Admit()/Tick() (the serve
/// scheduler or a one-lane caller).
class BatchEngine {
 public:
  BatchEngine(const MiniLlm& model, const quant::PrefixTrie& trie,
              const IndexTokenMap& token_map, int beam_size);

  /// Adds a decode lane, with a deadline budget and/or beam cap in
  /// `opts`. `tag` is an opaque caller id returned with the lane's
  /// BatchResult; `prompt` must be non-empty.
  void Admit(uint64_t tag, std::vector<int> prompt, int top_n,
             const LaneOptions& opts = {});

  int ActiveLanes() const { return static_cast<int>(lanes_.size()); }
  bool Idle() const { return lanes_.empty(); }

  /// Runs one batched forward over every lane's pending work and
  /// returns the lanes that completed their search this tick. No-op
  /// (empty result) when idle.
  std::vector<BatchResult> Tick();

 private:
  struct Beam {
    std::vector<int> codes;
    float logp = 0.0f;
    MiniLlm::KvCache cache;
    core::Tensor logits;  // [1, vocab] after the last fed token
  };
  struct Lane {
    uint64_t tag = 0;
    int top_n = 0;
    std::vector<int> prompt;  // fed on the lane's first tick
    bool prefilled = false;
    int depth = 0;
    int ticks = 0;           // tick-attribution accumulators (BatchResult)
    double decode_us = 0.0;
    double deadline_us = 0.0;  // absolute; 0 = none
    int beam = 0;              // effective beam width (<= engine beam)
    std::vector<Beam> active;
    std::vector<ScoredItem> done;
  };

  /// Sorts/caps `lane.done` and moves it into a BatchResult.
  BatchResult RetireLane(Lane& lane, bool partial);

  const MiniLlm& model_;
  const quant::PrefixTrie& trie_;
  const IndexTokenMap& token_map_;
  int beam_size_;
  int max_depth_;
  std::vector<Lane> lanes_;
};

/// Decodes one prompt on a private one-lane engine: Admit, then Tick
/// until idle. The engine's drive loop for callers that decode on their
/// own thread (GenerateItems, the server's inline fast path).
BatchResult DecodeLane(const MiniLlm& model, const quant::PrefixTrie& trie,
                       const IndexTokenMap& token_map, int beam_size,
                       std::vector<int> prompt, int top_n,
                       const LaneOptions& opts = {});

}  // namespace lcrec::llm

#endif  // LCREC_LLM_BATCH_H_

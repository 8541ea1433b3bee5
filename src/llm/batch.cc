#include "llm/batch.h"

#include <algorithm>
#include <utility>

#include "core/check.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace lcrec::llm {

namespace {

/// Cached metric handles for the engine's share of the constrained-decode
/// family (lcrec.llm.gen.*; GenerateItems records queries/latency_ms).
struct EngineMetrics {
  obs::Counter& ticks;
  obs::Counter& token_forwards;   // tokens fed to the model, prompts included
  obs::Counter& trie_mask_hits;   // (beam, code) expansions the trie allowed
  obs::Counter& beam_pruned;      // candidates dropped by the beam cap
  obs::Counter& retired;
  obs::Counter& partial;
  obs::Histogram& lanes_per_tick;

  static EngineMetrics& Get() {
    static EngineMetrics* m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
      return new EngineMetrics{
          r.GetCounter("lcrec.llm.gen.ticks"),
          r.GetCounter("lcrec.llm.gen.token_forwards"),
          r.GetCounter("lcrec.llm.gen.trie_mask_hits"),
          r.GetCounter("lcrec.llm.gen.beam_pruned"),
          r.GetCounter("lcrec.llm.gen.retired"),
          r.GetCounter("lcrec.llm.gen.partial"),
          r.GetHistogram("lcrec.llm.gen.lanes_per_tick",
                         obs::Histogram::LinearBounds(1.0, 32.0, 32)),
      };
    }();
    return *m;
  }
};

}  // namespace

BatchEngine::BatchEngine(const MiniLlm& model, const quant::PrefixTrie& trie,
                         const IndexTokenMap& token_map, int beam_size)
    : model_(model),
      trie_(trie),
      token_map_(token_map),
      beam_size_(beam_size),
      max_depth_(token_map.levels()) {
  LCREC_CHECK_GT(beam_size_, 0);
  LCREC_CHECK_GT(max_depth_, 0);
}

void BatchEngine::Admit(uint64_t tag, std::vector<int> prompt, int top_n,
                        const LaneOptions& opts) {
  LCREC_CHECK(!prompt.empty());
  LCREC_CHECK_GT(top_n, 0);
  LCREC_CHECK_GE(opts.beam_cap, 0);
  Lane lane;
  lane.tag = tag;
  lane.top_n = top_n;
  lane.prompt = std::move(prompt);
  lane.deadline_us = opts.deadline_us;
  lane.beam = opts.beam_cap > 0 ? std::min(opts.beam_cap, beam_size_)
                                : beam_size_;
  lanes_.push_back(std::move(lane));
}

BatchResult BatchEngine::RetireLane(Lane& lane, bool partial) {
  std::sort(lane.done.begin(), lane.done.end(), ScoredItemOrder);
  if (static_cast<int>(lane.done.size()) > lane.top_n) {
    lane.done.resize(static_cast<size_t>(lane.top_n));
  }
  EngineMetrics& em = EngineMetrics::Get();
  em.retired.Increment();
  if (partial) em.partial.Increment();
  return {lane.tag, std::move(lane.done), lane.ticks,
          lane.decode_us,   partial,      lane.beam};
}

std::vector<BatchResult> BatchEngine::Tick() {
  if (lanes_.empty()) return {};
  obs::ScopedSpan span("llm.batch_tick");
  double tick_start_us = obs::NowMicros();

  // Phase 0: retire lanes whose deadline has already passed before
  // spending any forward work on them. They return whatever beams
  // finished on earlier ticks (partial decode).
  std::vector<BatchResult> finished;
  {
    std::vector<Lane> live;
    live.reserve(lanes_.size());
    for (Lane& lane : lanes_) {
      if (lane.deadline_us > 0.0 && tick_start_us >= lane.deadline_us) {
        finished.push_back(RetireLane(lane, /*partial=*/true));
      } else {
        live.push_back(std::move(lane));
      }
    }
    lanes_ = std::move(live);
  }
  if (lanes_.empty()) return finished;

  EngineMetrics& em = EngineMetrics::Get();
  em.ticks.Increment();
  em.lanes_per_tick.Observe(static_cast<double>(lanes_.size()));

  // Phase 1: plan this tick's work per lane — a prompt prefill for fresh
  // lanes, or one child beam per surviving candidate for running lanes.
  size_t n = lanes_.size();
  std::vector<std::vector<BeamCandidate>> cands(n);
  std::vector<std::vector<Beam>> children(n);
  // Lanes that run a candidate expansion (one trie level) this tick, vs
  // a prompt prefill.
  std::vector<bool> expanding(n, false);
  int64_t allowed = 0, pruned = 0;
  for (size_t i = 0; i < n; ++i) {
    Lane& lane = lanes_[i];
    expanding[i] = lane.prefilled;
    if (!lane.prefilled) {
      Beam root;
      root.cache = model_.MakeCache();
      lane.active.clear();
      lane.active.push_back(std::move(root));
      continue;
    }
    std::vector<BeamCandidate>& cand = cands[i];
    for (size_t b = 0; b < lane.active.size(); ++b) {
      Beam& beam = lane.active[b];
      std::vector<int> next = trie_.NextCodes(beam.codes);
      if (next.empty()) continue;  // defensive; completed beams are removed
      float lse = LogSumExp(beam.logits);
      int level = static_cast<int>(beam.codes.size());
      for (int code : next) {
        int tok = token_map_.TokenId(level, code);
        if (tok < 0) continue;
        float lp = beam.logp + (beam.logits.at(tok) - lse);
        cand.push_back({static_cast<int>(b), code, tok, lp});
      }
    }
    allowed += static_cast<int64_t>(cand.size());
    std::sort(cand.begin(), cand.end(), BeamCandidateOrder);
    if (static_cast<int>(cand.size()) > lane.beam) {
      pruned += static_cast<int64_t>(cand.size()) - lane.beam;
      cand.resize(static_cast<size_t>(lane.beam));
    }
    children[i].reserve(cand.size());
    for (const BeamCandidate& c : cand) {
      Beam child;
      child.codes = lane.active[static_cast<size_t>(c.beam)].codes;
      child.codes.push_back(c.code);
      child.logp = c.logp;
      child.cache = lane.active[static_cast<size_t>(c.beam)].cache;  // copy
      children[i].push_back(std::move(child));
    }
  }

  em.trie_mask_hits.Add(allowed);
  em.beam_pruned.Add(pruned);

  // Phase 2: one batched forward over every planned unit. Pointers are
  // gathered only now, after all per-lane vectors stopped growing.
  struct Unit {
    size_t lane;
    int child;  // -1 => prompt prefill
  };
  std::vector<Unit> units;
  std::vector<MiniLlm::KvCache*> caches;
  std::vector<std::vector<int>> toks;
  int64_t fed_tokens = 0;
  for (size_t i = 0; i < n; ++i) {
    Lane& lane = lanes_[i];
    if (!expanding[i]) {
      units.push_back({i, -1});
      caches.push_back(&lane.active[0].cache);
      toks.push_back(lane.prompt);
      fed_tokens += static_cast<int64_t>(lane.prompt.size());
      continue;
    }
    for (size_t j = 0; j < children[i].size(); ++j) {
      units.push_back({i, static_cast<int>(j)});
      caches.push_back(&children[i][j].cache);
      toks.push_back({cands[i][j].token});
      ++fed_tokens;
    }
  }
  if (!units.empty()) {
    std::vector<core::Tensor> logits = model_.ForwardBatch(caches, toks);
    em.token_forwards.Add(fed_tokens);
    for (size_t u = 0; u < units.size(); ++u) {
      Lane& lane = lanes_[units[u].lane];
      if (units[u].child < 0) {
        lane.active[0].logits = std::move(logits[u]);
        lane.prefilled = true;
        lane.prompt.clear();
        lane.prompt.shrink_to_fit();
      } else {
        children[units[u].lane][static_cast<size_t>(units[u].child)].logits =
            std::move(logits[u]);
      }
    }
  }

  // Fair-share tick attribution: the batched forward serves all lanes
  // at once, so each active lane is charged an equal 1/n slice of the
  // tick's wall time. Summed over concurrently-running lanes this
  // reconstructs the engine's actual decode time.
  double tick_share_us = (obs::NowMicros() - tick_start_us) /
                         static_cast<double>(n);
  obs::FlightRecorder::Global().Record(obs::FrKind::kBatchTick, "batch_tick",
                                       static_cast<int64_t>(n), fed_tokens);

  // Phase 3: retire completed children, advance depths, finish lanes.
  std::vector<Lane> still_running;
  still_running.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Lane& lane = lanes_[i];
    ++lane.ticks;
    lane.decode_us += tick_share_us;
    bool complete = false;
    if (expanding[i]) {
      std::vector<Beam> next_active;
      next_active.reserve(children[i].size());
      for (Beam& child : children[i]) {
        int item = trie_.ItemAt(child.codes);
        if (item >= 0 && trie_.NextCodes(child.codes).empty()) {
          lane.done.push_back({item, child.logp});
        } else {
          next_active.push_back(std::move(child));
        }
      }
      lane.active = std::move(next_active);
      ++lane.depth;
      complete = lane.depth >= max_depth_ || lane.active.empty();
    }
    if (complete) {
      finished.push_back(RetireLane(lane, /*partial=*/false));
    } else {
      still_running.push_back(std::move(lane));
    }
  }
  lanes_ = std::move(still_running);
  return finished;
}

BatchResult DecodeLane(const MiniLlm& model, const quant::PrefixTrie& trie,
                       const IndexTokenMap& token_map, int beam_size,
                       std::vector<int> prompt, int top_n,
                       const LaneOptions& opts) {
  BatchEngine engine(model, trie, token_map, beam_size);
  engine.Admit(0, std::move(prompt), top_n, opts);
  BatchResult result;
  while (!engine.Idle()) {
    for (BatchResult& r : engine.Tick()) result = std::move(r);
  }
  return result;
}

}  // namespace lcrec::llm

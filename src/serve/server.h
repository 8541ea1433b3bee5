#ifndef LCREC_SERVE_SERVER_H_
#define LCREC_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "llm/batch.h"
#include "llm/generate.h"
#include "llm/minillm.h"
#include "obs/slo.h"
#include "obs/sync.h"
#include "obs/timeline.h"
#include "quant/indexing.h"
#include "serve/breaker.h"
#include "serve/cache.h"
#include "serve/queue.h"
#include "serve/request.h"

namespace lcrec::serve {

/// Maps a user's item-id history to the LLM prompt tokens to decode
/// from (BOS included) — e.g. LcRec wires
/// tasks::InstructionBuilder::SeqPrompt here. Must be callable from any
/// client thread concurrently.
using PromptBuilder =
    std::function<std::vector<int>(const std::vector<int>&)>;

struct ServerOptions {
  int beam_size = 8;
  int top_n_cap = 50;            // requests asking for more are clamped
  int max_queue = 256;           // admission queue capacity
  int max_batch_lanes = 8;       // decode lanes batched per tick
  size_t cache_capacity = 1024;  // result-cache entries; 0 disables
  /// When the queue is empty, no lane is in flight and no other caller
  /// is decoding inline, decode on the calling thread instead of paying
  /// a scheduler handoff — p50 at low QPS must not tax requests with
  /// batching delay.
  bool inline_fast_path = true;
  /// Tests set false to stage requests while the scheduler is parked,
  /// then call Start() to release them deterministically.
  bool start_scheduler = true;
  /// Completions at or above this latency record a kSlowRequest flight-
  /// recorder event (with the request id), so a crash dump names the
  /// recent tail. <= 0 disables.
  double slow_request_ms = 250.0;
  /// Every Nth request is marked `sampled` and, when the global
  /// TraceRecorder is enabled, exported as Chrome async spans. 1 samples
  /// everything (the timelines themselves are always built); <= 0
  /// disables sampling.
  int trace_sample_n = 1;
  /// Latency SLO tracked by the server's burn-rate monitor
  /// (lcrec.serve.slo.* metrics; Statusz()).
  obs::SloOptions slo;
  /// >= 0 starts the process-wide obs::DebugServer on this port (0 =
  /// ephemeral) so the server is live-inspectable over HTTP (/statusz,
  /// /metricsz, ...). -1 leaves the debug surface to the LCREC_DEBUG_PORT
  /// env (checked either way). Start failure is logged, never fatal.
  int debug_port = -1;

  // --- resilience (the degradation ladder; DESIGN.md §14) ---

  /// Master switch for the degradation ladder. True (default): a request
  /// that would be shed or fail its decode is instead answered from the
  /// next ladder tier (stale cache, then popularity prior), and a
  /// deadline-bearing request is budget-managed inside the engine
  /// (reduced beam / partial decode) rather than running past its
  /// deadline. False restores strict shed semantics — requests fail
  /// with a reason instead of degrading (tests of the shed contract,
  /// and callers that prefer an error over a fallback ranking).
  bool degraded_fallbacks = true;
  /// Result-cache freshness horizon; <= 0 = infinite (default: TTL off,
  /// cache behaviour identical to earlier versions). Stale entries stop
  /// satisfying the healthy-path lookup but remain servable by the
  /// stale-cache degrade tier.
  double cache_ttl_ms = 0.0;
  /// Beam width of the budget-capped tier.
  int degraded_beam = 2;
  /// When a deadline-bearing request reaches admission with less than
  /// this fraction of its budget remaining, it decodes at degraded_beam
  /// instead of beam_size (fewer candidate forwards per tick => fewer
  /// ticks to the deadline get more depth).
  double budget_cap_fraction = 0.5;
  /// Transient decode failures are retried this many times (with
  /// retry_backoff_ms between attempts) before the request falls back.
  int decode_retries = 1;
  double retry_backoff_ms = 1.0;
  /// Circuit breaker over the decode path (always active; with
  /// default thresholds it only trips under sustained failure).
  BreakerOptions breaker;
  /// Scheduler watchdog: a batch tick (or admission step) stuck longer
  /// than this dumps the flight recorder to stderr and counts a
  /// watchdog fire. <= 0 disables the watchdog thread.
  double watchdog_stall_ms = 1000.0;
  /// Popularity prior for the last-resort fallback tier: item ids,
  /// most popular first (precompute top-K by interaction frequency).
  /// Empty = fall back to item ids in index order, which keeps the tier
  /// always available even without a prior.
  std::vector<int> popularity_items;
};

/// Per-server counters (the global lcrec.serve.* metrics aggregate
/// across servers; tests want this instance's view).
struct ServerStats {
  int64_t requests = 0;
  int64_t completed = 0;        // responses with status kOk (any tier)
  int64_t decoded = 0;          // beam searches actually executed
  int64_t cache_hits = 0;
  int64_t coalesced = 0;        // joined an identical in-flight request
  int64_t inline_fast_path = 0;
  int64_t shed_queue_full = 0;
  int64_t shed_deadline = 0;
  int64_t batch_ticks = 0;
  // Degradation-ladder accounting. completed == full-tier responses +
  // the three counters below; requests == completed + sheds + shutdowns
  // (the terminal-state invariant, asserted in serve_resilience_test).
  int64_t degraded_budget_capped = 0;  // level 1 (incl. partial decodes)
  int64_t degraded_stale_cache = 0;    // level 2
  int64_t degraded_popularity = 0;     // level 3
  int64_t shed_shutdown = 0;           // resolved kShutdown
  int64_t decode_failures = 0;   // decode attempts lost to (injected) faults
  int64_t decode_retries = 0;    // retry attempts after such a failure
  int64_t breaker_short_circuits = 0;  // requests the open breaker diverted
  int64_t watchdog_fires = 0;          // scheduler stalls detected
};

/// In-process online recommendation server: many client threads call
/// Recommend(); a scheduler thread forms continuous batches over a
/// bounded admission queue and drives the shared BatchEngine, retiring
/// finished requests and admitting new ones without draining the batch.
/// Identical concurrent requests are deduplicated single-flight, and
/// completed rankings land in an LRU result cache.
///
/// The model, trie, and token map must outlive the server.
class Server {
 public:
  Server(const llm::MiniLlm& model, const quant::PrefixTrie& trie,
         const llm::IndexTokenMap& token_map, PromptBuilder prompt_builder,
         ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Launches the scheduler thread (no-op when already running).
  void Start();

  /// Closes admission, drains already-admitted work, and joins the
  /// scheduler. Blocked Recommend() callers whose requests were neither
  /// decoded nor shed receive kShutdown.
  void Stop();

  /// Blocking; safe from any thread. Returns a ranked item list or a
  /// shed/shutdown status with the reason encoded in `status`.
  RecommendResponse Recommend(const RecommendRequest& request);

  ServerStats stats() const;
  size_t queue_depth() const { return queue_.size(); }

  /// This server's SLO reading (burn rate over the sliding window).
  const obs::SloMonitor& slo() const { return slo_; }

  /// The decode-path circuit breaker (state/stats for tests, statusz).
  const CircuitBreaker& breaker() const { return breaker_; }

  /// The result cache (hit/stale counters for tests).
  const ResultCache& cache() const { return cache_; }

  /// One-stop serving snapshot: the SLO window reading plus request,
  /// cache (hit/coalesce/inline rates), queue, batch-lane, and shed
  /// counters. Served live as the "serve" section of debugz /statusz.
  std::string Statusz() const;

  /// Writes the process flight-recorder ring (recent sheds, batch ticks,
  /// slow requests...) as JSONL — the same black box the LCREC_CHECK
  /// failure handler dumps to stderr on a crash.
  void DumpFlightRecorder(std::ostream& out) const;

 private:
  /// One admitted request. Shared between the submitting client thread,
  /// identical-request followers, and the scheduler.
  struct Pending {
    uint64_t key = 0;
    std::vector<int> prompt;
    int top_n = 0;
    double submit_us = 0.0;    // obs::NowMicros at submission
    double deadline_ms = 0.0;  // 0 = none
    bool beam_capped = false;  // admitted at degraded_beam (budget tier)
    RecommendResponse response;
    bool done = false;
    /// The leader's timeline. Handed between the leader thread and the
    /// scheduler across existing happens-before edges (queue push/pop,
    /// then Resolve's state_mu_); followers never touch it — each
    /// follower keeps its own local timeline.
    obs::RequestTimeline timeline;
  };
  using PendingPtr = std::shared_ptr<Pending>;

  void SchedulerLoop();
  /// Admits one popped request into the engine (recording its lane tag
  /// in `by_tag`), or sheds it when its deadline already expired.
  /// Scheduler thread only.
  void AdmitOrShed(PendingPtr pending,
                   std::unordered_map<uint64_t, PendingPtr>* by_tag);
  /// Publishes `response` on `pending`, removes it from the in-flight
  /// table, and wakes every waiter.
  void Resolve(const PendingPtr& pending, RecommendResponse response);
  /// The gate in front of every decode attempt, inline or admitted: the
  /// circuit breaker, then the chaos gauntlet. False = `pending` was
  /// already sent down the fallback tiers (or shed).
  bool DecodeAllowed(const PendingPtr& pending);
  /// Decodes on the calling thread with a private one-lane engine (fast
  /// path; the caller holds the inline slot).
  void DecodeInline(const PendingPtr& pending);
  /// Publishes a finished decode lane, inline or from the scheduler's
  /// engine: a partial lane degrades (or sheds when nothing finished or
  /// fallbacks are off), a complete one feeds the breaker and, at full
  /// beam, the cache.
  void ResolveDecoded(const PendingPtr& pending, llm::BatchResult result,
                      bool inline_path);
  /// The engine lane for `pending` at `now_us`: its deadline budget when
  /// it has one and the degradation ladder is on (marking it
  /// beam_capped when most of the budget is already gone), else none.
  llm::LaneOptions BudgetLane(Pending* pending, double now_us) const;
  /// Blocks until `pending` resolves, then finishes `timeline` (this
  /// caller's own — the leader passes &pending->timeline, a follower its
  /// local one), fills the response's debug breakdown from it, and
  /// accounts completion (latency metric, SLO, slow-request flight
  /// event).
  RecommendResponse WaitDone(const PendingPtr& pending, double t0_us,
                             bool coalesced, obs::RequestTimeline* timeline);
  /// Completion bookkeeping shared by WaitDone and the cache-hit path.
  void FinishRequest(RecommendResponse* resp);
  /// Walks the fallback tiers for a request that cannot get a (full)
  /// decode: stale cache, then the popularity prior. With
  /// degraded_fallbacks off, sheds with `shed_status` instead.
  /// `reason` labels the flight event / shed metrics.
  void DegradeOrShed(const PendingPtr& pending, Status shed_status,
                     const char* reason);
  /// Labels + accounts a degraded kOk response and resolves it.
  void ResolveDegraded(const PendingPtr& pending, RecommendResponse resp,
                       const char* label);
  /// Runs the chaos decode gauntlet for one decode attempt: sleeps
  /// through injected latency, retries injected failures up to
  /// decode_retries. False = the attempt failed permanently.
  bool PassChaosDecode();
  /// The always-available level-3 ranking.
  std::vector<llm::ScoredItem> PopularityFallback(int top_n) const;
  void WatchdogLoop();

  const llm::MiniLlm& model_;
  const quant::PrefixTrie& trie_;
  const llm::IndexTokenMap& token_map_;
  PromptBuilder prompt_builder_;
  ServerOptions options_;

  ResultCache cache_;
  BoundedQueue<PendingPtr> queue_;
  obs::SloMonitor slo_;
  llm::BatchEngine engine_;  // scheduler thread only (after Start)
  CircuitBreaker breaker_;
  std::atomic<int> active_lanes_{0};
  /// The single inline-decode slot, claimed by compare-exchange: at most
  /// one caller decodes on its own thread, the rest queue for the
  /// scheduler, so decode concurrency stays bounded by max_batch_lanes
  /// plus this one lane.
  std::atomic<bool> inline_busy_{false};
  std::atomic<uint64_t> next_tag_{1};
  /// NowMicros when the scheduler's current work episode (admission +
  /// tick) started; 0 while parked on the queue. The watchdog reads it
  /// to detect a stuck tick.
  std::atomic<double> tick_start_us_{0.0};

  obs::Mutex state_mu_{"serve.server.state", 20};
  obs::CondVar done_cv_;
  std::unordered_map<uint64_t, PendingPtr> inflight_
      LCREC_GUARDED_BY(state_mu_);

  std::thread scheduler_;
  std::thread watchdog_;
  std::atomic<bool> running_{false};
  obs::Mutex watchdog_mu_;  // anonymous: only guards the stop flag/cv
  obs::CondVar watchdog_cv_;
  bool watchdog_stop_ LCREC_GUARDED_BY(watchdog_mu_) = false;
  int statusz_section_id_ = -1;  // debugz /statusz registration

  struct AtomicStats {
    std::atomic<int64_t> requests{0}, completed{0}, decoded{0};
    std::atomic<int64_t> cache_hits{0}, coalesced{0}, inline_fast_path{0};
    std::atomic<int64_t> shed_queue_full{0}, shed_deadline{0};
    std::atomic<int64_t> batch_ticks{0};
    std::atomic<int64_t> degraded_budget_capped{0}, degraded_stale_cache{0};
    std::atomic<int64_t> degraded_popularity{0}, shed_shutdown{0};
    std::atomic<int64_t> decode_failures{0}, decode_retries{0};
    std::atomic<int64_t> breaker_short_circuits{0}, watchdog_fires{0};
  };
  AtomicStats stats_;
};

}  // namespace lcrec::serve

#endif  // LCREC_SERVE_SERVER_H_

// Shared pieces of the LC-Rec benchmark program: command-line options,
// the fitted system under test, the open-loop load generator, the
// correctness oracle and the result printer.
#ifndef LCBENCH_BENCH_H_
#define LCBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "data/dataset.h"
#include "llm/generate.h"
#include "net/router.h"
#include "net/rpc.h"
#include "rec/lcrec.h"
#include "serve/server.h"

namespace lcbench {

namespace data = lcrec::data;
namespace llm = lcrec::llm;
namespace net = lcrec::net;
namespace rec = lcrec::rec;
namespace serve = lcrec::serve;
namespace tasks = lcrec::tasks;

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetups = 3;
/// Where the traced run writes its Chrome trace and layer table.
inline constexpr const char* kOutDir = ".bench_out";

// ------------------------------------------------------------------ clock

double NowSec();  // steady clock, seconds
/// splitmix64: the benchmark's one seeded generator.
uint64_t SplitMix64(uint64_t* state);
double Median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);

// ----------------------------------------------------------------- blocks

/// Timed figures are taken per block of this many seconds of a phase and
/// reported for the host's slow state, its usual one: the host switches
/// to a state about 1.7x faster for seconds to minutes at a time (README),
/// and a median over a run would follow how much of the run such bursts
/// happen to cover.
inline constexpr double kBlockS = 0.3;

/// Splits samples (seconds since the phase began, value) of a phase
/// `span_s` long into whole blocks of kBlockS; the remainder joins the
/// last block. Returns each block's values.
std::vector<std::vector<double>> SplitBlocks(
    const std::vector<std::pair<double, double>>& samples, double span_s);
/// Per-block medians of `samples`.
std::vector<double> BlockMedians(
    const std::vector<std::pair<double, double>>& samples, double span_s);
/// The slow-state figure of per-block times: their 75th percentile.
inline double SlowTime(const std::vector<double>& blocks) { return Quantile(blocks, 0.75); }

// ---------------------------------------------------------------- system

/// A call into the system under test (in-process or over the wire).
using CallFn = std::function<bool(const serve::RecommendRequest&,
                                  serve::RecommendResponse*)>;

/// The fixed model under test: one dataset and one LC-Rec fit whose
/// configuration never depends on the seed or the workload, so every run
/// serves the same trained model.
rec::LcRecConfig FitConfig();
data::Dataset MakeDataset();

/// Serving objects of a workload, brought up over a fitted model.
struct ServingStack {
  // serve_unique: one in-process server.
  std::unique_ptr<serve::Server> server;
  // The traced run's net pass: two workers (server + RPC front each)
  // behind a router, and the client the load generator calls through.
  std::vector<std::unique_ptr<serve::Server>> workers;
  std::vector<std::unique_ptr<net::RpcServer>> rpcs;
  std::unique_ptr<net::Router> router;
  std::unique_ptr<net::RpcClient> client;

  void Stop();
  ~ServingStack() { Stop(); }
};

struct System {
  std::string stack_name;  // the stack BringUp brought up
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<rec::LcRec> model;
  ServingStack stack;
  /// The workload's call path: the in-process server or the router
  /// client. Empty for offline_eval.
  CallFn Call();
};

/// One thread per core: offline callers, reference decodes.
int GeneratorThreads();
/// Load-generator threads of a serving stack ("serve_unique" or "net").
int ClientThreads(const std::string& stack);

class UniqueHistories;

/// One set-up: builds the dataset, fits the model, brings up the
/// workload's serving objects (none for offline_eval) and warms them up
/// with requests drawn from `fresh`. Aborts the process on a serving
/// bring-up failure.
std::unique_ptr<System> BuildSystem(const std::string& workload,
                                    UniqueHistories* fresh);
/// The two halves of BuildSystem: dataset + fit, then bring-up of a
/// serving stack ("serve_unique", "net" or none) and warm-up, replacing
/// any stack already up.
std::unique_ptr<System> FitSystem(UniqueHistories* fresh);
void BringUp(System* sys, const std::string& stack, UniqueHistories* fresh);

// --------------------------------------------------------------- requests

/// Makes histories that have never been produced before by this
/// generator, with the length mix of the test split's prompts: each takes
/// a random user's test-context length (clipped to the prompt's history
/// window), fills all but its last 1-2 items with a window of that user's
/// real sequence and ends in 1-2 random catalog items, de-duplicated by
/// content.
class UniqueHistories {
 public:
  explicit UniqueHistories(uint64_t seed);
  /// Draws from `dataset`'s users and items. Histories already produced
  /// stay excluded across rebinds (every set-up repetition builds its
  /// own, identical, dataset).
  void Bind(const data::Dataset* dataset);
  std::vector<int> Next();
  /// How many histories of each length the test split's prompts hold,
  /// and how many of each length Next() has made.
  const std::map<int, int64_t>& context_lengths() const { return context_lengths_; }
  const std::map<int, int64_t>& made_lengths() const { return made_lengths_; }

 private:
  const data::Dataset* dataset_ = nullptr;
  uint64_t state_;
  // Content hashes of every history made or excluded: equal histories
  // hash alike, so a new history is never one made before.
  std::unordered_set<uint64_t> seen_;
  std::map<int, int64_t> context_lengths_, made_lengths_;
};

/// One request of a load phase: its history, and what came back. The
/// ranked items are kept only until the phase has been checked.
struct Shot {
  int history = -1;           // index into the run's history table
  double sched_s = 0.0;       // scheduled send time (run clock)
  double sent_s = 0.0;        // actual send time
  double done_s = 0.0;        // reply time
  std::string error;          // empty: a well-formed answer came back
  std::vector<llm::ScoredItem> items;
  float server_ms = 0.0f;     // the server's own latency_ms
  float queue_ms = 0.0f;      // stage breakdown: queue_wait
  float decode_ms = 0.0f;     //                  decode
};

struct PhaseResult {
  double rate = 0.0;     // offered, requests/s
  std::vector<Shot> shots;  // the requests sent
  std::vector<double> LatencyMs() const;  // from scheduled send time
  std::vector<double> LagMs() const;      // sent - scheduled
  /// Median latency of each block of the phase's schedule.
  std::vector<double> BlockP50() const;
};

/// Open loop: one request per entry of `history_ids`, evenly spaced at
/// `rate`, issued by `threads` generator threads; each request is timed
/// from its scheduled send time, so a stalled generator shows as latency.
PhaseResult RunOpenLoop(const CallFn& call, const std::vector<int>& history_ids,
                        const std::vector<std::vector<int>>& histories,
                        double rate, int threads, int num_items);

// ----------------------------------------------------------------- oracle

inline constexpr int kTopN = 10;

/// Structural check of one answer: `top_n` distinct valid item ids with
/// finite, non-increasing, non-positive logprobs, status ok, full tier.
bool WellFormed(const serve::RecommendResponse& r, int num_items,
                std::string* why);

/// Offline reference answers: LcRec::TopK of histories[from, end),
/// computed on `threads` threads.
std::vector<std::vector<llm::ScoredItem>> ReferenceTopK(
    const rec::LcRec& model, const std::vector<std::vector<int>>& histories,
    size_t from, int threads);

bool SameRanking(const std::vector<llm::ScoredItem>& a,
                 const std::vector<llm::ScoredItem>& b);

// ----------------------------------------------------------------- output

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;  // printed to stderr

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(const std::string& why);  // correctness violation
};

void PrintResult(const RunResult& r);

/// Peak resident set size of this process, MB.
double PeakRssMb();

// -------------------------------------------------------------- workloads

/// Untraced runs: fill `r` with the workload's end-to-end metrics.
/// `fresh` is the run's history generator, already used by the warm-up.
void RunServeUnique(System& sys, const Options& opt, UniqueHistories* fresh,
                    RunResult* r);
void RunOfflineEval(System& sys, const Options& opt, RunResult* r);

/// Traced run: per-layer metrics, Chrome trace and layer table.
void RunLayers(const Options& opt, RunResult* r);

/// The phases a workload alternates (one caller and parallel callers on
/// offline_eval; light and heavy windows on serve_unique) run in this many
/// short segments spread over the run, so that each figure pools the same
/// stretches of host speed.
inline constexpr int kSegments = 6;

}  // namespace lcbench

#endif  // LCBENCH_BENCH_H_

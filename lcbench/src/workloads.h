// Load phases shared by the untraced workloads and the traced run.
#ifndef LCBENCH_WORKLOADS_H_
#define LCBENCH_WORKLOADS_H_

#include <vector>

#include "bench.h"

namespace lcbench {

/// Where a workload's requests come from: a growing table of histories
/// and the index of the next request's history in it.
class HistorySource {
 public:
  virtual ~HistorySource() = default;
  virtual int Next() = 0;
  virtual const std::vector<std::vector<int>>& table() const = 0;
};

/// serve_unique: every request is a history never sent before.
class UniqueSource : public HistorySource {
 public:
  explicit UniqueSource(UniqueHistories* fresh) : fresh_(fresh) {}
  int Next() override {
    table_.push_back(fresh_->Next());
    return static_cast<int>(table_.size()) - 1;
  }
  const std::vector<std::vector<int>>& table() const override { return table_; }

 private:
  UniqueHistories* fresh_;
  std::vector<std::vector<int>> table_;
};

/// The traced net pass: each request is a new history with probability
/// 8%, otherwise a repeat drawn by Zipf(1) rank over the histories sent
/// so far (the oldest is the most popular).
class ZipfSource : public HistorySource {
 public:
  ZipfSource(UniqueHistories* fresh, uint64_t seed)
      : fresh_(fresh), state_(seed * 0xD1B54A32D192ED03ull + 99) {}
  int Next() override;
  const std::vector<std::vector<int>>& table() const override { return pool_; }

 private:
  static constexpr double kMissShare = 0.08;
  UniqueHistories* fresh_;
  uint64_t state_;
  std::vector<std::vector<int>> pool_;
  double Uniform() { return static_cast<double>(SplitMix64(&state_) >> 11) * 0x1.0p-53; }
};

using UserLists = std::vector<std::vector<llm::ScoredItem>>;

/// Checks every answer of a phase against the offline LcRec::TopK of its
/// history (computed after the phase, outside its timing), counts
/// attempted and failed requests, then frees the phase's answers. No
/// reference outlives its phase, so references do not pile up over a
/// run and inflate peak_rss_mb.
class ServingChecker {
 public:
  ServingChecker(const System& sys, RunResult* r) : sys_(sys), r_(r) {}
  void Check(const std::vector<std::vector<int>>& table, PhaseResult* phase);

 private:
  const System& sys_;
  RunResult* r_;
};

/// serve_unique's offered load, fixed and never adapted at run time. Both
/// rates sit below the knee of the slowest host period measured (README).
inline constexpr double kLightRps = 125.0;
inline constexpr double kHeavyRps = 250.0;

/// Alternating light and heavy windows: both see the same host conditions.
struct Windows {
  std::vector<PhaseResult> light, heavy;
  std::vector<const PhaseResult*> All() const;
};

/// `pairs` light and heavy windows of `window_s` seconds each, at
/// `light_rps` and `heavy_rps`. Every window is checked as it ends.
Windows RunWindows(System& sys, HistorySource& src, double light_rps,
                   double heavy_rps, double window_s, int pairs,
                   ServingChecker* checker);

/// Latencies of `phases`, pooled.
std::vector<double> Pooled(const std::vector<PhaseResult>& phases);

struct OfflineRun {
  int passes = 0;               // summed over threads
  double seconds = 0.0;         // time spent ranking
  UserLists first;              // per user, first pass of thread 0
  /// Every TopK call: (completion time since start in s, latency in ms),
  /// in completion order.
  std::vector<std::pair<double, double>> calls;
  int64_t unstable = 0;         // answers that changed between passes
  /// Median TopK latency (ms) of each block of each run appended.
  std::vector<double> block_p50;
  std::vector<double> LatencyMs() const;
  /// Adds `other`'s calls, time and blocks; `first` stays this run's.
  void Append(const OfflineRun& other);
};

/// Whole seeded-order passes of LcRec::TopK over every test user on each
/// of `threads` threads until `seconds` have passed. Answers are checked
/// against `reference`, or (when null) against the first pass.
OfflineRun DriveOffline(const System& sys, uint64_t seed, double seconds,
                        int threads, const UserLists* reference);

/// Recall@10 and NDCG@10 of `lists` (per test user), cross-checked with
/// rec::EvaluateGenerative and against chance.
void ReportQuality(const System& sys, const UserLists& lists, RunResult* r);

}  // namespace lcbench

#endif  // LCBENCH_WORKLOADS_H_

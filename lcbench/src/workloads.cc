// The workloads' measured phases and their correctness checks.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>

#include "bench.h"
#include "rec/metrics.h"
#include "rec/recommender.h"
#include "workloads.h"

namespace lcbench {

// ------------------------------------------------------------ serving

int ZipfSource::Next() {
  if (pool_.empty() || Uniform() < kMissShare) {
    pool_.push_back(fresh_->Next());
    return static_cast<int>(pool_.size()) - 1;
  }
  // Inverse CDF of the continuous Zipf(1) density on [1, n + 1).
  double x = std::pow(static_cast<double>(pool_.size()) + 1.0, Uniform());
  return std::clamp(static_cast<int>(x), 1, static_cast<int>(pool_.size())) - 1;
}

void ServingChecker::Check(const std::vector<std::vector<int>>& table,
                           PhaseResult* phase) {
  // Reference answers for the distinct histories of this phase.
  std::map<int, size_t> slot;  // history -> index into todo
  std::vector<std::vector<int>> todo;
  for (const Shot& s : phase->shots) {
    if (slot.emplace(s.history, todo.size()).second) {
      todo.push_back(table[static_cast<size_t>(s.history)]);
    }
  }
  UserLists ref = ReferenceTopK(*sys_.model, todo, 0, GeneratorThreads());

  for (Shot& s : phase->shots) {
    ++r_->attempted;
    std::string why = s.error;
    if (why.empty() && !SameRanking(s.items, ref[slot.at(s.history)])) {
      why = "answer differs from offline LcRec::TopK";
    }
    if (!why.empty()) {
      ++r_->failed;
      if (r_->failed <= 3) r_->notes.push_back("failed request: " + why);
    }
    std::vector<llm::ScoredItem>().swap(s.items);
  }
}

namespace {

PhaseResult RunPhase(System& sys, HistorySource& src, double rate,
                     double seconds, ServingChecker* checker) {
  size_t n = static_cast<size_t>(std::max(1.0, std::round(rate * seconds)));
  std::vector<int> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = src.Next();
  PhaseResult p = RunOpenLoop(sys.Call(), ids, src.table(), rate,
                              ClientThreads(sys.stack_name),
                              sys.dataset->num_items());
  checker->Check(src.table(), &p);
  return p;
}

}  // namespace

Windows RunWindows(System& sys, HistorySource& src, double light_rps,
                   double heavy_rps, double window_s, int pairs,
                   ServingChecker* checker) {
  Windows w;
  for (int i = 0; i < pairs; ++i) {
    w.light.push_back(RunPhase(sys, src, light_rps, window_s, checker));
    w.heavy.push_back(RunPhase(sys, src, heavy_rps, window_s, checker));
  }
  return w;
}

std::vector<const PhaseResult*> Windows::All() const {
  std::vector<const PhaseResult*> all;
  for (const auto* v : {&light, &heavy}) {
    for (const PhaseResult& p : *v) all.push_back(&p);
  }
  return all;
}

std::vector<double> Pooled(const std::vector<PhaseResult>& phases) {
  std::vector<double> lat;
  for (const PhaseResult& p : phases) {
    std::vector<double> l = p.LatencyMs();
    lat.insert(lat.end(), l.begin(), l.end());
  }
  return lat;
}

namespace {

void ReportServing(const Windows& win, RunResult* r) {
  std::vector<double> light = Pooled(win.light);
  std::vector<double> heavy = Pooled(win.heavy);
  std::vector<double> light_blocks, heavy_blocks;
  for (const PhaseResult& p : win.light) {
    std::vector<double> b = p.BlockP50();
    light_blocks.insert(light_blocks.end(), b.begin(), b.end());
  }
  for (const PhaseResult& p : win.heavy) {
    std::vector<double> b = p.BlockP50();
    heavy_blocks.insert(heavy_blocks.end(), b.begin(), b.end());
  }
  r->Set("p50_ms.light", SlowTime(light_blocks), "ms");
  r->Set("p50_ms.heavy", SlowTime(heavy_blocks), "ms");
  // p99 is not gated: it moves with how often the host stalls (see
  // README), so it is reported here for reading only.
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "pooled: light %zu samples (p50 %.3f p99 %.3f ms), heavy %zu "
                "samples (p50 %.3f p99 %.3f ms); %zu and %zu blocks",
                light.size(), Quantile(light, 0.5), Quantile(light, 0.99),
                heavy.size(), Quantile(heavy, 0.5), Quantile(heavy, 0.99),
                light_blocks.size(), heavy_blocks.size());
  r->notes.push_back(buf);
  for (const auto* phases : {&win.light, &win.heavy}) {
    std::vector<double> lag, server;
    for (const PhaseResult& p : *phases) {
      std::vector<double> l = p.LagMs();
      lag.insert(lag.end(), l.begin(), l.end());
      for (const Shot& s : p.shots) server.push_back(s.server_ms);
    }
    std::snprintf(buf, sizeof(buf),
                  "%s: generator lag p50 %.3f p99 %.3f ms; server latency p50 %.3f p99 %.3f ms",
                  phases == &win.light ? "light" : "heavy", Quantile(lag, 0.5),
                  Quantile(lag, 0.99), Quantile(server, 0.5), Quantile(server, 0.99));
    r->notes.push_back(buf);
  }
}

std::string Lengths(const std::map<int, int64_t>& counts) {
  std::string out;
  for (const auto& [length, n] : counts) {
    out += (out.empty() ? "" : " ") + std::to_string(length) + ":" + std::to_string(n);
  }
  return out;
}

}  // namespace

/// The leave-one-out test split served through the workload's call path,
/// one request at a time: Recall/NDCG@10 of what the server answers.
void ServeTestSplit(System& sys, RunResult* r) {
  const data::Dataset& ds = *sys.dataset;
  std::vector<std::vector<int>> contexts;
  for (int u = 0; u < ds.num_users(); ++u) contexts.push_back(ds.TestContext(u));
  UserLists ref = ReferenceTopK(*sys.model, contexts, 0, GeneratorThreads());
  UserLists served(contexts.size());
  CallFn call = sys.Call();
  for (size_t u = 0; u < contexts.size(); ++u) {
    ++r->attempted;
    serve::RecommendRequest req;
    req.history = contexts[u];
    req.top_n = kTopN;
    serve::RecommendResponse resp;
    std::string why;
    if (!call(req, &resp)) {
      why = "transport failure";
    } else if (WellFormed(resp, ds.num_items(), &why) &&
               !SameRanking(resp.items, ref[u])) {
      why = "test-split answer differs from offline LcRec::TopK";
    }
    if (!why.empty()) {
      ++r->failed;
      r->notes.push_back("test split: " + why);
    }
    served[u] = resp.items;
  }
  ReportQuality(sys, served, r);
}

void RunServeUnique(System& sys, const Options& opt, UniqueHistories* fresh,
                    RunResult* r) {
  // The whole run: kSegments pairs of a light and a heavy window.
  UniqueSource src(fresh);
  ServingChecker checker(sys, r);
  Windows win = RunWindows(sys, src, kLightRps, kHeavyRps,
                           opt.seconds / (2.0 * kSegments), kSegments, &checker);
  ReportServing(win, r);
  serve::ServerStats st = sys.stack.server->stats();
  if (st.cache_hits != 0 || st.coalesced != 0) {
    r->Fail("serve_unique hit the cache or coalesced");
  }
  r->notes.push_back("history lengths: test contexts " + Lengths(fresh->context_lengths()) +
                     "; generated " + Lengths(fresh->made_lengths()));
  ServeTestSplit(sys, r);
}

// ------------------------------------------------------------ offline

OfflineRun DriveOffline(const System& sys, uint64_t seed, double seconds,
                        int threads, const UserLists* reference) {
  const data::Dataset& ds = *sys.dataset;
  const int users = ds.num_users();
  struct Part {
    int passes = 0;
    int64_t unstable = 0;
    std::vector<std::pair<double, double>> calls;
    UserLists first;
  };
  std::vector<Part> parts(static_cast<size_t>(threads));
  const double t0 = NowSec();
  // Each thread ranks whole passes over every test user, in its own
  // seeded order, until the run length is filled.
  auto work = [&](int t) {
    Part& part = parts[static_cast<size_t>(t)];
    part.first.resize(static_cast<size_t>(users));
    std::vector<int> order(static_cast<size_t>(users));
    std::iota(order.begin(), order.end(), 0);
    uint64_t state = seed * 0x9E3779B97F4A7C15ull + 7 + static_cast<uint64_t>(t);
    double now = t0;
    while (part.passes == 0 || now - t0 < seconds) {
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[SplitMix64(&state) % i]);
      }
      for (int u : order) {
        double a = NowSec();
        std::vector<llm::ScoredItem> got = sys.model->TopK(ds.TestContext(u), kTopN);
        now = NowSec();
        part.calls.emplace_back(now - t0, (now - a) * 1e3);
        const UserLists& ref = reference ? *reference : part.first;
        if (!reference && part.passes == 0) {
          part.first[static_cast<size_t>(u)] = std::move(got);
        } else if (!SameRanking(got, ref[static_cast<size_t>(u)])) {
          ++part.unstable;
        }
      }
      ++part.passes;
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(work, t);
  work(0);
  for (auto& th : pool) th.join();

  OfflineRun run;
  run.first = std::move(parts[0].first);
  for (Part& part : parts) {
    run.passes += part.passes;
    run.unstable += part.unstable;
    run.calls.insert(run.calls.end(), part.calls.begin(), part.calls.end());
  }
  std::sort(run.calls.begin(), run.calls.end());
  run.seconds = run.calls.back().first;
  run.block_p50 = BlockMedians(run.calls, run.seconds);
  return run;
}

std::vector<double> OfflineRun::LatencyMs() const {
  std::vector<double> ms;
  for (const auto& c : calls) ms.push_back(c.second);
  return ms;
}

void OfflineRun::Append(const OfflineRun& other) {
  passes += other.passes;
  seconds += other.seconds;
  unstable += other.unstable;
  calls.insert(calls.end(), other.calls.begin(), other.calls.end());
  block_p50.insert(block_p50.end(), other.block_p50.begin(), other.block_p50.end());
}

void ReportQuality(const System& sys, const UserLists& lists, RunResult* r) {
  const data::Dataset& ds = *sys.dataset;
  const int users = ds.num_users();
  // Recall@10 (HR@10 under leave-one-out) and NDCG@10, recomputed here
  // from the ranked lists.
  double hits = 0.0, dcg = 0.0;
  std::map<std::vector<int>, std::vector<int>> ranked;
  for (int u = 0; u < users; ++u) {
    const std::vector<llm::ScoredItem>& got = lists[static_cast<size_t>(u)];
    std::vector<int>& ids = ranked[ds.TestContext(u)];
    for (size_t k = 0; k < got.size(); ++k) {
      ids.push_back(got[k].item);
      if (k < 10 && got[k].item == ds.TestTarget(u)) {
        hits += 1.0;
        dcg += 1.0 / std::log2(static_cast<double>(k) + 2.0);
      }
    }
  }
  double recall = hits / users, ndcg = dcg / users;
  // The library's evaluator over the same lists must agree.
  rec::RankingMetrics lib = rec::EvaluateGenerative(
      [&ranked](const std::vector<int>& ctx) { return ranked.at(ctx); }, ds);
  if (std::fabs(lib.hr10 - recall) > 1e-9 || std::fabs(lib.ndcg10 - ndcg) > 1e-9) {
    r->Fail("recomputed Recall/NDCG@10 differ from rec::EvaluateGenerative");
  }
  double chance = 10.0 / ds.num_items();
  if (!(recall > chance)) r->Fail("Recall@10 does not beat chance");
  r->Set("recall_at_10", recall, "ratio");
  r->Set("ndcg_at_10", ndcg, "ratio");
}

void RunOfflineEval(System& sys, const Options& opt, RunResult* r) {
  const data::Dataset& ds = *sys.dataset;
  // One caller (the paper's sequential protocol) and one caller per two
  // cores ranking the same users, checked against the first pass. Half
  // the cores, not all: the other half keep the host's own work from
  // preempting the callers mid-call. The two alternate in short segments
  // across the whole run, so each figure pools every stretch of host
  // speed the run saw rather than one half of it.
  const int callers = std::max(2, GeneratorThreads() / 2);
  const double segment_s = opt.seconds / (2.0 * kSegments);
  OfflineRun one, all;
  for (int i = 0; i < kSegments; ++i) {
    const uint64_t seed = opt.seed + 2 * static_cast<uint64_t>(i);
    if (i == 0) {
      one = DriveOffline(sys, seed, segment_s, 1, nullptr);
    } else {
      one.Append(DriveOffline(sys, seed, segment_s, 1, &one.first));
    }
    all.Append(DriveOffline(sys, seed + 1, segment_s, callers, &one.first));
  }
  for (const OfflineRun* run : {&one, &all}) {
    r->attempted += static_cast<int64_t>(ds.num_users()) * run->passes;
    r->failed += run->unstable;
  }
  for (int u = 0; u < ds.num_users(); ++u) {
    serve::RecommendResponse resp;
    resp.items = one.first[static_cast<size_t>(u)];
    std::string why;  // an offline answer carries the full tier
    if (!WellFormed(resp, ds.num_items(), &why)) {
      r->failed += one.passes + all.passes;
      r->notes.push_back("user " + std::to_string(u) + ": " + why);
    }
  }
  ReportQuality(sys, one.first, r);
  r->Set("p50_ms.light", SlowTime(one.block_p50), "ms");
  r->Set("p50_ms.heavy", SlowTime(all.block_p50), "ms");
  char buf[256];
  for (const OfflineRun* run : {&one, &all}) {
    std::vector<double> ms = run->LatencyMs();
    std::snprintf(buf, sizeof(buf),
                  "offline_eval, %d caller(s): %d passes over %d users in %d "
                  "segments, %zu blocks; pooled: %.1f users/s over wall "
                  "time, p50 %.3f ms, p99 %.3f ms",
                  run == &one ? 1 : callers, run->passes, ds.num_users(),
                  kSegments, run->block_p50.size(),
                  static_cast<double>(ms.size()) / run->seconds,
                  Quantile(ms, 0.5), Quantile(ms, 0.99));
    r->notes.push_back(buf);
  }
}

}  // namespace lcbench

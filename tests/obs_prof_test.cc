// Tests for the profiling/perf-gating layer: sampling profiler
// attribution (obs/prof.h), live span stacks (obs/trace.h), FLOP/byte
// accounting (obs/flops.h), run manifests (obs/manifest.h), the
// Prometheus exposition (obs/registry.h), and the benchmark regression
// gate (obs/perfgate.h).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "core/linalg.h"
#include "core/rng.h"
#include "core/tensor.h"
#include "obs/flops.h"
#include "obs/manifest.h"
#include "obs/perfgate.h"
#include "obs/prof.h"
#include "obs/promcheck.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace {

using namespace lcrec;

/// Keeps the CPU busy long enough for the sampler to hit this frame.
void BusyMs(double ms) {
  auto until = std::chrono::steady_clock::now() +
               std::chrono::microseconds(static_cast<int64_t>(ms * 1000));
  volatile double sink = 0.0;
  while (std::chrono::steady_clock::now() < until) {
    for (int i = 0; i < 1000; ++i) sink = sink + static_cast<double>(i);
  }
}

/// RAII guard: enables span stacks + a fresh profiler session, restores
/// the disabled state on exit so tests do not leak into each other.
struct ProfilerSession {
  explicit ProfilerSession(double hz) {
    obs::SetSpanStacksEnabled(true);
    obs::SamplingProfiler::Global().Reset();
    obs::ResetSpanCosts();
    obs::SamplingProfiler::Global().Start(hz);
  }
  ~ProfilerSession() {
    obs::SamplingProfiler::Global().Stop();
    obs::SetSpanStacksEnabled(false);
  }
};

const obs::ProfileEntry* FindEntry(const obs::ProfileReport& report,
                                   const std::string& name) {
  for (const obs::ProfileEntry& e : report.entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

TEST(LiveStackTest, TracksNestingWhenEnabled) {
  obs::SetSpanStacksEnabled(true);
  EXPECT_TRUE(obs::SpanStacksEnabled());
  EXPECT_EQ(obs::CurrentLeafSpan(), nullptr);
  {
    obs::ScopedSpan outer("stack.outer");
    EXPECT_STREQ(obs::CurrentLeafSpan(), "stack.outer");
    {
      obs::ScopedSpan inner("stack.inner");
      EXPECT_STREQ(obs::CurrentLeafSpan(), "stack.inner");
      bool found_nested = false;
      for (const obs::LiveStackSample& s : obs::SnapshotLiveSpans()) {
        if (s.frames.size() == 2 &&
            std::string(s.frames[0]) == "stack.outer" &&
            std::string(s.frames[1]) == "stack.inner") {
          found_nested = true;
        }
      }
      EXPECT_TRUE(found_nested);
    }
    EXPECT_STREQ(obs::CurrentLeafSpan(), "stack.outer");
  }
  EXPECT_EQ(obs::CurrentLeafSpan(), nullptr);
  obs::SetSpanStacksEnabled(false);
  EXPECT_EQ(obs::CurrentLeafSpan(), nullptr);
}

TEST(SamplingProfilerTest, AttributesNestedSpans) {
  ProfilerSession session(500.0);
  {
    obs::ScopedSpan outer("prof.outer");
    BusyMs(40);
    {
      obs::ScopedSpan inner("prof.inner");
      BusyMs(80);
    }
    BusyMs(10);
  }
  obs::SamplingProfiler::Global().Stop();

  obs::ProfileReport report = obs::SamplingProfiler::Global().Report();
  ASSERT_GT(report.samples, 0);
  EXPECT_DOUBLE_EQ(report.hz, 500.0);
  EXPECT_GT(report.duration_s, 0.0);

  const obs::ProfileEntry* outer = FindEntry(report, "prof.outer");
  const obs::ProfileEntry* inner = FindEntry(report, "prof.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // The outer span covers the whole window, so its total dominates;
  // the inner span burned most of the time, so it owns self samples.
  EXPECT_GT(inner->self_samples, 0);
  EXPECT_GE(outer->total_samples, inner->total_samples);
  EXPECT_EQ(inner->self_samples, inner->total_samples);
  // The profiled thread was inside a span the whole session; allow slack
  // for other registered (idle) threads from earlier tests.
  EXPECT_GE(report.AttributedFraction(), 0.5);

  // Collapsed stacks carry the nesting.
  bool found = false;
  for (const auto& kv : report.collapsed) {
    if (kv.first == "prof.outer;prof.inner" && kv.second > 0) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(SamplingProfilerTest, SurvivesConcurrentSpanChurn) {
  ProfilerSession session(1000.0);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&stop] {
      while (!stop.load()) {
        obs::ScopedSpan a("churn.a");
        obs::ScopedSpan b("churn.b");
        obs::ScopedSpan c("churn.c");
      }
    });
  }
  BusyMs(60);
  stop.store(true);
  for (std::thread& w : workers) w.join();
  obs::SamplingProfiler::Global().Stop();

  obs::ProfileReport report = obs::SamplingProfiler::Global().Report();
  EXPECT_GT(report.samples, 0);
  // Spans churn far faster than the sampler; we only require sane
  // bookkeeping, not that any particular frame was caught mid-flight.
  for (const obs::ProfileEntry& e : report.entries) {
    EXPECT_GE(e.total_samples, e.self_samples);
  }
}

TEST(SamplingProfilerTest, WritesFlatAndCollapsedOutput) {
  ProfilerSession session(500.0);
  {
    obs::ScopedSpan span("prof.report_fmt");
    BusyMs(30);
  }
  obs::SamplingProfiler::Global().Stop();

  std::ostringstream flat;
  obs::SamplingProfiler::Global().WriteFlat(flat);
  EXPECT_NE(flat.str().find("prof.report_fmt"), std::string::npos);

  std::ostringstream collapsed;
  obs::SamplingProfiler::Global().WriteCollapsed(collapsed);
  EXPECT_NE(collapsed.str().find("prof.report_fmt "), std::string::npos);
}

TEST(KernelFlopsTest, MatMulCountsExactNominalCost) {
  // 2*m*k*n FLOPs and 4*(m*k + k*n + m*n) bytes for [3,4] x [4,5].
  core::Tensor a({3, 4});
  core::Tensor b({4, 5});
  for (int64_t i = 0; i < a.size(); ++i) a.at(i) = 1.0f + i;
  for (int64_t i = 0; i < b.size(); ++i) b.at(i) = 0.5f * i;

  int64_t flops_before = obs::TotalFlops();
  int64_t bytes_before = obs::TotalBytes();
  core::Tensor c = core::MatMul(a, b);
  EXPECT_EQ(obs::TotalFlops() - flops_before, 2 * 3 * 4 * 5);
  EXPECT_EQ(obs::TotalBytes() - bytes_before,
            4 * (3 * 4 + 4 * 5 + 3 * 5));

  // Zero-heavy inputs must count the same nominal cost even though the
  // kernel skips zero multiplies.
  a.Fill(0.0f);
  flops_before = obs::TotalFlops();
  c = core::MatMul(a, b);
  EXPECT_EQ(obs::TotalFlops() - flops_before, 2 * 3 * 4 * 5);
}

TEST(KernelFlopsTest, ChargesInnermostSpanWhileProfiling) {
  obs::SetSpanStacksEnabled(true);
  obs::ResetSpanCosts();
  core::Rng rng(11);
  core::Tensor a = rng.GaussianTensor({3, 4}, 1.0);
  core::Tensor b = rng.GaussianTensor({4, 5}, 1.0);
  {
    obs::ScopedSpan span("flops.attribution");
    core::Tensor c = core::MatMul(a, b);
  }
  obs::SetSpanStacksEnabled(false);

  std::map<std::string, obs::SpanCost> costs = obs::SpanCostSnapshot();
  ASSERT_TRUE(costs.count("flops.attribution"));
  EXPECT_EQ(costs["flops.attribution"].flops, 2 * 3 * 4 * 5);
  EXPECT_EQ(costs["flops.attribution"].bytes,
            4 * (3 * 4 + 4 * 5 + 3 * 5));
}

TEST(RunManifestTest, JsonRoundTripPreservesEveryField) {
  obs::RunManifest m = obs::CollectRunManifest();
  EXPECT_FALSE(m.timestamp.empty());
  EXPECT_FALSE(m.git_sha.empty());
  EXPECT_FALSE(m.compiler.empty());
  EXPECT_GT(m.cores, 0);

  obs::RunManifest back;
  ASSERT_TRUE(obs::ParseRunManifestJson(obs::RunManifestJson(m), &back));
  EXPECT_EQ(back.timestamp, m.timestamp);
  EXPECT_EQ(back.git_sha, m.git_sha);
  EXPECT_EQ(back.compiler, m.compiler);
  EXPECT_EQ(back.flags, m.flags);
  EXPECT_EQ(back.cpu, m.cpu);
  EXPECT_EQ(back.cores, m.cores);

  // The shared JSONL header row wraps the same object.
  std::string row = obs::RunManifestHeaderRow();
  EXPECT_EQ(row.rfind("{\"manifest\":", 0), 0u);
  ASSERT_TRUE(obs::ParseRunManifestJson(row, &back));
  EXPECT_EQ(back.git_sha, m.git_sha);
}

TEST(PerfGateTest, MetricDirectionFollowsNameSuffix) {
  constexpr auto kHigher = obs::MetricDirection::kHigherIsBetter;
  constexpr auto kLower = obs::MetricDirection::kLowerIsBetter;
  constexpr auto kUnknown = obs::MetricDirection::kUnknown;
  EXPECT_EQ(obs::DirectionOf("matmul128/gflops"), kHigher);
  EXPECT_EQ(obs::DirectionOf("rqvae_quantize/items_per_sec"), kHigher);
  EXPECT_EQ(obs::DirectionOf("decode/ops_per_sec"), kHigher);
  EXPECT_EQ(obs::DirectionOf("serve/req_per_sec"), kHigher);
  EXPECT_EQ(obs::DirectionOf("net_rpc32/roundtrips_per_sec"), kHigher);
  EXPECT_EQ(obs::DirectionOf("matmul128/p50_ms"), kLower);
  EXPECT_EQ(obs::DirectionOf("serve/p95_ms"), kLower);
  EXPECT_EQ(obs::DirectionOf("llm_decode/mean_ms"), kLower);
  // No guessing from a near miss or a bare name.
  EXPECT_EQ(obs::DirectionOf("net/frames_per_tick"), kUnknown);
  EXPECT_EQ(obs::DirectionOf("k/gflops_x"), kUnknown);
  EXPECT_EQ(obs::DirectionOf("gflops"), kUnknown);
}

TEST(PerfGateTest, EveryBaselineMetricHasADirection) {
  obs::PerfRecord baseline;
  ASSERT_TRUE(obs::ReadPerfRecordFile(
      std::string(LCREC_SOURCE_DIR) + "/bench/baseline.json", &baseline));
  ASSERT_FALSE(baseline.metrics.empty());
  for (const auto& kv : baseline.metrics) {
    EXPECT_NE(obs::DirectionOf(kv.first), obs::MetricDirection::kUnknown)
        << kv.first;
  }
}

TEST(PerfGateTest, ThroughputDropOnRoundtripsRegresses) {
  obs::PerfRecord baseline;
  baseline.metrics["net_rpc32/roundtrips_per_sec"] = {1000.0, 0.25};
  obs::PerfRecord drop = baseline;
  drop.metrics["net_rpc32/roundtrips_per_sec"].value = 170.0;  // -83%
  obs::PerfGateResult r = obs::ComparePerf(baseline, drop);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.diffs.size(), 1u);
  EXPECT_TRUE(r.diffs[0].regressed);
  obs::PerfRecord rise = baseline;
  rise.metrics["net_rpc32/roundtrips_per_sec"].value = 2000.0;
  EXPECT_TRUE(obs::ComparePerf(baseline, rise).ok);
}

TEST(PerfGateTest, UnknownSuffixIsAnErrorNotAGuess) {
  obs::PerfRecord baseline;
  baseline.metrics["k/p50_ms"] = {1.0, 0.25};
  baseline.metrics["k/frames_per_tick"] = {4.0, 0.25};
  obs::PerfGateResult r = obs::ComparePerf(baseline, baseline);  // unchanged
  EXPECT_FALSE(r.ok);
  bool flagged = false;
  for (const obs::PerfDiff& d : r.diffs) {
    if (d.name == "k/frames_per_tick") flagged = d.unknown_direction;
    if (d.name == "k/p50_ms") {
      EXPECT_FALSE(d.unknown_direction);
    }
  }
  EXPECT_TRUE(flagged);
  EXPECT_NE(obs::FormatPerfDiff(r).find("NO DIRECTION"), std::string::npos);

  // A newly measured metric with an unknown suffix fails the gate too.
  obs::PerfRecord known;
  known.metrics["k/p50_ms"] = {1.0, 0.25};
  obs::PerfRecord added = known;
  added.metrics["k2/frames_per_tick"] = {4.0, 0.25};
  EXPECT_FALSE(obs::ComparePerf(known, added).ok);
}

TEST(PerfGateTest, RecordJsonRoundTrips) {
  obs::PerfRecord rec;
  rec.manifest = obs::CollectRunManifest();
  rec.metrics["matmul128/p50_ms"] = {1.25, 0.4};
  rec.metrics["matmul128/gflops"] = {3.5, 0.5};

  obs::PerfRecord back;
  ASSERT_TRUE(obs::ParsePerfRecordJson(obs::PerfRecordJson(rec), &back));
  ASSERT_EQ(back.metrics.size(), 2u);
  EXPECT_DOUBLE_EQ(back.metrics["matmul128/p50_ms"].value, 1.25);
  EXPECT_DOUBLE_EQ(back.metrics["matmul128/p50_ms"].tolerance, 0.4);
  EXPECT_DOUBLE_EQ(back.metrics["matmul128/gflops"].value, 3.5);
  EXPECT_EQ(back.manifest.git_sha, rec.manifest.git_sha);

  std::string path =
      testing::TempDir() + "/lcrec_perfgate_roundtrip.json";
  ASSERT_TRUE(obs::WritePerfRecordFile(path, rec));
  obs::PerfRecord from_file;
  ASSERT_TRUE(obs::ReadPerfRecordFile(path, &from_file));
  EXPECT_EQ(from_file.metrics.size(), 2u);
  std::remove(path.c_str());
}

TEST(PerfGateTest, DoctoredBaselineTriggersFailure) {
  obs::PerfRecord baseline;
  baseline.metrics["k/p50_ms"] = {1.0, 0.25};
  baseline.metrics["k/gflops"] = {10.0, 0.25};

  // Within tolerance: passes.
  obs::PerfRecord ok = baseline;
  ok.metrics["k/p50_ms"].value = 1.2;
  ok.metrics["k/gflops"].value = 8.5;
  EXPECT_TRUE(obs::ComparePerf(baseline, ok).ok);

  // Latency regression (2x slower than the doctored baseline).
  obs::PerfRecord slow = baseline;
  slow.metrics["k/p50_ms"].value = 2.0;
  obs::PerfGateResult r = obs::ComparePerf(baseline, slow);
  EXPECT_FALSE(r.ok);
  bool flagged = false;
  for (const obs::PerfDiff& d : r.diffs) {
    if (d.name == "k/p50_ms") {
      EXPECT_TRUE(d.regressed);
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged);
  EXPECT_NE(obs::FormatPerfDiff(r).find("FAIL"), std::string::npos);
  EXPECT_NE(obs::FormatPerfDiff(r).find("REGRESSED"), std::string::npos);

  // Throughput direction: dropping gflops is a regression, raising p50
  // throughput-named metrics is not.
  obs::PerfRecord low_tput = baseline;
  low_tput.metrics["k/gflops"].value = 5.0;
  EXPECT_FALSE(obs::ComparePerf(baseline, low_tput).ok);
  obs::PerfRecord fast = baseline;
  fast.metrics["k/p50_ms"].value = 0.2;
  fast.metrics["k/gflops"].value = 40.0;
  EXPECT_TRUE(obs::ComparePerf(baseline, fast).ok);

  // A metric present in the baseline but missing now fails the gate; a
  // new metric is informational only.
  obs::PerfRecord missing = baseline;
  missing.metrics.erase("k/gflops");
  EXPECT_FALSE(obs::ComparePerf(baseline, missing).ok);
  obs::PerfRecord added = baseline;
  added.metrics["k2/p50_ms"] = {3.0, 0.25};
  obs::PerfGateResult ra = obs::ComparePerf(baseline, added);
  EXPECT_TRUE(ra.ok);
  bool saw_added = false;
  for (const obs::PerfDiff& d : ra.diffs) {
    if (d.name == "k2/p50_ms") saw_added = d.added;
  }
  EXPECT_TRUE(saw_added);
}

TEST(PrometheusTest, ExposesAllMetricTypes) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("lcrec.promtest.requests").Add(7);
  reg.GetGauge("lcrec.promtest.temp").Set(2.5);
  obs::Histogram& h =
      reg.GetHistogram("lcrec.promtest.lat_ms", {1.0, 10.0});
  h.Observe(0.5);
  h.Observe(5.0);
  h.Observe(50.0);

  std::ostringstream out;
  reg.DumpPrometheus(out);
  std::string text = out.str();

  // Dots sanitize to underscores; each family gets a TYPE line.
  EXPECT_NE(text.find("# TYPE lcrec_promtest_requests counter"),
            std::string::npos);
  EXPECT_NE(text.find("lcrec_promtest_requests 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lcrec_promtest_temp gauge"),
            std::string::npos);
  EXPECT_NE(text.find("lcrec_promtest_temp 2.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lcrec_promtest_lat_ms histogram"),
            std::string::npos);
  // Buckets are cumulative with an explicit +Inf bucket.
  EXPECT_NE(text.find("lcrec_promtest_lat_ms_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("lcrec_promtest_lat_ms_bucket{le=\"10\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("lcrec_promtest_lat_ms_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("lcrec_promtest_lat_ms_count 3"), std::string::npos);
  EXPECT_NE(text.find("lcrec_promtest_lat_ms_sum 55.5"), std::string::npos);
}

/// Exposition-format conformance, via the shared checker
/// (obs/promcheck.h): every line of the dump must be either a
/// `# TYPE <name> <counter|gauge|histogram>` line or a sample
/// `<name>[{le="<bound>"}] <value>`, names must match the Prometheus
/// grammar, TYPE must precede its family's samples, histogram buckets
/// must be cumulative with the +Inf bucket equal to _count, and
/// non-finite values must render as +Inf/-Inf/NaN (never JSON null).
TEST(PrometheusTest, ExpositionFormatConformance) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("lcrec.promconf.requests").Add(3);
  reg.GetGauge("lcrec.promconf.nan_gauge")
      .Set(std::numeric_limits<double>::quiet_NaN());
  reg.GetGauge("lcrec.promconf.inf_gauge")
      .Set(std::numeric_limits<double>::infinity());
  obs::Histogram& h =
      reg.GetHistogram("lcrec.promconf.lat_ms", {0.5, 1.0, 10.0});
  for (double v : {0.1, 0.7, 0.8, 5.0, 100.0}) h.Observe(v);

  std::ostringstream out;
  reg.DumpPrometheus(out);

  obs::PromCheckResult check = obs::CheckPrometheusExposition(out.str());
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_GT(check.lines, 0);
  // The registry is process-global, so every histogram any test touched
  // is in the dump; the checker verified +Inf == _count for all of them.
  EXPECT_GE(check.histograms, 1);
  EXPECT_GE(check.families, 4);
  // The NaN gauge rendered as literal NaN.
  EXPECT_NE(out.str().find("lcrec_promconf_nan_gauge NaN"),
            std::string::npos);
  EXPECT_NE(out.str().find("lcrec_promconf_inf_gauge +Inf"),
            std::string::npos);
}

/// A scrape racing concurrent Observe calls still renders a consistent
/// histogram: cumulative buckets, and +Inf == _count, because both come
/// from one bucket snapshot rather than separate loads of count().
TEST(PrometheusTest, ConcurrentObserveKeepsInfBucketEqualToCount) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Histogram& h =
      reg.GetHistogram("lcrec.promrace.lat_ms", {1.0, 10.0});
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&h, &stop, t] {
      // 0.5, 5 and 50 land in the two finite buckets and the overflow.
      for (int i = t; !stop.load(std::memory_order_relaxed); ++i) {
        h.Observe(i % 3 == 0 ? 0.5 : i % 3 == 1 ? 5.0 : 50.0);
      }
    });
  }
  std::string first_error;
  for (int scrape = 0; scrape < 3000 && first_error.empty(); ++scrape) {
    std::ostringstream out;
    reg.DumpPrometheus(out);
    obs::PromCheckResult check = obs::CheckPrometheusExposition(out.str());
    if (!check.ok) first_error = check.error;
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
  EXPECT_TRUE(first_error.empty()) << first_error;
  EXPECT_GT(h.count(), 0);
}

/// The checker itself rejects the violations it claims to: a mutated
/// dump must fail, so "scrape passed the checker" in the live tests and
/// the CI probe is meaningful.
TEST(PrometheusTest, ExpositionCheckerRejectsViolations) {
  const std::string good =
      "# TYPE lcrec_chk_lat histogram\n"
      "lcrec_chk_lat_bucket{le=\"1\"} 1\n"
      "lcrec_chk_lat_bucket{le=\"+Inf\"} 2\n"
      "lcrec_chk_lat_sum 3.5\n"
      "lcrec_chk_lat_count 2\n";
  EXPECT_TRUE(obs::CheckPrometheusExposition(good).ok);

  struct Case {
    const char* why;
    const char* text;
  };
  const Case bad_cases[] = {
      {"blank line", "# TYPE a counter\n\na 1\n"},
      {"null value", "# TYPE a gauge\na null\n"},
      {"sample before TYPE", "a 1\n# TYPE a counter\n"},
      {"duplicate TYPE", "# TYPE a counter\n# TYPE a counter\na 1\n"},
      {"bad type", "# TYPE a summary\na 1\n"},
      {"bad name", "# TYPE 9a counter\n9a 1\n"},
      {"bad value", "# TYPE a counter\na one\n"},
      {"non-cumulative buckets",
       "# TYPE h histogram\nh_bucket{le=\"1\"} 5\n"
       "h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n"},
      {"+Inf != count",
       "# TYPE h histogram\nh_bucket{le=\"1\"} 1\n"
       "h_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n"},
      {"histogram without +Inf",
       "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
  };
  for (const Case& c : bad_cases) {
    EXPECT_FALSE(obs::CheckPrometheusExposition(c.text).ok) << c.why;
  }
}

}  // namespace

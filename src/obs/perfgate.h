#ifndef LCREC_OBS_PERFGATE_H_
#define LCREC_OBS_PERFGATE_H_

#include <map>
#include <string>
#include <vector>

#include "obs/manifest.h"

namespace lcrec::obs {

/// One benchmark metric with its per-metric tolerance band: the allowed
/// relative change before the gate fails (0.25 = 25%). Direction comes
/// from the metric name: names ending in "/gflops", "/ops_per_sec", or
/// "/items_per_sec" are higher-is-better; everything else (latencies)
/// is lower-is-better.
struct PerfMetric {
  double value = 0.0;
  double tolerance = 0.25;
};

/// A full benchmark record: run manifest + named metrics. Serialized as
/// BENCH_<git-sha>.json by bench_perfgate; the committed
/// bench/baseline.json uses the same schema.
struct PerfRecord {
  RunManifest manifest;
  std::map<std::string, PerfMetric> metrics;
};

/// Pretty-printed JSON:
///   {
///     "manifest": {...},
///     "metrics": {
///       "matmul128/p50_ms": {"value":1.25,"tolerance":0.4},
///       ...
///     }
///   }
std::string PerfRecordJson(const PerfRecord& record);

/// Parses PerfRecordJson output (tolerant of whitespace). Returns false
/// when the document has no "metrics" object.
bool ParsePerfRecordJson(const std::string& json, PerfRecord* out);

bool WritePerfRecordFile(const std::string& path, const PerfRecord& record);
bool ReadPerfRecordFile(const std::string& path, PerfRecord* out);

/// Verdict for one metric of the baseline/current pair.
struct PerfDiff {
  std::string name;
  double baseline = 0.0;
  double current = 0.0;
  double change = 0.0;     // (current - baseline) / baseline
  double tolerance = 0.0;  // band that applied (from the baseline record)
  bool higher_is_better = false;
  /// The name's suffix is not in the direction table: the gate cannot
  /// tell a regression from an improvement, so the metric fails.
  bool unknown_direction = false;
  bool regressed = false;
  bool missing = false;  // in baseline but not measured now (also fails)
  bool added = false;    // measured now but not in baseline (informational)
};

struct PerfGateResult {
  std::vector<PerfDiff> diffs;  // baseline order, then added metrics
  bool ok = true;  // no regression, missing metric or unknown direction
};

enum class MetricDirection { kHigherIsBetter, kLowerIsBetter, kUnknown };

/// Direction of a metric from its name's `/<suffix>`: throughput suffixes
/// (gflops, *_per_sec) are higher-is-better, latency suffixes (p50_ms,
/// p95_ms, mean_ms) lower-is-better. The table covers every suffix
/// bench_perfgate records; any other name is kUnknown, never a guess.
MetricDirection DirectionOf(const std::string& metric);

PerfGateResult ComparePerf(const PerfRecord& baseline,
                           const PerfRecord& current);

/// Human-readable per-metric table with a PASS/FAIL verdict line,
/// suitable for CI logs.
std::string FormatPerfDiff(const PerfGateResult& result);

}  // namespace lcrec::obs

#endif  // LCREC_OBS_PERFGATE_H_

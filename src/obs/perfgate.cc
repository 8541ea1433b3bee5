#include "obs/perfgate.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/export.h"

namespace lcrec::obs {

namespace {

/// Returns the balanced {...} object starting at json[open] (which must
/// be '{'), or "" on malformed input. Quote-aware so braces inside
/// string values cannot desynchronize the walk.
std::string BalancedObject(const std::string& json, size_t open) {
  if (open >= json.size() || json[open] != '{') return "";
  int depth = 0;
  bool in_string = false;
  for (size_t p = open; p < json.size(); ++p) {
    char c = json[p];
    if (in_string) {
      if (c == '\\') {
        ++p;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0) return json.substr(open, p - open + 1);
    }
  }
  return "";
}

size_t FindKey(const std::string& json, const std::string& key) {
  return json.find("\"" + key + "\"");
}

}  // namespace

std::string PerfRecordJson(const PerfRecord& record) {
  std::string out = "{\n  \"manifest\": " + RunManifestJson(record.manifest) +
                    ",\n  \"metrics\": {\n";
  size_t i = 0;
  for (const auto& kv : record.metrics) {
    out += "    \"" + JsonEscape(kv.first) +
           "\": {\"value\":" + JsonNumber(kv.second.value) +
           ",\"tolerance\":" + JsonNumber(kv.second.tolerance) + "}";
    if (++i < record.metrics.size()) out += ",";
    out += "\n";
  }
  out += "  }\n}\n";
  return out;
}

bool ParsePerfRecordJson(const std::string& json, PerfRecord* out) {
  PerfRecord record;
  size_t mpos = FindKey(json, "manifest");
  if (mpos != std::string::npos) {
    size_t open = json.find('{', mpos + 1);
    std::string obj = BalancedObject(json, open);
    if (!obj.empty()) ParseRunManifestJson(obj, &record.manifest);
  }
  size_t pos = FindKey(json, "metrics");
  if (pos == std::string::npos) return false;
  size_t open = json.find('{', pos + std::string("\"metrics\"").size());
  std::string metrics = BalancedObject(json, open);
  if (metrics.empty()) return false;
  // Walk the metrics object: every key at depth 1 names a metric whose
  // value is a flat {"value":...,"tolerance":...} object.
  size_t p = 1;  // past the opening brace
  while (p < metrics.size()) {
    size_t key_open = metrics.find('"', p);
    if (key_open == std::string::npos) break;
    size_t key_close = metrics.find('"', key_open + 1);
    while (key_close != std::string::npos && metrics[key_close - 1] == '\\') {
      key_close = metrics.find('"', key_close + 1);
    }
    if (key_close == std::string::npos) break;
    std::string key;
    ExtractJsonString("{\"k\":" +
                          metrics.substr(key_open, key_close - key_open + 1) +
                          "}",
                      "k", &key);
    size_t obj_open = metrics.find('{', key_close + 1);
    if (obj_open == std::string::npos) break;
    std::string obj = BalancedObject(metrics, obj_open);
    if (obj.empty()) break;
    PerfMetric metric;
    if (ExtractJsonNumber(obj, "value", &metric.value)) {
      ExtractJsonNumber(obj, "tolerance", &metric.tolerance);
      record.metrics[key] = metric;
    }
    p = obj_open + obj.size();
  }
  *out = std::move(record);
  return true;
}

bool WritePerfRecordFile(const std::string& path, const PerfRecord& record) {
  if (path.empty()) return false;
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) return false;
  out << PerfRecordJson(record);
  return out.good();
}

bool ReadPerfRecordFile(const std::string& path, PerfRecord* out) {
  std::ifstream in(path);
  if (!in.is_open()) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParsePerfRecordJson(buf.str(), out);
}

MetricDirection DirectionOf(const std::string& metric) {
  static const char* const kHigher[] = {"gflops", "ops_per_sec",
                                        "items_per_sec", "req_per_sec",
                                        "roundtrips_per_sec"};
  static const char* const kLower[] = {"p50_ms", "p95_ms", "mean_ms"};
  size_t slash = metric.rfind('/');
  std::string suffix =
      slash == std::string::npos ? std::string() : metric.substr(slash + 1);
  for (const char* s : kHigher) {
    if (suffix == s) return MetricDirection::kHigherIsBetter;
  }
  for (const char* s : kLower) {
    if (suffix == s) return MetricDirection::kLowerIsBetter;
  }
  return MetricDirection::kUnknown;
}

PerfGateResult ComparePerf(const PerfRecord& baseline,
                           const PerfRecord& current) {
  PerfGateResult result;
  for (const auto& kv : baseline.metrics) {
    PerfDiff d;
    d.name = kv.first;
    d.baseline = kv.second.value;
    d.tolerance = kv.second.tolerance;
    MetricDirection dir = DirectionOf(kv.first);
    d.higher_is_better = dir == MetricDirection::kHigherIsBetter;
    d.unknown_direction = dir == MetricDirection::kUnknown;
    if (d.unknown_direction) result.ok = false;
    auto it = current.metrics.find(kv.first);
    if (it == current.metrics.end()) {
      d.missing = true;
      result.ok = false;
      result.diffs.push_back(std::move(d));
      continue;
    }
    d.current = it->second.value;
    if (d.baseline != 0.0) {
      d.change = (d.current - d.baseline) / std::abs(d.baseline);
    }
    d.regressed = !d.unknown_direction &&
                  (d.higher_is_better ? d.change < -d.tolerance
                                      : d.change > d.tolerance);
    if (d.regressed) result.ok = false;
    result.diffs.push_back(std::move(d));
  }
  for (const auto& kv : current.metrics) {
    if (baseline.metrics.count(kv.first) != 0) continue;
    PerfDiff d;
    d.name = kv.first;
    d.current = kv.second.value;
    d.tolerance = kv.second.tolerance;
    MetricDirection dir = DirectionOf(kv.first);
    d.higher_is_better = dir == MetricDirection::kHigherIsBetter;
    d.unknown_direction = dir == MetricDirection::kUnknown;
    if (d.unknown_direction) result.ok = false;
    d.added = true;
    result.diffs.push_back(std::move(d));
  }
  return result;
}

std::string FormatPerfDiff(const PerfGateResult& result) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-34s %12s %12s %9s %7s  %s\n", "metric",
                "baseline", "current", "change", "tol", "status");
  out += line;
  for (const PerfDiff& d : result.diffs) {
    const char* status = "ok";
    if (d.unknown_direction) {
      status = "NO DIRECTION";
    } else if (d.missing) {
      status = "MISSING";
    } else if (d.added) {
      status = "new";
    } else if (d.regressed) {
      status = "REGRESSED";
    }
    std::snprintf(line, sizeof(line),
                  "%-34s %12.4f %12.4f %+8.1f%% %6.0f%%  %s\n", d.name.c_str(),
                  d.baseline, d.current, 100.0 * d.change, 100.0 * d.tolerance,
                  status);
    out += line;
  }
  out += result.ok ? "perfgate: PASS\n" : "perfgate: FAIL (regression)\n";
  return out;
}

}  // namespace lcrec::obs

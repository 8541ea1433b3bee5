#include "obs/registry.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <utility>

#include "obs/export.h"
#include "obs/manifest.h"

namespace lcrec::obs {

MetricsRegistry& MetricsRegistry::Global() {
  // Heap-allocated and never destroyed so references cached by call
  // sites (and the atexit flusher below) can never dangle during static
  // destruction.
  static MetricsRegistry* global = [] {
    auto* r = new MetricsRegistry();
    std::atexit([] {
      std::string path = EnvOr("LCREC_METRICS_OUT");
      if (!path.empty()) Global().WriteJsonlFile(path);
    });
    return r;
  }();
  return *global;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

std::vector<MetricSample> MetricsRegistry::Samples() const {
  MutexLock lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& kv : counters_) {
    MetricSample s;
    s.name = kv.first;
    s.type = "counter";
    s.value = static_cast<double>(kv.second->value());
    out.push_back(std::move(s));
  }
  for (const auto& kv : gauges_) {
    MetricSample s;
    s.name = kv.first;
    s.type = "gauge";
    s.value = kv.second->value();
    out.push_back(std::move(s));
  }
  for (const auto& kv : histograms_) {
    const Histogram& h = *kv.second;
    MetricSample s;
    s.name = kv.first;
    s.type = "histogram";
    s.count = h.count();
    s.sum = h.sum();
    s.mean = h.mean();
    s.min = h.min();
    s.max = h.max();
    s.p50 = h.Quantile(0.50);
    s.p95 = h.Quantile(0.95);
    s.p99 = h.Quantile(0.99);
    out.push_back(std::move(s));
  }
  return out;
}

void MetricsRegistry::WriteJsonl(std::ostream& out) const {
  for (const MetricSample& s : Samples()) {
    if (s.type == "histogram") {
      out << "{\"name\":\"" << JsonEscape(s.name)
          << "\",\"type\":\"histogram\",\"count\":" << s.count
          << ",\"sum\":" << JsonNumber(s.sum)
          << ",\"mean\":" << JsonNumber(s.mean)
          << ",\"min\":" << JsonNumber(s.min)
          << ",\"max\":" << JsonNumber(s.max)
          << ",\"p50\":" << JsonNumber(s.p50)
          << ",\"p95\":" << JsonNumber(s.p95)
          << ",\"p99\":" << JsonNumber(s.p99) << "}\n";
    } else {
      out << "{\"name\":\"" << JsonEscape(s.name) << "\",\"type\":\"" << s.type
          << "\",\"value\":" << JsonNumber(s.value) << "}\n";
    }
  }
}

void MetricsRegistry::WriteJsonlFile(const std::string& path) const {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) return;
  out << RunManifestHeaderRow() << '\n';
  WriteJsonl(out);
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:] only.
std::string PromName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

/// Prometheus renders values as Go floats; JsonNumber's %.9g is
/// compatible, but +/-Inf and NaN must be spelled out (JsonNumber turns
/// NaN into JSON null, which the exposition format rejects).
std::string PromNumber(double v) {
  if (std::isnan(v)) return "NaN";
  if (v == std::numeric_limits<double>::infinity()) return "+Inf";
  if (v == -std::numeric_limits<double>::infinity()) return "-Inf";
  return JsonNumber(v);
}

}  // namespace

void MetricsRegistry::DumpPrometheus(std::ostream& out) const {
  MutexLock lock(mu_);
  for (const auto& kv : counters_) {
    std::string name = PromName(kv.first);
    out << "# TYPE " << name << " counter\n"
        << name << ' ' << kv.second->value() << '\n';
  }
  for (const auto& kv : gauges_) {
    std::string name = PromName(kv.first);
    out << "# TYPE " << name << " gauge\n"
        << name << ' ' << PromNumber(kv.second->value()) << '\n';
  }
  for (const auto& kv : histograms_) {
    const Histogram& h = *kv.second;
    std::string name = PromName(kv.first);
    out << "# TYPE " << name << " histogram\n";
    const std::vector<double>& bounds = h.bounds();
    std::vector<int64_t> buckets = h.bucket_counts();
    int64_t cumulative = 0;
    for (size_t i = 0; i < bounds.size(); ++i) {
      cumulative += buckets[i];
      out << name << "_bucket{le=\"" << PromNumber(bounds[i]) << "\"} "
          << cumulative << '\n';
    }
    // +Inf and _count both print the snapshot's total (overflow bucket
    // included), never a separate load of count(): concurrent Observe
    // calls would make them disagree with each other and the buckets.
    cumulative += buckets.back();
    out << name << "_bucket{le=\"+Inf\"} " << cumulative << '\n'
        << name << "_sum " << PromNumber(h.sum()) << '\n'
        << name << "_count " << cumulative << '\n';
  }
}

void MetricsRegistry::DumpPrometheusFile(const std::string& path) const {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) return;
  DumpPrometheus(out);
}

void MetricsRegistry::Reset() {
  MutexLock lock(mu_);
  for (auto& kv : counters_) kv.second->Reset();
  for (auto& kv : gauges_) kv.second->Reset();
  for (auto& kv : histograms_) kv.second->Reset();
}

std::vector<std::string> MetricsRegistry::MetricNames() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& kv : counters_) names.push_back(kv.first);
  for (const auto& kv : gauges_) names.push_back(kv.first);
  for (const auto& kv : histograms_) names.push_back(kv.first);
  return names;
}

}  // namespace lcrec::obs

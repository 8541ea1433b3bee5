// The traced run: per-layer metrics. Each layer is timed around calls
// into its module's public functions from this file, and the spans and
// counters the library already records at layer boundaries are read back
// (rec.lcrec_fit, quant.rqvae_train, llm.train_epoch, the lcrec.flops.*
// counters, serve::ServerStats and each response's stage breakdown).
// End-to-end figures never come from this run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>

#include "bench.h"
#include "core/linalg.h"
#include "core/rng.h"
#include "llm/batch.h"
#include "net/codec.h"
#include "net/frame.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "workloads.h"

namespace lcbench {

namespace core = lcrec::core;
namespace obs = lcrec::obs;

namespace {

/// One row of the layer table: which end-to-end metric the layer metric
/// should move, and on which workload.
struct LayerRow {
  const char* name;
  const char* unit;
  const char* layer;
  const char* moves;
};

const LayerRow kRows[] = {
    {"data.dataset_build_s", "s", "data", "setup_s, both workloads"},
    {"quant.rqvae_train_s", "s", "quant", "setup_s, both workloads"},
    {"llm.train_epoch_s", "s", "llm trainer", "setup_s, both workloads"},
    {"llm.train_examples_per_s", "1/s", "llm trainer", "setup_s, both workloads"},
    {"core.matmul_us", "us", "core", "setup_s, both workloads"},
    {"llm.prefill_us", "us", "llm model step", "p50_ms.light, both workloads"},
    {"llm.forward_us.lanes1", "us", "llm model step", "p50_ms.light, both workloads"},
    {"llm.forward_batch_us.lanes8", "us", "llm model step", "p50_ms.heavy serve_unique"},
    {"llm.generate_items_ms", "ms", "llm beam search", "p50_ms.light, both workloads"},
    {"llm.batch_tick_us", "us", "llm BatchEngine", "p50_ms.heavy serve_unique"},
    {"llm.lanes_per_tick", "count", "llm BatchEngine", "p50_ms.heavy serve_unique"},
    {"llm.decode_flops_per_request", "flop", "llm kernels", "p50_ms.*, both workloads"},
    {"llm.decode_bytes_per_request", "bytes", "llm kernels", "p50_ms.*, both workloads"},
    {"serve.requests", "count", "serve", "base of the serve.* shares"},
    {"serve.inline_share", "ratio", "serve scheduler", "p50_ms.* serve_unique"},
    {"serve.batch_ticks", "count", "serve scheduler", "p50_ms.* serve_unique"},
    {"serve.queue_wait_ms.p50", "ms", "serve queue", "p50_ms.heavy serve_unique"},
    {"serve.queue_wait_ms.p99", "ms", "serve queue", "p50_ms.heavy serve_unique"},
    {"serve.decode_ms.p50", "ms", "serve decode", "p50_ms.heavy serve_unique"},
    {"net.requests", "count", "net", "base of the net pass shares"},
    {"serve.cache_hit_share", "ratio", "serve cache", "traced net pass only"},
    {"serve.coalesce_share", "ratio", "serve cache", "traced net pass only"},
    {"net.codec_us", "us", "net codec", "traced net pass only"},
    {"net.frame_us", "us", "net frame", "traced net pass only"},
    {"net.overhead_ms.p50", "ms", "net RPC + router", "traced net pass only"},
    {"net.client_retries", "count", "net", "none on healthy runs"},
    {"net.router_failovers", "count", "net router", "none on healthy runs"},
    {"rec.topk_ms.p50", "ms", "rec", "p50_ms.light offline_eval"},
    {"rec.eval_users", "count", "rec", "base of rec.topk_ms.p50"},
    {"bench.generator_lag_ms.p99", "ms", "load generator", "sanity check of serve_unique latency"},
    {"bench.trace_overhead_pct", "%", "tracing", "one-caller ranking rate, traced vs untraced"},
};

/// Median per-call time in microseconds of `fn` over `batches` batches of
/// `reps` calls each.
double TimeUs(int batches, int reps, const std::function<void()>& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    double t0 = NowSec();
    for (int i = 0; i < reps; ++i) fn();
    per_call.push_back((NowSec() - t0) * 1e6 / reps);
  }
  return Median(per_call);
}

/// Durations (seconds) of every recorded span named `name`.
std::vector<double> SpanSeconds(const std::vector<obs::TraceEvent>& events,
                                const char* name) {
  std::vector<double> out;
  for (const obs::TraceEvent& e : events) {
    if (e.phase == 'X' && e.name == name) out.push_back(e.dur_us / 1e6);
  }
  return out;
}

int64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name).value();
}

int64_t DecodeFlops() {
  return CounterValue("lcrec.flops.llm.decode") +
         CounterValue("lcrec.flops.llm.decode_batch");
}
int64_t DecodeBytes() {
  return CounterValue("lcrec.bytes.llm.decode") +
         CounterValue("lcrec.bytes.llm.decode_batch");
}

/// Restores a KV cache to its first `length` positions.
void Truncate(llm::MiniLlm::KvCache* cache, int length, int d_model) {
  cache->length = length;
  for (auto& k : cache->k) k.resize(static_cast<size_t>(length) * d_model);
  for (auto& v : cache->v) v.resize(static_cast<size_t>(length) * d_model);
}

void MeasureTraining(System& sys, RunResult* r) {
  std::vector<obs::TraceEvent> events = obs::TraceRecorder::Global().Events();
  std::vector<double> rqvae = SpanSeconds(events, "quant.rqvae_train");
  std::vector<double> epochs = SpanSeconds(events, "llm.train_epoch");
  core::Rng rng(1);
  size_t examples =
      sys.model->instructions().BuildEpoch(FitConfig().mixture, rng).size();
  r->Set("quant.rqvae_train_s", Median(rqvae), "s");
  r->Set("llm.train_epoch_s", Median(epochs), "s");
  r->Set("llm.train_examples_per_s", examples / Median(epochs), "1/s");

  // The training graph's widest product: [tokens, d_model] x [d_model, d_ff].
  const rec::LcRecConfig cfg = FitConfig();
  core::Tensor a = core::Tensor::Full({cfg.llm.max_seq / 3, cfg.llm.d_model}, 0.5f);
  core::Tensor b = core::Tensor::Full({cfg.llm.d_model, cfg.llm.d_ff}, 0.25f);
  obs::ScopedSpan span("bench.core.matmul");
  r->Set("core.matmul_us", TimeUs(9, 400, [&] { core::MatMul(a, b); }), "us");
}

void MeasureModelStep(System& sys, RunResult* r) {
  const rec::LcRec& m = *sys.model;
  const llm::MiniLlm& model = m.model();
  const data::Dataset& ds = *sys.dataset;
  const int d = model.config().d_model;
  std::vector<std::vector<int>> prompts;
  for (int u = 0; u < ds.num_users(); ++u) prompts.push_back(m.PromptTokens(ds.TestContext(u)));

  {
    obs::ScopedSpan span("bench.llm.prefill");
    std::vector<double> us;
    for (int rep = 0; rep < 3; ++rep) {
      for (const auto& p : prompts) {
        llm::MiniLlm::KvCache cache = model.MakeCache();
        double t0 = NowSec();
        model.Forward(cache, p);
        us.push_back((NowSec() - t0) * 1e6);
      }
    }
    r->Set("llm.prefill_us", Median(us), "us");
  }

  // One decode step after a real prompt, on one lane and on eight.
  const int token = prompts[0].back();
  std::vector<llm::MiniLlm::KvCache> caches;
  for (int l = 0; l < 8; ++l) {
    caches.push_back(model.MakeCache());
    model.Forward(caches.back(), prompts[static_cast<size_t>(l) % prompts.size()]);
  }
  {
    obs::ScopedSpan span("bench.llm.forward_lanes1");
    llm::MiniLlm::KvCache& c = caches[0];
    const int len = c.length;
    r->Set("llm.forward_us.lanes1", TimeUs(9, 200, [&] {
             model.Forward(c, {token});
             Truncate(&c, len, d);
           }), "us");
  }
  {
    obs::ScopedSpan span("bench.llm.forward_batch_lanes8");
    std::vector<llm::MiniLlm::KvCache*> ptrs;
    std::vector<int> lens;
    for (auto& c : caches) {
      ptrs.push_back(&c);
      lens.push_back(c.length);
    }
    std::vector<std::vector<int>> toks(8, std::vector<int>{token});
    r->Set("llm.forward_batch_us.lanes8", TimeUs(9, 50, [&] {
             model.ForwardBatch(ptrs, toks);
             for (size_t l = 0; l < ptrs.size(); ++l) Truncate(ptrs[l], lens[l], d);
           }), "us");
  }
  {
    obs::ScopedSpan span("bench.llm.generate_items");
    std::vector<double> ms;
    for (int rep = 0; rep < 2; ++rep) {
      for (const auto& p : prompts) {
        double t0 = NowSec();
        llm::GenerateItems(model, p, m.trie(), m.token_map(), m.config().beam_size, kTopN);
        ms.push_back((NowSec() - t0) * 1e3);
      }
    }
    r->Set("llm.generate_items_ms", Median(ms), "ms");
  }
  {
    // Continuous batching driven from here: top up to eight lanes
    // between ticks, as the serve scheduler does.
    obs::ScopedSpan span("bench.llm.batch_engine");
    llm::BatchEngine engine(model, m.trie(), m.token_map(), m.config().beam_size);
    std::vector<double> tick_us;
    double lanes = 0.0;
    size_t next = 0;
    const size_t total = prompts.size() * 2;
    uint64_t tag = 1;
    while (next < total || !engine.Idle()) {
      while (engine.ActiveLanes() < 8 && next < total) {
        engine.Admit(tag++, prompts[next % prompts.size()], kTopN);
        ++next;
      }
      lanes += engine.ActiveLanes();
      double t0 = NowSec();
      engine.Tick();
      tick_us.push_back((NowSec() - t0) * 1e6);
    }
    r->Set("llm.batch_tick_us", Median(tick_us), "us");
    r->Set("llm.lanes_per_tick", lanes / static_cast<double>(tick_us.size()), "count");
  }
}

void MeasureServe(System& sys, const Options& opt, UniqueHistories* fresh,
                  double seconds, RunResult* r) {
  BringUp(&sys, "serve_unique", fresh);
  UniqueSource src(fresh);
  ServingChecker checker(sys, r);
  int64_t flops0 = DecodeFlops(), bytes0 = DecodeBytes();
  Windows run;
  {
    obs::ScopedSpan span("bench.serve_unique");
    run = RunWindows(sys, src, kLightRps, kHeavyRps, seconds / 2.0, 1, &checker);
  }
  serve::ServerStats st = sys.stack.server->stats();
  double n = static_cast<double>(st.requests);
  r->Set("llm.decode_flops_per_request", (DecodeFlops() - flops0) / n, "flop");
  r->Set("llm.decode_bytes_per_request", (DecodeBytes() - bytes0) / n, "bytes");
  r->Set("serve.requests", n, "count");
  r->Set("serve.inline_share", st.inline_fast_path / n, "ratio");
  r->Set("serve.batch_ticks", static_cast<double>(st.batch_ticks), "count");
  std::vector<double> queue_ms, decode_ms, lag_ms;
  for (const PhaseResult* p : run.All()) {
    for (const Shot& s : p->shots) {
      queue_ms.push_back(s.queue_ms);
      decode_ms.push_back(s.decode_ms);
    }
    std::vector<double> lag = p->LagMs();
    lag_ms.insert(lag_ms.end(), lag.begin(), lag.end());
  }
  r->Set("serve.queue_wait_ms.p50", Quantile(queue_ms, 0.5), "ms");
  r->Set("serve.queue_wait_ms.p99", Quantile(queue_ms, 0.99), "ms");
  r->Set("serve.decode_ms.p50", Quantile(decode_ms, 0.5), "ms");
  r->Set("bench.generator_lag_ms.p99", Quantile(lag_ms, 0.99), "ms");
  (void)opt;
}

void MeasureNet(System& sys, const Options& opt, UniqueHistories* fresh,
                double seconds, RunResult* r) {
  BringUp(&sys, "net", fresh);
  ZipfSource src(fresh, opt.seed);
  ServingChecker checker(sys, r);
  // A real answer for the codec and frame timings below.
  serve::RecommendRequest req;
  req.history = {sys.dataset->TestContext(0)};
  req.top_n = kTopN;
  serve::RecommendResponse resp;
  sys.Call()(req, &resp);
  // Cache hits answer in a fraction of a millisecond: rates several
  // times serve_unique's.
  const double kNetLightRps = 1000.0, kNetHeavyRps = 3000.0;
  Windows run;
  {
    obs::ScopedSpan span("bench.net");
    run = RunWindows(sys, src, kNetLightRps, kNetHeavyRps, seconds / 2.0, 1, &checker);
  }
  int64_t requests = 0, hits = 0, coalesced = 0;
  for (const auto& w : sys.stack.workers) {
    serve::ServerStats st = w->stats();
    requests += st.requests;
    hits += st.cache_hits;
    coalesced += st.coalesced;
  }
  double n = static_cast<double>(requests);
  r->Set("net.requests", n, "count");
  r->Set("serve.cache_hit_share", hits / n, "ratio");
  r->Set("serve.coalesce_share", coalesced / n, "ratio");
  std::vector<double> overhead;
  for (const PhaseResult* p : run.All()) {
    for (const Shot& s : p->shots) {
      overhead.push_back((s.done_s - s.sent_s) * 1e3 - s.server_ms);
    }
  }
  r->Set("net.overhead_ms.p50", Quantile(overhead, 0.5), "ms");
  r->Set("net.client_retries", static_cast<double>(sys.stack.client->stats().retries),
         "count");
  int64_t failovers = 0;
  for (const auto& sh : sys.stack.router->shard_stats()) failovers += sh.failovers;
  r->Set("net.router_failovers", static_cast<double>(failovers), "count");

  // Codec and frame, on the real request and answer from above.
  {
    obs::ScopedSpan span("bench.net.codec");
    r->Set("net.codec_us", TimeUs(9, 2000, [&] {
             serve::RecommendRequest q;
             serve::RecommendResponse a;
             std::string err;
             net::DecodeRecommendRequest(net::EncodeRecommendRequest(req), &q, &err);
             net::DecodeRecommendResponse(net::EncodeRecommendResponse(resp), &a, &err);
           }), "us");
  }
  {
    obs::ScopedSpan span("bench.net.frame");
    net::Frame f;
    f.type = net::FrameType::kResponse;
    f.method = 2;
    f.request_id = 7;
    f.payload = net::EncodeRecommendResponse(resp);
    r->Set("net.frame_us", TimeUs(9, 2000, [&] {
             net::Frame out;
             size_t len = 0;
             std::string err;
             net::DecodeFrame(net::EncodeFrame(f), &out, &len, &err);
           }), "us");
  }
  sys.stack.Stop();
}

void MeasureOffline(System& sys, const Options& opt, double seconds,
                    RunResult* r) {
  auto& tracer = obs::TraceRecorder::Global();
  OfflineRun run;
  {
    obs::ScopedSpan span("bench.offline_eval");
    run = DriveOffline(sys, opt.seed, seconds, 1, nullptr);
  }
  r->Set("rec.topk_ms.p50", Median(run.LatencyMs()), "ms");
  r->Set("rec.eval_users", static_cast<double>(run.calls.size()), "count");
  r->attempted += static_cast<int64_t>(run.calls.size());
  r->failed += run.unstable;

  // Tracing overhead: the same passes with the recorder off and on,
  // alternated so host drift lands on both.
  double users_off = 0, s_off = 0, users_on = 0, s_on = 0;
  for (int i = 0; i < 4; ++i) {
    bool on = i % 2 == 1;
    tracer.SetEnabled(on);
    OfflineRun pass = DriveOffline(sys, opt.seed + i, seconds / 4.0, 1, &run.first);
    (on ? users_on : users_off) += static_cast<double>(pass.calls.size());
    (on ? s_on : s_off) += pass.seconds;
  }
  tracer.SetEnabled(true);
  double off = users_off / s_off, on = users_on / s_on;
  r->Set("bench.trace_overhead_pct", (off - on) / off * 100.0, "%");
}

void WriteTable(const Options& opt, const RunResult& r) {
  std::string table = "per-layer metrics (" + opt.workload + ", seed " +
                      std::to_string(opt.seed) + ")\n";
  char line[256];
  for (const LayerRow& row : kRows) {
    auto it = r.metrics.find(row.name);
    std::snprintf(line, sizeof(line), "  %-30s %14.4f %-6s %-18s %s\n", row.name,
                  it == r.metrics.end() ? 0.0 : it->second.value, row.unit,
                  row.layer, row.moves);
    table += line;
  }
  std::fprintf(stderr, "%s", table.c_str());
  std::filesystem::create_directories(kOutDir);
  std::string stem = std::string(kOutDir) + "/" + opt.workload + "-" +
                     std::to_string(opt.seed);
  std::ofstream(stem + ".layers.txt") << table;
  obs::TraceRecorder::Global().WriteChromeTraceFile(stem + ".trace.json");
}

}  // namespace

void RunLayers(const Options& opt, RunResult* r) {
  obs::TraceRecorder::Global().SetEnabled(true);
  const double phase_s = std::max(1.0, opt.seconds / 6.0);

  {
    obs::ScopedSpan span("bench.data.dataset_build");
    std::vector<double> s;
    for (int i = 0; i < 3; ++i) {
      double t0 = NowSec();
      MakeDataset();
      s.push_back(NowSec() - t0);
    }
    r->Set("data.dataset_build_s", Median(s), "s");
  }
  UniqueHistories fresh(opt.seed);
  std::unique_ptr<System> sys;
  {
    obs::ScopedSpan span("bench.fit");
    sys = FitSystem(&fresh);
  }
  MeasureTraining(*sys, r);
  MeasureModelStep(*sys, r);
  MeasureServe(*sys, opt, &fresh, phase_s * 2.0, r);
  MeasureNet(*sys, opt, &fresh, phase_s * 2.0, r);
  MeasureOffline(*sys, opt, phase_s, r);
  if (sys->model->indexing().ConflictCount() != 0) {
    r->Fail("learned index has conflicts");
  }
  for (const LayerRow& row : kRows) {
    if (!r->metrics.count(row.name)) r->Fail(std::string("missing ") + row.name);
    r->metrics[row.name].unit = row.unit;
  }
  WriteTable(opt, *r);
}

}  // namespace lcbench

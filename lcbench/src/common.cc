#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "bench.h"
#include "net/service.h"

namespace lcbench {

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank > 0) --rank;
  return v[std::min(rank, v.size() - 1)];
}

std::vector<std::vector<double>> SplitBlocks(
    const std::vector<std::pair<double, double>>& samples, double span_s) {
  const int n = std::max(1, static_cast<int>(span_s / kBlockS));
  std::vector<std::vector<double>> out(static_cast<size_t>(n));
  for (const auto& [t, value] : samples) {
    int b = std::clamp(static_cast<int>(t / kBlockS), 0, n - 1);
    out[static_cast<size_t>(b)].push_back(value);
  }
  return out;
}

std::vector<double> BlockMedians(
    const std::vector<std::pair<double, double>>& samples, double span_s) {
  std::vector<double> out;
  for (const std::vector<double>& b : SplitBlocks(samples, span_s)) {
    if (!b.empty()) out.push_back(Median(b));
  }
  return out;
}

// ----------------------------------------------------------------- system

rec::LcRecConfig FitConfig() {
  // The integration test's micro dimensions, trained on the sequential
  // task for 8 epochs: about 3 s of single-threaded training, and a
  // model that ranks well above chance under leave-one-out.
  rec::LcRecConfig cfg = rec::LcRecConfig::Small();
  cfg.mixture = tasks::TaskMixture::SeqOnly();
  cfg.rqvae.epochs = 30;
  cfg.rqvae.levels = 3;
  cfg.rqvae.codebook_size = 24;
  cfg.llm.d_model = 24;
  cfg.llm.d_ff = 48;
  cfg.llm.n_heads = 4;
  cfg.llm.n_layers = 2;
  cfg.trainer.epochs = 8;
  cfg.instructions.max_history = 6;
  cfg.instructions.seq_targets_per_user = 2;
  cfg.beam_size = 10;
  cfg.seed = 13;
  return cfg;
}

data::Dataset MakeDataset() {
  return data::Dataset::Make(data::Domain::kGames, 0.3, 19);
}

int GeneratorThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 4 : static_cast<int>(n);
}

int ClientThreads(const std::string& stack) {
  // In the traced net pass most requests come back from a worker's cache
  // in a fraction of a millisecond while the new ones wait milliseconds
  // for a decode; four blocking callers per core keep those waits from
  // holding up the schedule.
  if (stack == "net") return 4 * GeneratorThreads();
  return GeneratorThreads();
}

void ServingStack::Stop() {
  if (router) router->Stop();
  for (auto& rpc : rpcs) rpc->Stop();
  for (auto& w : workers) w->Stop();
  if (server) server->Stop();
  client.reset();
  router.reset();
  rpcs.clear();
  workers.clear();
  server.reset();
}

namespace {

serve::ServerOptions ServeOptions(const rec::LcRec& model) {
  serve::ServerOptions so;
  so.beam_size = model.config().beam_size;
  so.max_batch_lanes = 8;
  // Every decode goes through the scheduler and BatchEngine. With the
  // inline fast path on, its racy idle check lets the server flip
  // between caller-thread decoding and batched decoding from one run to
  // the next (capacity 2384 vs 760 req/s on two runs of the same code),
  // so no figure would repeat.
  so.inline_fast_path = false;
  so.max_queue = 4096;
  // No watchdog thread and no slow-request flight events: neither is on
  // the path a request takes.
  so.watchdog_stall_ms = 0.0;
  so.slow_request_ms = 0.0;
  return so;
}

serve::PromptBuilder Builder(const rec::LcRec& model) {
  return [&model](const std::vector<int>& h) { return model.PromptTokens(h); };
}

}  // namespace

CallFn System::Call() {
  if (stack.server) {
    serve::Server* server = stack.server.get();
    return [server](const serve::RecommendRequest& req,
                    serve::RecommendResponse* resp) {
      *resp = server->Recommend(req);
      return true;
    };
  }
  if (stack.client) {
    net::RpcClient* client = stack.client.get();
    return [client](const serve::RecommendRequest& req,
                    serve::RecommendResponse* resp) {
      std::string error;
      return net::CallRecommend(client, req, resp, &error);
    };
  }
  return {};
}

std::unique_ptr<System> BuildSystem(const std::string& workload,
                                    UniqueHistories* fresh) {
  std::unique_ptr<System> sys = FitSystem(fresh);
  BringUp(sys.get(), workload, fresh);
  return sys;
}

std::unique_ptr<System> FitSystem(UniqueHistories* fresh) {
  auto sys = std::make_unique<System>();
  sys->dataset = std::make_unique<data::Dataset>(MakeDataset());
  fresh->Bind(sys->dataset.get());
  sys->model = std::make_unique<rec::LcRec>(FitConfig());
  sys->model->Fit(*sys->dataset);
  return sys;
}

void BringUp(System* sys, const std::string& stack, UniqueHistories* fresh) {
  sys->stack.Stop();
  sys->stack_name = stack;
  const rec::LcRec& m = *sys->model;
  ServingStack& st = sys->stack;
  if (stack == "serve_unique") {
    st.server = std::make_unique<serve::Server>(m.model(), m.trie(),
                                                m.token_map(), Builder(m),
                                                ServeOptions(m));
  } else if (stack == "net") {
    net::RouterOptions ro;
    for (int w = 0; w < 2; ++w) {
      st.workers.push_back(std::make_unique<serve::Server>(
          m.model(), m.trie(), m.token_map(), Builder(m), ServeOptions(m)));
      net::RpcServerOptions wo;
      wo.dispatch_threads = ClientThreads(stack);
      st.rpcs.push_back(std::make_unique<net::RpcServer>(wo));
      net::RegisterRecommendService(st.rpcs.back().get(),
                                    st.workers.back().get());
      std::string err;
      if (!st.rpcs.back()->Start(&err)) {
        std::fprintf(stderr, "lcbench: worker start failed: %s\n", err.c_str());
        std::exit(3);
      }
      ro.workers.push_back("127.0.0.1:" +
                           std::to_string(st.rpcs.back()->port()));
    }
    ro.server.dispatch_threads = ClientThreads(stack);
    st.router = std::make_unique<net::Router>(ro);
    std::string err;
    if (!st.router->Start(&err)) {
      std::fprintf(stderr, "lcbench: router start failed: %s\n", err.c_str());
      std::exit(3);
    }
    net::RpcClientOptions co;
    co.port = st.router->port();
    st.client = std::make_unique<net::RpcClient>(co);
  }

  // Warm-up: first-touch allocations, the client's channel pool and the
  // workers' code paths. Warm-up histories are never requested again.
  constexpr int kWarmup = 64;
  std::vector<std::vector<int>> warm;
  std::vector<int> ids;
  for (int i = 0; i < kWarmup; ++i) {
    warm.push_back(fresh->Next());
    ids.push_back(i);
  }
  if (CallFn call = sys->Call()) {
    PhaseResult p = RunOpenLoop(call, ids, warm, 4000.0, ClientThreads(stack),
                                sys->dataset->num_items());
    for (const Shot& s : p.shots) {
      if (!s.error.empty()) {
        std::fprintf(stderr, "lcbench: warm-up request failed\n");
        std::exit(3);
      }
    }
  } else {
    for (int i = 0; i < 8; ++i) m.TopK(warm[static_cast<size_t>(i)], kTopN);
  }
}

// --------------------------------------------------------------- requests

UniqueHistories::UniqueHistories(uint64_t seed)
    : state_(seed * 0x9E3779B97F4A7C15ull + 0x1234567ull) {}

namespace {

uint64_t ContentHash(const std::vector<int>& h) {
  uint64_t state = h.size();
  uint64_t hash = SplitMix64(&state);
  for (int item : h) {
    state ^= static_cast<uint64_t>(item) + hash;
    hash = SplitMix64(&state);
  }
  return hash;
}

}  // namespace

void UniqueHistories::Bind(const data::Dataset* dataset) {
  dataset_ = dataset;
  // The test split is served at the end of a run: keep its prompts out
  // of the generated traffic.
  const int window = FitConfig().instructions.max_history;
  context_lengths_.clear();
  for (int u = 0; u < dataset->num_users(); ++u) {
    std::vector<int> ctx = dataset->TestContext(u);
    if (static_cast<int>(ctx.size()) > window) ctx.erase(ctx.begin(), ctx.end() - window);
    ++context_lengths_[static_cast<int>(ctx.size())];
    seen_.insert(ContentHash(ctx));
  }
}

std::vector<int> UniqueHistories::Next() {
  // Lengths stay within the prompt's history window, so two distinct
  // histories always render distinct prompts.
  const int window = FitConfig().instructions.max_history;
  const auto draw = [this](size_t n) {
    return static_cast<size_t>(SplitMix64(&state_) % static_cast<uint64_t>(n));
  };
  for (;;) {
    const int user = static_cast<int>(draw(static_cast<size_t>(dataset_->num_users())));
    const std::vector<int>& seq = dataset_->sequence(user);
    // A test context is the sequence minus its last item.
    const size_t length = std::min<size_t>(static_cast<size_t>(window), seq.size() - 1);
    const size_t extra = 1 + draw(2);
    const size_t real = length - extra;
    const size_t start = draw(seq.size() - real + 1);
    std::vector<int> h(seq.begin() + static_cast<long>(start),
                       seq.begin() + static_cast<long>(start + real));
    for (size_t e = 0; e < extra; ++e) {
      h.push_back(static_cast<int>(draw(static_cast<size_t>(dataset_->num_items()))));
    }
    if (seen_.insert(ContentHash(h)).second) {
      ++made_lengths_[static_cast<int>(h.size())];
      return h;
    }
  }
}

// ------------------------------------------------------------- open loop

std::vector<double> PhaseResult::LatencyMs() const {
  std::vector<double> v;
  v.reserve(shots.size());
  for (const Shot& s : shots) v.push_back((s.done_s - s.sched_s) * 1e3);
  return v;
}

std::vector<double> PhaseResult::BlockP50() const {
  if (shots.empty() || rate <= 0.0) return {};
  std::vector<std::pair<double, double>> samples;
  for (const Shot& s : shots) {
    samples.emplace_back(s.sched_s - shots.front().sched_s,
                         (s.done_s - s.sched_s) * 1e3);
  }
  return BlockMedians(samples, static_cast<double>(shots.size()) / rate);
}

std::vector<double> PhaseResult::LagMs() const {
  std::vector<double> v;
  v.reserve(shots.size());
  for (const Shot& s : shots) v.push_back((s.sent_s - s.sched_s) * 1e3);
  return v;
}

namespace {

/// Sends one request and records its timing, answer and stage breakdown.
void Send(const CallFn& call, const std::vector<int>& history, int num_items,
          Shot* s) {
  serve::RecommendRequest req;
  req.history = history;
  req.top_n = kTopN;
  serve::RecommendResponse resp;
  s->sent_s = NowSec();
  bool transport_ok = call(req, &resp);
  s->done_s = NowSec();
  if (!transport_ok) {
    s->error = "transport failure";
  } else if (WellFormed(resp, num_items, &s->error)) {
    s->items = std::move(resp.items);
  }
  s->server_ms = static_cast<float>(resp.latency_ms);
  for (const auto& st : resp.debug.stages) {
    if (std::strcmp(st.stage, "queue_wait") == 0) s->queue_ms += st.dur_us / 1e3;
    if (std::strcmp(st.stage, "decode") == 0) s->decode_ms += st.dur_us / 1e3;
  }
}

}  // namespace

PhaseResult RunOpenLoop(const CallFn& call, const std::vector<int>& history_ids,
                        const std::vector<std::vector<int>>& histories,
                        double rate, int threads, int num_items) {
  PhaseResult out;
  out.rate = rate;
  out.shots.resize(history_ids.size());
  const double t0 = NowSec() + 0.005;
  for (size_t i = 0; i < out.shots.size(); ++i) {
    out.shots[i].history = history_ids[i];
    out.shots[i].sched_s = t0 + static_cast<double>(i) / rate;
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        size_t i = next.fetch_add(1);
        if (i >= out.shots.size()) return;
        Shot& s = out.shots[i];
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(s.sched_s))));
        Send(call, histories[static_cast<size_t>(s.history)], num_items, &s);
      }
    });
  }
  for (auto& th : pool) th.join();
  return out;
}

// ----------------------------------------------------------------- oracle

bool WellFormed(const serve::RecommendResponse& r, int num_items,
                std::string* why) {
  if (r.status != serve::Status::kOk) {
    *why = "status " + serve::StatusName(r.status);
    return false;
  }
  if (std::string(r.degrade_label) != "full") {
    *why = std::string("degraded answer: ") + r.degrade_label;
    return false;
  }
  if (static_cast<int>(r.items.size()) != kTopN) {
    *why = "answer has " + std::to_string(r.items.size()) + " items";
    return false;
  }
  std::vector<int> ids;
  for (size_t i = 0; i < r.items.size(); ++i) {
    const llm::ScoredItem& it = r.items[i];
    if (it.item < 0 || it.item >= num_items) {
      *why = "invalid item id " + std::to_string(it.item);
      return false;
    }
    if (!std::isfinite(it.logprob) || it.logprob > 0.0f) {
      *why = "bad logprob " + std::to_string(it.logprob);
      return false;
    }
    if (i > 0 && it.logprob > r.items[i - 1].logprob) {
      *why = "logprobs increase";
      return false;
    }
    ids.push_back(it.item);
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    *why = "duplicate item ids";
    return false;
  }
  return true;
}

std::vector<std::vector<llm::ScoredItem>> ReferenceTopK(
    const rec::LcRec& model, const std::vector<std::vector<int>>& histories,
    size_t from, int threads) {
  std::vector<std::vector<llm::ScoredItem>> out(histories.size() - from);
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < out.size(); i = next.fetch_add(1)) {
        out[i] = model.TopK(histories[from + i], kTopN);
      }
    });
  }
  for (auto& th : pool) th.join();
  return out;
}

bool SameRanking(const std::vector<llm::ScoredItem>& a,
                 const std::vector<llm::ScoredItem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item) return false;
    // Bit-identical logprobs: serving must reproduce the offline search.
    if (std::memcmp(&a[i].logprob, &b[i].logprob, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// ----------------------------------------------------------------- output

void RunResult::Fail(const std::string& why) {
  if (correct) notes.push_back("correctness: " + why);
  correct = false;
}

void PrintResult(const RunResult& r) {
  for (const std::string& n : r.notes) std::fprintf(stderr, "lcbench: %s\n", n.c_str());
  std::string s = "{\"correct\": ";
  s += r.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    char buf[64];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (!first) s += ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  // VmHWM, the high-water mark of this process image. getrusage's
  // ru_maxrss would not do: Linux carries the peak of the image the
  // process replaced at exec into it, so a run launched from a bigger
  // parent (the Python wrapper) would report the parent's peak.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  char line[256];
  long kib = -1;
  while (f && std::fgets(line, sizeof(line), f)) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  if (f) std::fclose(f);
  if (kib < 0) {
    std::fprintf(stderr, "lcbench: no VmHWM in /proc/self/status\n");
    std::exit(3);
  }
  return static_cast<double>(kib) / 1024.0;
}

}  // namespace lcbench

#include "obs/sync.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "core/check.h"
#include "obs/flightrec.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"

// Lock-discipline detector (absl-Mutex-style). Every obs::Mutex owns a
// LockNode; each thread keeps a stack of currently held nodes. On
// acquisition, every (held, acquiring) pair is an edge in a global
// lock-order graph. New edges take a slow path: capture the acquiring
// thread's context (held locks + live span stack), DFS the graph for a
// path acquiring→…→held — if one exists this acquisition closes a
// cycle, i.e. some interleaving of the recorded paths deadlocks — then
// publish the edge to a lock-free hash table so every later acquisition
// in the same order costs one probe, no lock.
//
// The detector's own state is guarded by a raw std::mutex on purpose:
// instrumenting the instrumentation would recurse. This file is the one
// place in src/ where the lint's raw-sync rule permits std primitives.

namespace lcrec::obs {

namespace sync_internal {

struct LockNode {
  uint32_t id = 0;
  const char* name = nullptr;  // nullptr = anonymous
  int rank = Mutex::kNoRank;
  const void* addr = nullptr;
  bool alive = true;
  std::atomic<int64_t> acquisitions{0};
  std::atomic<int64_t> contended{0};
  std::atomic<int64_t> long_holds{0};
  std::atomic<int64_t> wait_total_us{0};
  std::atomic<int64_t> wait_max_us{0};
  std::atomic<int64_t> hold_total_us{0};
  std::atomic<int64_t> hold_max_us{0};
};

namespace {

struct HeldEntry {
  const Mutex* mu = nullptr;
  LockNode* node = nullptr;
  double acquired_us = 0.0;  // 0 = untimed (anonymous mutex)
};

// Per-thread detector state. A plain (non-pointer) thread_local so it is
// reclaimed at thread exit and never shows up as an LSan leak; the
// separate POD alive-flag stays readable after destruction, turning any
// lock traffic from later-running thread_local destructors into plain
// uninstrumented locking instead of use-after-destruction.
struct ThreadSyncState;
thread_local bool t_tls_alive = false;

struct ThreadSyncState {
  std::vector<HeldEntry> held;
  int bypass = 0;
  ThreadSyncState() { t_tls_alive = true; }
  ~ThreadSyncState() { t_tls_alive = false; }
};

ThreadSyncState* Tls() {
  thread_local ThreadSyncState state;
  return t_tls_alive ? &state : nullptr;
}

struct Edge {
  uint32_t from = 0;
  uint32_t to = 0;
  std::string context;  // acquisition path that created the edge
};

constexpr size_t kEdgeTableSize = 8192;  // power of two

struct Detector {
  std::mutex mu;
  uint32_t next_id = 1;
  std::vector<LockNode*> nodes;                   // never freed; ids stable
  std::unordered_map<uint64_t, Edge> edges;       // key = from<<32 | to
  std::unordered_map<uint32_t, std::vector<uint32_t>> adj;
  std::vector<std::string> findings;
  std::atomic<int64_t> cycles{0};
  std::atomic<size_t> edge_count{0};
  size_t published = 0;  // entries in table
  // Lock-free membership filter for already-analysed edges. 0 = empty.
  std::atomic<uint64_t> table[kEdgeTableSize];
};

Detector& Det() {
  static Detector* d = new Detector();
  return *d;
}

uint64_t EdgeKey(uint32_t from, uint32_t to) {
  return (static_cast<uint64_t>(from) << 32) | to;
}

size_t EdgeSlot(uint64_t key) {
  // Fibonacci hash; table size is a power of two.
  return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> 32) &
         (kEdgeTableSize - 1);
}

bool EdgePublished(Detector& d, uint64_t key) {
  for (size_t i = EdgeSlot(key);; i = (i + 1) & (kEdgeTableSize - 1)) {
    uint64_t v = d.table[i].load(std::memory_order_acquire);
    if (v == key) return true;
    if (v == 0) return false;
  }
}

void PublishEdge(Detector& d, uint64_t key) {
  // Called with d.mu held (single writer). Keep the probe chains short:
  // once the filter is 3/4 full stop publishing — lookups miss and fall
  // through to the map under d.mu, slower but still correct.
  if (d.published >= kEdgeTableSize - kEdgeTableSize / 4) return;
  for (size_t i = EdgeSlot(key);; i = (i + 1) & (kEdgeTableSize - 1)) {
    uint64_t v = d.table[i].load(std::memory_order_relaxed);
    if (v == key) return;
    if (v == 0) {
      d.table[i].store(key, std::memory_order_release);
      ++d.published;
      return;
    }
  }
}

std::atomic<int> g_mode{-1};  // -1 = not yet resolved

DeadlockMode ResolveMode() {
#if defined(LCREC_DEADLOCK_DEFAULT_FATAL)
  DeadlockMode mode = DeadlockMode::kFatal;
#else
  DeadlockMode mode = DeadlockMode::kReport;
#endif
  if (const char* env = std::getenv("LCREC_DEADLOCK")) {
    if (std::strcmp(env, "off") == 0) mode = DeadlockMode::kOff;
    if (std::strcmp(env, "report") == 0) mode = DeadlockMode::kReport;
    if (std::strcmp(env, "fatal") == 0) mode = DeadlockMode::kFatal;
  }
  return mode;
}

DeadlockMode CurrentMode() {
  int m = g_mode.load(std::memory_order_acquire);
  if (m < 0) {
    m = static_cast<int>(ResolveMode());
    int expected = -1;
    if (!g_mode.compare_exchange_strong(expected, m,
                                        std::memory_order_acq_rel)) {
      m = expected;
    }
  }
  return static_cast<DeadlockMode>(m);
}

int64_t LongHoldThresholdUs() {
  static std::atomic<int64_t> cached{-1};
  int64_t v = cached.load(std::memory_order_acquire);
  if (v < 0) {
    v = 50000;  // 50ms default
    if (const char* env = std::getenv("LCREC_MUTEX_LONGHOLD_MS")) {
      char* end = nullptr;
      double ms = std::strtod(env, &end);
      if (end != env && ms > 0) v = static_cast<int64_t>(ms * 1000.0);
    }
    cached.store(v, std::memory_order_release);
  }
  return v;
}

// Global lcrec.obs.mutex.* metrics. Construction calls GetCounter,
// which locks the (named) registry mutex — so init is only attempted
// when the calling thread holds no obs::Mutex at all (otherwise the
// registry mutex's own instrumentation would raw-relock a mutex the
// thread already holds). Until init happens, per-node atomics still
// record everything; only the global rollup is briefly absent.
struct SyncMetrics {
  Counter& acquisitions;
  Counter& contended;
  Counter& long_holds;
  Counter& cycles;
  Gauge& edges;
  Histogram& wait_us;
  Histogram& hold_us;
};

std::atomic<SyncMetrics*> g_sync_metrics{nullptr};

SyncMetrics* SyncMetricsIfReady() {
  return g_sync_metrics.load(std::memory_order_acquire);
}

SyncMetrics* SyncMetricsMaybeInit(ThreadSyncState* t) {
  SyncMetrics* m = g_sync_metrics.load(std::memory_order_acquire);
  if (m != nullptr) return m;
  if (!t->held.empty()) return nullptr;  // registry mutex could be held
  ++t->bypass;
  MetricsRegistry& r = MetricsRegistry::Global();
  m = new SyncMetrics{
      r.GetCounter("lcrec.obs.mutex.acquisitions"),
      r.GetCounter("lcrec.obs.mutex.contended"),
      r.GetCounter("lcrec.obs.mutex.long_holds"),
      r.GetCounter("lcrec.obs.mutex.cycles"),
      r.GetGauge("lcrec.obs.mutex.edges"),
      r.GetHistogram("lcrec.obs.mutex.wait_us",
                     Histogram::ExponentialBounds(1.0, 2.0, 24)),
      r.GetHistogram("lcrec.obs.mutex.hold_us",
                     Histogram::ExponentialBounds(1.0, 2.0, 24)),
  };
  --t->bypass;
  SyncMetrics* expected = nullptr;
  if (!g_sync_metrics.compare_exchange_strong(expected, m,
                                              std::memory_order_acq_rel)) {
    delete m;  // lost the race; the metric refs are shared registry state
    m = expected;
  }
  return m;
}

std::string NodeLabel(const LockNode* node) {
  if (node->name != nullptr) return std::string("\"") + node->name + "\"";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "mutex@%p", node->addr);
  return buf;
}

std::string SpanStackString() {
  const std::vector<const char*>& frames = CurrentThreadSpanFrames();
  if (frames.empty()) return "(no live spans)";
  std::string out;
  for (const char* f : frames) {
    if (!out.empty()) out += " > ";
    out += f;
  }
  return out;
}

// "thread 3 acquiring "serve.queue" while holding ["serve.state"];
//  spans: serve.recommend > llm.decode_batch"
std::string DescribeAcquisition(const ThreadSyncState* t,
                                const LockNode* acquiring) {
  std::string out = "thread " + std::to_string(CurrentThreadId()) +
                    " acquiring " + NodeLabel(acquiring) + " while holding [";
  for (size_t i = 0; i < t->held.size(); ++i) {
    if (i > 0) out += ", ";
    out += NodeLabel(t->held[i].node);
  }
  out += "]; spans: " + SpanStackString();
  return out;
}

// DFS for a path from `from` to `goal` in the edge graph. Returns the
// node-id path (inclusive of both ends) or empty. Caller holds d.mu.
std::vector<uint32_t> FindPath(Detector& d, uint32_t from, uint32_t goal) {
  std::vector<uint32_t> path{from};
  std::vector<std::pair<uint32_t, size_t>> stack{{from, 0}};
  std::vector<uint32_t> visited{from};
  while (!stack.empty()) {
    auto& [id, next] = stack.back();
    if (id == goal) {
      path.clear();
      for (const auto& frame : stack) path.push_back(frame.first);
      return path;
    }
    auto it = d.adj.find(id);
    if (it == d.adj.end() || next >= it->second.size()) {
      stack.pop_back();
      continue;
    }
    uint32_t child = it->second[next++];
    if (std::find(visited.begin(), visited.end(), child) != visited.end()) {
      continue;
    }
    visited.push_back(child);
    stack.push_back({child, 0});
  }
  return {};
}

const LockNode* NodeById(Detector& d, uint32_t id) {
  for (const LockNode* n : d.nodes) {
    if (n->id == id) return n;
  }
  return nullptr;
}

// Renders the full cycle report: the acquisition that closed the cycle,
// then every edge along the recorded path back, each with the context
// captured when that edge was first seen. Caller holds d.mu.
std::string CycleReport(Detector& d, const ThreadSyncState* t,
                        const LockNode* held, const LockNode* acquiring,
                        const std::vector<uint32_t>& path) {
  std::string msg = "lock-order cycle: acquiring " + NodeLabel(acquiring) +
                    " while holding " + NodeLabel(held) +
                    " closes a cycle in the lock-order graph (potential "
                    "deadlock)\n";
  msg += "  this acquisition: " + DescribeAcquisition(t, acquiring) + "\n";
  // path runs acquiring -> ... -> held; each step is a recorded edge.
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    auto it = d.edges.find(EdgeKey(path[i], path[i + 1]));
    const LockNode* a = NodeById(d, path[i]);
    const LockNode* b = NodeById(d, path[i + 1]);
    msg += "  conflicting edge " + (a ? NodeLabel(a) : std::string("?")) +
           " -> " + (b ? NodeLabel(b) : std::string("?")) + " first seen: " +
           (it != d.edges.end() ? it->second.context : "(context lost)") +
           "\n";
  }
  return msg;
}

[[noreturn]] void FatalReport(ThreadSyncState* t, const char* kind,
                              const std::string& report) {
  // Permanent bypass: the abort path (flight-recorder dump, logging)
  // takes obs mutexes; re-entering the detector mid-abort would recurse.
  ++t->bypass;
  core::check_internal::CheckFailed("src/obs/sync.cc", 0, "LCREC_DEADLOCK",
                                    kind, report);
}

void RecordFinding(ThreadSyncState* t, const std::string& report) {
  ++t->bypass;
  Log(LogLevel::kError, "%s", report.c_str());
  FlightRecorder::Global().Record(FrKind::kLockOrder, "lock-order cycle", 0,
                                  0);
  if (SyncMetrics* m = SyncMetricsIfReady()) m->cycles.Increment();
  --t->bypass;
}

// A new (held, acquiring) ordering. Fast path: one acquire-load probe of
// the published-edge filter. Slow path (first sighting only): record the
// edge with its acquisition context and check whether it closes a cycle.
void NoteEdge(ThreadSyncState* t, LockNode* held, LockNode* acquiring,
              DeadlockMode mode) {
  uint64_t key = EdgeKey(held->id, acquiring->id);
  Detector& d = Det();
  if (EdgePublished(d, key)) return;
  std::string report;
  {
    std::lock_guard<std::mutex> g(d.mu);
    if (d.edges.count(key) != 0) {
      PublishEdge(d, key);
      return;
    }
    std::vector<uint32_t> path = FindPath(d, acquiring->id, held->id);
    Edge e;
    e.from = held->id;
    e.to = acquiring->id;
    e.context = DescribeAcquisition(t, acquiring);
    d.edges.emplace(key, std::move(e));
    d.adj[held->id].push_back(acquiring->id);
    d.edge_count.store(d.edges.size(), std::memory_order_relaxed);
    PublishEdge(d, key);
    if (!path.empty()) {
      report = CycleReport(d, t, held, acquiring, path);
      d.cycles.fetch_add(1, std::memory_order_relaxed);
      d.findings.push_back(report);
    }
  }
  if (SyncMetrics* m = SyncMetricsIfReady()) {
    ++t->bypass;
    m->edges.Set(
        static_cast<double>(d.edge_count.load(std::memory_order_relaxed)));
    --t->bypass;
  }
  if (!report.empty()) {
    if (mode == DeadlockMode::kFatal) {
      FatalReport(t, "lock-order cycle", report);
    }
    RecordFinding(t, report);
  }
}

}  // namespace

void BypassCurrentThread() {
  if (ThreadSyncState* t = Tls()) ++t->bypass;
}

}  // namespace sync_internal

using sync_internal::LockNode;
using sync_internal::Tls;

Mutex::Mutex() : Mutex(nullptr, kNoRank) {}

Mutex::Mutex(const char* name, int rank) {
  auto& d = sync_internal::Det();
  auto* node = new LockNode();
  node->name = name;
  node->rank = rank;
  node->addr = this;
  std::lock_guard<std::mutex> g(d.mu);
  node->id = d.next_id++;
  d.nodes.push_back(node);
  node_ = node;
}

Mutex::~Mutex() {
  // The node outlives the mutex: recorded edges and aggregate stats keep
  // referring to it by id, and ids are never reused, so a new Mutex at
  // the same address can never inherit stale edges.
  node_->alive = false;
}

void Mutex::lock() {
  DeadlockMode mode = sync_internal::CurrentMode();
  sync_internal::ThreadSyncState* t = Tls();
  if (mode == DeadlockMode::kOff || t == nullptr || t->bypass > 0) {
    mu_.lock();
    return;
  }
  LockNode* node = node_;
  bool timed = node->name != nullptr;
  sync_internal::SyncMetrics* gm =
      timed ? sync_internal::SyncMetricsMaybeInit(t) : nullptr;
  // Re-locking a mutex this thread already holds is a guaranteed
  // self-deadlock (std::mutex is non-recursive): abort before the hang,
  // in every mode.
  for (const sync_internal::HeldEntry& h : t->held) {
    if (h.mu == this) {
      sync_internal::FatalReport(
          t, "self-deadlock",
          "re-locking " + sync_internal::NodeLabel(node) +
              " already held by this thread: " +
              sync_internal::DescribeAcquisition(t, node));
    }
  }
  // Rank discipline: every held ranked mutex must rank strictly below
  // the one being acquired. An inversion is a declared-hierarchy
  // violation — a certain bug — so it aborts even in report mode.
  if (node->rank >= 0) {
    for (const sync_internal::HeldEntry& h : t->held) {
      if (h.node->rank >= 0 && h.node->rank >= node->rank) {
        sync_internal::FatalReport(
            t, "rank inversion",
            "mutex rank inversion: acquiring " +
                sync_internal::NodeLabel(node) + " (rank " +
                std::to_string(node->rank) + ") while holding " +
                sync_internal::NodeLabel(h.node) + " (rank " +
                std::to_string(h.node->rank) + ")\n  " +
                sync_internal::DescribeAcquisition(t, node) + "\n");
      }
    }
  }
  for (const sync_internal::HeldEntry& h : t->held) {
    sync_internal::NoteEdge(t, h.node, node, mode);
  }
  bool contended = false;
  int64_t wait_us = 0;
  if (!mu_.try_lock()) {
    contended = true;
    double t0 = NowMicros();
    mu_.lock();
    wait_us = static_cast<int64_t>(NowMicros() - t0);
  }
  sync_internal::HeldEntry entry;
  entry.mu = this;
  entry.node = node;
  entry.acquired_us = timed ? NowMicros() : 0.0;
  t->held.push_back(entry);
  if (timed) {
    node->acquisitions.fetch_add(1, std::memory_order_relaxed);
    if (contended) {
      node->contended.fetch_add(1, std::memory_order_relaxed);
      node->wait_total_us.fetch_add(wait_us, std::memory_order_relaxed);
      int64_t prev = node->wait_max_us.load(std::memory_order_relaxed);
      while (wait_us > prev && !node->wait_max_us.compare_exchange_weak(
                                   prev, wait_us, std::memory_order_relaxed)) {
      }
    }
    if (gm != nullptr) {
      ++t->bypass;
      gm->acquisitions.Increment();
      if (contended) {
        gm->contended.Increment();
        gm->wait_us.Observe(static_cast<double>(wait_us));
      }
      --t->bypass;
    }
  }
}

void Mutex::unlock() {
  sync_internal::ThreadSyncState* t = Tls();
  if (t == nullptr || t->bypass > 0) {
    mu_.unlock();
    return;
  }
  // Find our entry (scan from the top: lock scopes mostly nest LIFO, but
  // UniqueLock allows out-of-order release). Missing entry is fine — the
  // lock was taken with detection off or under bypass.
  int64_t hold_us = -1;
  LockNode* node = nullptr;
  for (size_t i = t->held.size(); i > 0; --i) {
    sync_internal::HeldEntry& h = t->held[i - 1];
    if (h.mu == this) {
      node = h.node;
      if (h.acquired_us > 0.0) {
        hold_us = static_cast<int64_t>(NowMicros() - h.acquired_us);
      }
      t->held.erase(t->held.begin() + static_cast<long>(i - 1));
      break;
    }
  }
  mu_.unlock();
  if (node == nullptr || hold_us < 0) return;
  node->hold_total_us.fetch_add(hold_us, std::memory_order_relaxed);
  int64_t prev = node->hold_max_us.load(std::memory_order_relaxed);
  while (hold_us > prev && !node->hold_max_us.compare_exchange_weak(
                               prev, hold_us, std::memory_order_relaxed)) {
  }
  bool long_hold = hold_us >= sync_internal::LongHoldThresholdUs();
  if (long_hold) node->long_holds.fetch_add(1, std::memory_order_relaxed);
  ++t->bypass;
  if (sync_internal::SyncMetrics* gm = sync_internal::SyncMetricsIfReady()) {
    gm->hold_us.Observe(static_cast<double>(hold_us));
    if (long_hold) gm->long_holds.Increment();
  }
  if (long_hold) {
    // node->name has process lifetime (ctor contract), safe to store.
    FlightRecorder::Global().Record(FrKind::kLongHold, node->name, hold_us,
                                    node->rank);
  }
  --t->bypass;
}

DeadlockMode GetDeadlockMode() { return sync_internal::CurrentMode(); }

void SetDeadlockMode(DeadlockMode mode) {
  sync_internal::g_mode.store(static_cast<int>(mode),
                              std::memory_order_release);
}

const char* DeadlockModeName(DeadlockMode mode) {
  switch (mode) {
    case DeadlockMode::kOff:
      return "off";
    case DeadlockMode::kReport:
      return "report";
    case DeadlockMode::kFatal:
      return "fatal";
  }
  return "?";
}

std::vector<MutexStatsRow> MutexStatsSnapshot() {
  auto& d = sync_internal::Det();
  std::vector<MutexStatsRow> rows;
  {
    std::lock_guard<std::mutex> g(d.mu);
    for (const LockNode* n : d.nodes) {
      if (n->name == nullptr) continue;
      MutexStatsRow* row = nullptr;
      for (MutexStatsRow& r : rows) {
        if (r.name == n->name) {
          row = &r;
          break;
        }
      }
      if (row == nullptr) {
        rows.emplace_back();
        row = &rows.back();
        row->name = n->name;
        row->rank = n->rank;
      }
      ++row->instances;
      row->acquisitions += n->acquisitions.load(std::memory_order_relaxed);
      row->contended += n->contended.load(std::memory_order_relaxed);
      row->long_holds += n->long_holds.load(std::memory_order_relaxed);
      row->wait_total_us += n->wait_total_us.load(std::memory_order_relaxed);
      row->wait_max_us = std::max(
          row->wait_max_us, n->wait_max_us.load(std::memory_order_relaxed));
      row->hold_total_us += n->hold_total_us.load(std::memory_order_relaxed);
      row->hold_max_us = std::max(
          row->hold_max_us, n->hold_max_us.load(std::memory_order_relaxed));
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const MutexStatsRow& a, const MutexStatsRow& b) {
              if (a.rank != b.rank) {
                // Ranked first, ascending; unranked (-1) last.
                if (a.rank < 0) return false;
                if (b.rank < 0) return true;
                return a.rank < b.rank;
              }
              return a.name < b.name;
            });
  return rows;
}

size_t LockOrderEdgeCount() {
  return sync_internal::Det().edge_count.load(std::memory_order_relaxed);
}

int64_t LockOrderCycleCount() {
  return sync_internal::Det().cycles.load(std::memory_order_relaxed);
}

std::vector<std::string> LockOrderFindings() {
  auto& d = sync_internal::Det();
  std::lock_guard<std::mutex> g(d.mu);
  return d.findings;
}

void ResetDeadlockStateForTest() {
  auto& d = sync_internal::Det();
  std::lock_guard<std::mutex> g(d.mu);
  d.edges.clear();
  d.adj.clear();
  d.findings.clear();
  d.cycles.store(0, std::memory_order_relaxed);
  d.edge_count.store(0, std::memory_order_relaxed);
  d.published = 0;
  for (auto& slot : d.table) slot.store(0, std::memory_order_relaxed);
  for (LockNode* n : d.nodes) {
    n->acquisitions.store(0, std::memory_order_relaxed);
    n->contended.store(0, std::memory_order_relaxed);
    n->long_holds.store(0, std::memory_order_relaxed);
    n->wait_total_us.store(0, std::memory_order_relaxed);
    n->wait_max_us.store(0, std::memory_order_relaxed);
    n->hold_total_us.store(0, std::memory_order_relaxed);
    n->hold_max_us.store(0, std::memory_order_relaxed);
  }
}

std::string MutexzText() {
  auto& d = sync_internal::Det();
  std::vector<MutexStatsRow> rows = MutexStatsSnapshot();
  std::string out = "deadlock detector: mode ";
  out += DeadlockModeName(GetDeadlockMode());
  out += " | lock-order edges " + std::to_string(LockOrderEdgeCount());
  out += " | cycles " + std::to_string(LockOrderCycleCount());
  out += " | long-hold threshold " +
         std::to_string(sync_internal::LongHoldThresholdUs() / 1000) + "ms\n\n";
  out +=
      "rank  name                        inst        acq  contended  "
      "wait_us(tot/max)  hold_us(tot/max)  long_holds\n";
  char line[256];
  for (const MutexStatsRow& r : rows) {
    char rank[16];
    if (r.rank >= 0) {
      std::snprintf(rank, sizeof(rank), "%4d", r.rank);
    } else {
      std::snprintf(rank, sizeof(rank), "   -");
    }
    std::snprintf(line, sizeof(line),
                  "%s  %-26s  %4d  %9lld  %9lld  %8lld/%-7lld  %8lld/%-7lld  "
                  "%10lld\n",
                  rank, r.name.c_str(), r.instances,
                  static_cast<long long>(r.acquisitions),
                  static_cast<long long>(r.contended),
                  static_cast<long long>(r.wait_total_us),
                  static_cast<long long>(r.wait_max_us),
                  static_cast<long long>(r.hold_total_us),
                  static_cast<long long>(r.hold_max_us),
                  static_cast<long long>(r.long_holds));
    out += line;
  }
  out += "\nlock-order edges (held -> acquired):\n";
  {
    std::lock_guard<std::mutex> g(d.mu);
    if (d.edges.empty()) out += "  (none)\n";
    std::vector<std::string> edge_lines;
    for (const auto& kv : d.edges) {
      const LockNode* a = sync_internal::NodeById(d, kv.second.from);
      const LockNode* b = sync_internal::NodeById(d, kv.second.to);
      edge_lines.push_back(
          "  " + (a ? sync_internal::NodeLabel(a) : std::string("?")) + " -> " +
          (b ? sync_internal::NodeLabel(b) : std::string("?")) + "\n");
    }
    std::sort(edge_lines.begin(), edge_lines.end());
    edge_lines.erase(std::unique(edge_lines.begin(), edge_lines.end()),
                     edge_lines.end());
    for (const std::string& l : edge_lines) out += l;
    out += "\nfindings:\n";
    if (d.findings.empty()) out += "  (none)\n";
    for (const std::string& f : d.findings) out += f;
  }
  return out;
}

}  // namespace lcrec::obs

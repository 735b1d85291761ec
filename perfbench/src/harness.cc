#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/clock.h"
#include "common/metrics.h"

namespace perfbench {
namespace {

using datalinks::SystemClock;

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics, printed by untraced runs (--trace 0).
constexpr MetricDef kEndToEnd[] = {
    {"throughput_tps", "1/s"}, {"latency_p50_us", "us"}, {"latency_p99_us", "us"},
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
};

// Per-layer metrics, printed by traced runs (--trace 1).  Every workload
// prints every name; a metric the workload does not exercise reads 0 (the
// README lists which workload each metric belongs to).
constexpr MetricDef kPerLayer[] = {
    // The median reopen time of the run.  Not end-to-end: on engine_insert
    // (about 37 ms) it spreads 11% run to run on a shared 4-vCPU host.
    {"restart_s", "s"},
    {"sqldb.insert_us", "us"},
    {"sqldb.select_us", "us"},
    {"sqldb.update_us", "us"},
    {"sqldb.commit_us", "us"},
    {"sqldb.wal.commits_per_force", "ratio"},
    {"sqldb.wal.force_waits_per_commit", "ratio"},
    {"sqldb.latch.wait_us_per_txn", "us/txn"},
    {"sqldb.pool.hit_ratio", "ratio"},
    {"sqldb.pool.evictions_per_txn", "1/txn"},
    {"sqldb.rows_examined_per_stmt", "rows/stmt"},
    {"sqldb.lock.waits_per_txn", "1/txn"},
    {"sqldb.lock.wait_us_per_txn", "us/txn"},
    {"sqldb.lock.timeouts", "count"},
    {"trace.bench.txn.self_us", "us/txn"},
    {"trace.bench.stmt.self_us", "us/txn"},
    {"trace.bench.commit.self_us", "us/txn"},
    {"trace.sqldb.lock.wait.self_us", "us/txn"},
    {"trace.sqldb.latch.wait.self_us", "us/txn"},
    {"trace.sqldb.wal.force.leader.self_us", "us/txn"},
    {"trace.sqldb.wal.force.queued.self_us", "us/txn"},
    {"trace.sqldb.pool.miss.self_us", "us/txn"},
    {"trace.overhead_pct", "%"},
    {"trace.spans_dropped", "count"},
};

/// Self time per span name: a span's duration minus the part of it its
/// children cover.  A span's children are the spans naming it as parent
/// and, for spans recorded as roots (a component entry point may open a
/// fresh context), the innermost span of the same trace whose interval
/// encloses them: that stitches the benchmark's call spans and the
/// engine's spans of one transaction into one tree.
class SelfTimes {
 public:
  void Add(std::vector<trace::SpanEvent> spans) {
    std::unordered_map<uint64_t, std::vector<const trace::SpanEvent*>> by_trace;
    for (const auto& s : spans) {
      if (s.dur_micros > 0) by_trace[s.trace].push_back(&s);
    }
    for (auto& [id, list] : by_trace) AddTrace(list);
  }

  const std::map<std::string, double>& total_us() const { return total_us_; }

 private:
  void AddTrace(std::vector<const trace::SpanEvent*>& list) {
    // Outer spans first: earlier start, then longer duration.
    std::sort(list.begin(), list.end(), [](const auto* a, const auto* b) {
      if (a->ts_micros != b->ts_micros) return a->ts_micros < b->ts_micros;
      if (a->dur_micros != b->dur_micros) return a->dur_micros > b->dur_micros;
      return a->span < b->span;
    });
    const size_t n = list.size();
    std::unordered_map<uint64_t, size_t> index;
    for (size_t i = 0; i < n; ++i) index[list[i]->span] = i;
    std::vector<std::vector<size_t>> children(n);
    for (size_t i = 0; i < n; ++i) {
      const auto* s = list[i];
      auto it = s->parent != 0 ? index.find(s->parent) : index.end();
      if (it != index.end()) {
        children[it->second].push_back(i);
        continue;
      }
      // Innermost enclosing span that sorts before this one.
      size_t best = n;
      for (size_t j = 0; j < i; ++j) {
        const auto* p = list[j];
        if (p->ts_micros <= s->ts_micros &&
            p->ts_micros + p->dur_micros >= s->ts_micros + s->dur_micros &&
            (best == n || p->dur_micros <= list[best]->dur_micros)) {
          best = j;
        }
      }
      if (best != n) children[best].push_back(i);
    }
    for (size_t i = 0; i < n; ++i) {
      const int64_t lo = list[i]->ts_micros, hi = lo + list[i]->dur_micros;
      std::vector<std::pair<int64_t, int64_t>> iv;
      for (size_t c : children[i]) {
        const int64_t a = std::max(lo, list[c]->ts_micros);
        const int64_t b = std::min(hi, list[c]->ts_micros + list[c]->dur_micros);
        if (b > a) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      int64_t covered = 0, cur_a = 0, cur_b = -1;
      for (const auto& [a, b] : iv) {
        if (a > cur_b) {
          if (cur_b > cur_a) covered += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      if (cur_b > cur_a) covered += cur_b - cur_a;
      total_us_[list[i]->name] += static_cast<double>(hi - lo - covered);
    }
  }

  std::map<std::string, double> total_us_;
};

/// Round hand-off between the coordinator and the client threads.
class RoundGate {
 public:
  explicit RoundGate(int clients) : clients_(clients) {}

  /// Coordinator: release every client into `round`, wait until all are done.
  void Run(int round) {
    std::unique_lock<std::mutex> lk(mu_);
    round_ = round;
    done_ = 0;
    ++generation_;
    cv_.notify_all();
    cv_.wait(lk, [&] { return done_ == clients_; });
  }

  void Stop() {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
    ++generation_;
    cv_.notify_all();
  }

  /// Client: wait for the next round; false once stopped.
  bool Next(uint64_t* seen, int* round) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return generation_ != *seen; });
    *seen = generation_;
    *round = round_;
    return !stop_;
  }

  void Done() {
    std::lock_guard<std::mutex> lk(mu_);
    if (++done_ == clients_) cv_.notify_all();
  }

 private:
  const int clients_;
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t generation_ = 0;
  int round_ = 0;
  int done_ = 0;
  bool stop_ = false;
};

// Latency samples per measurement window: throughput_tps and the latency
// percentiles are medians over windows of consecutive rounds holding at
// least this many committed transactions, so a short disturbance of the
// host moves one window, not the run's figure.  1000 samples leave ten
// beyond the 99th percentile.
constexpr size_t kWindowSamples = 1000;

double PercentileUs(const std::vector<int64_t>& sorted_ns, double p);

/// Measurement windows.  Only the open window keeps its latency samples;
/// a closed one keeps its three figures, so the benchmark's own memory does
/// not grow with the run's length or throughput.
class Windows {
 public:
  /// Adds one timed round: its duration and every client's latency samples.
  void AddRound(int64_t ns, std::vector<ThreadCtx>& ctxs) {
    ns_ += ns;
    for (auto& c : ctxs) {
      samples_.insert(samples_.end(), c.latency_ns.begin(), c.latency_ns.end());
      c.latency_ns.clear();
    }
    if (samples_.size() >= kWindowSamples) Close();
  }

  /// The end of the timed rounds: a short last window is left out, unless
  /// no window closed at all.
  void Finish() {
    if (tps.empty() && !samples_.empty()) Close();
    samples_ = {};
  }

  std::vector<double> tps, p50, p99;
  uint64_t samples = 0;  // committed transactions in the closed windows

 private:
  void Close() {
    if (ns_ > 0) {
      std::sort(samples_.begin(), samples_.end());
      tps.push_back(static_cast<double>(samples_.size()) / (static_cast<double>(ns_) / 1e9));
      p50.push_back(PercentileUs(samples_, 0.50));
      p99.push_back(PercentileUs(samples_, 0.99));
      samples += samples_.size();
    }
    samples_.clear();
    ns_ = 0;
  }

  int64_t ns_ = 0;                // summed round time of the open window
  std::vector<int64_t> samples_;  // Begin..Commit latencies, ns
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string Num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

double PercentileUs(const std::vector<int64_t>& sorted_ns, double p) {
  if (sorted_ns.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(sorted_ns.size())));
  rank = std::clamp<size_t>(rank, 1, sorted_ns.size());
  return static_cast<double>(sorted_ns[rank - 1]) / 1000.0;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ThreadCtx::Finish(int64_t start_ns, bool ok, const std::string& error) {
  const int64_t ns = NowNs() - start_ns;
  ++attempted;
  if (!ok) {
    ++failed;
    if (errors.size() < 4) errors.push_back(error);
    return;
  }
  ++committed;
  if (!record_latency) return;
  latency_ns.push_back(ns);
  if (traced) {
    traced_ns += ns;
    ++traced_txns;
  } else {
    untraced_ns += ns;
    ++untraced_txns;
  }
}

double MeanCallUs(const std::vector<ThreadCtx>& ctxs, Call c) {
  int64_t ns = 0;
  uint64_t n = 0;
  for (const auto& t : ctxs) {
    ns += t.call_ns[static_cast<int>(c)];
    n += t.call_n[static_cast<int>(c)];
  }
  return n == 0 ? 0.0 : static_cast<double>(ns) / 1000.0 / static_cast<double>(n);
}

void Checks::Expect(bool ok, const std::string& what) {
  ++count_;
  if (!ok && failures_.size() < 20) failures_.push_back(what);
  if (!ok && failures_.size() == 20) failures_.push_back("(further failures not listed)");
}

void AddDatabaseCounters(sqldb::Database& db, const std::string& prefix, Snap* snap) {
  Snap& s = *snap;
  const sqldb::DatabaseStats st = db.stats();
  s[prefix + "commits"] += static_cast<double>(st.commits);
  s[prefix + "stmts"] += static_cast<double>(st.selects + st.updates + st.deletes);
  s[prefix + "rows_scanned"] += static_cast<double>(st.rows_scanned);
  s[prefix + "latch.wait_us"] +=
      static_cast<double>(st.latch_shared_waits_micros + st.latch_exclusive_waits_micros);
  const sqldb::WalStats w = db.wal().stats();
  s[prefix + "wal.forces"] += static_cast<double>(w.forces);
  s[prefix + "wal.force_waits"] += static_cast<double>(w.force_waits);
  s[prefix + "wal.group_commits"] += static_cast<double>(w.group_commit_commits);
  const sqldb::LockStats l = db.lock_manager().stats();
  s[prefix + "lock.waits"] += static_cast<double>(l.waits);
  s[prefix + "lock.timeouts"] += static_cast<double>(l.timeouts);
  const auto p = db.buffer_pool_stats();
  s[prefix + "pool.hits"] += static_cast<double>(p.hits);
  s[prefix + "pool.misses"] += static_cast<double>(p.misses);
  s[prefix + "pool.evictions"] += static_cast<double>(p.evictions);
  AddHistogram(db.metrics(), "sqldb.lock.wait_us", prefix + "lock.wait_us", snap);
}

namespace {
double Ratio(const Snap& d, const std::string& num, const std::string& den) {
  auto n = d.find(num), m = d.find(den);
  if (n == d.end() || m == d.end() || m->second == 0) return 0;
  return n->second / m->second;
}
double PerTxn(const Snap& d, const std::string& key, uint64_t txns) {
  auto it = d.find(key);
  return it == d.end() || txns == 0 ? 0 : it->second / static_cast<double>(txns);
}
}  // namespace

void EnginePerLayer(const Snap& d, const std::string& prefix, uint64_t txns,
                    std::map<std::string, double>* out) {
  auto& o = *out;
  o[prefix + "wal.commits_per_force"] = Ratio(d, prefix + "wal.group_commits", prefix + "wal.forces");
  o[prefix + "wal.force_waits_per_commit"] = Ratio(d, prefix + "wal.force_waits", prefix + "commits");
  o[prefix + "latch.wait_us_per_txn"] = PerTxn(d, prefix + "latch.wait_us", txns);
  const double hits = d.count(prefix + "pool.hits") ? d.at(prefix + "pool.hits") : 0;
  const double misses = d.count(prefix + "pool.misses") ? d.at(prefix + "pool.misses") : 0;
  o[prefix + "pool.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  o[prefix + "pool.evictions_per_txn"] = PerTxn(d, prefix + "pool.evictions", txns);
  o[prefix + "rows_examined_per_stmt"] = Ratio(d, prefix + "rows_scanned", prefix + "stmts");
  o[prefix + "rows_examined_per_txn"] = PerTxn(d, prefix + "rows_scanned", txns);
  o[prefix + "lock.waits_per_txn"] = PerTxn(d, prefix + "lock.waits", txns);
  o[prefix + "lock.wait_us_per_txn"] = PerTxn(d, prefix + "lock.wait_us.sum", txns);
  o[prefix + "lock.timeouts"] = d.count(prefix + "lock.timeouts") ? d.at(prefix + "lock.timeouts") : 0;
}

double HistogramMean(const Snap& d, const std::string& key) {
  return Ratio(d, key + ".sum", key + ".count");
}

void AddHistogram(metrics::Registry& reg, const std::string& name, const std::string& key,
                  Snap* snap) {
  const metrics::Histogram* h = reg.GetHistogram(name);
  (*snap)[key + ".count"] += static_cast<double>(h->count());
  (*snap)[key + ".sum"] += static_cast<double>(h->sum());
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string Payload(uint64_t seed, int64_t key, size_t len) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string out(len, ' ');
  uint64_t x = Mix(seed ^ Mix(static_cast<uint64_t>(key)));
  for (size_t i = 0; i < len; ++i) {
    if (i % 8 == 0) x = Mix(x);
    out[i] = kAlphabet[(x >> (8 * (i % 8))) % 36];
  }
  return out;
}

BenchTraceScope::BenchTraceScope(ThreadCtx& ctx, uint64_t trace_id, uint64_t txn) {
  if (!ctx.traced) return;
  scope_ = std::make_unique<trace::TraceContextScope>(
      trace_id, txn, ctx.bench_ring, SystemClock::Instance().get(), "bench");
}

BenchTraceScope::~BenchTraceScope() = default;

int RunBenchmark(const Args& args, Workload* w, int64_t process_start_ns) {
  Checks checks;
  w->Setup(args, &checks);
  const double setup_s = static_cast<double>(NowNs() - process_start_ns) / 1e9;
  std::printf("setup: %.3f s, checks %s\n", setup_s, checks.ok() ? "ok" : "FAILED");

  // The benchmark's spans and the engine's spans under its contexts go to
  // one private ring, drained at every barrier.
  std::shared_ptr<trace::TraceRing> bench_ring;
  if (args.trace) bench_ring = std::make_shared<trace::TraceRing>(1 << 18);

  std::vector<ThreadCtx> ctxs(static_cast<size_t>(args.threads));
  for (int i = 0; i < args.threads; ++i) {
    ctxs[i].thread = i;
    ctxs[i].rng.seed(Mix(args.seed * 1000003ULL + static_cast<uint64_t>(i)));
    ctxs[i].time_calls = args.trace;
    ctxs[i].bench_ring = bench_ring.get();
  }
  RoundGate gate(args.threads);
  std::vector<std::thread> clients;
  clients.reserve(ctxs.size());
  for (auto& ctx : ctxs) {
    clients.emplace_back([&gate, &ctx, w] {
      uint64_t seen = 0;
      int round = 0;
      while (gate.Next(&seen, &round)) {
        w->RunRound(ctx, round);
        gate.Done();
      }
    });
  }

  SelfTimes self_times;
  double spans_dropped = 0;
  auto drain_ring = [&](bool keep) {
    if (!bench_ring) return;
    spans_dropped += static_cast<double>(bench_ring->dropped());
    std::vector<trace::SpanEvent> spans = bench_ring->Snapshot();
    bench_ring->Clear();
    if (keep) self_times.Add(std::move(spans));
  };
  drain_ring(false);  // set-up spans are not part of any round

  const int64_t budget_ns = static_cast<int64_t>(args.seconds) * 1000000000LL;
  int64_t timed_ns = 0;
  int round = 0;
  // A restart cycle: checks on the live deployment, a crash of every
  // process, the timed reopen (whose redo covers the last round) and
  // checks after it.
  std::vector<double> restarts;
  auto restart_cycle = [&] {
    w->BeforeCrash(&checks);
    if (!checks.ok()) return;
    w->Crash();
    const int64_t r0 = NowNs();
    w->Restart(&checks);
    restarts.push_back(static_cast<double>(NowNs() - r0) / 1e9);
    if (checks.ok()) w->AfterRestart(&checks);
  };

  // Timed rounds.  Counter deltas are summed over the rounds alone, so the
  // between-round checks, housekeeping and restarts never show in the
  // per-layer metrics.  Every second round ends in a restart cycle before
  // its housekeeping, so restart samples spread over the whole run.
  Snap delta;
  Windows windows;
  while (checks.ok()) {
    // Traced and untraced rounds alternate in pairs, so each kind has as
    // many rounds right after a restart cycle (which follows every odd
    // round) as right before one.
    const bool traced = args.trace && (round / 2) % 2 == 1;
    for (auto& c : ctxs) c.traced = traced;
    const Snap before = args.trace ? w->Counters() : Snap{};
    const int64_t t0 = NowNs();
    gate.Run(round);
    const int64_t dt = NowNs() - t0;
    timed_ns += dt;
    if (args.trace) {
      for (const auto& [k, v] : w->Counters()) {
        auto it = before.find(k);
        delta[k] += v - (it == before.end() ? 0.0 : it->second);
      }
    }
    drain_ring(traced);
    windows.AddRound(dt, ctxs);
    if (round % 2 == 1) {
      w->AfterRound(round, /*last=*/true, &checks);
      if (checks.ok()) restart_cycle();
    }
    w->AfterRound(round, /*last=*/false, &checks);
    // A checkpoint per round keeps the log held in memory, and the redo a
    // restart faces, independent of how many rounds ran.
    w->Checkpoint(&checks);
    ++round;
    if (timed_ns >= budget_ns) break;
  }
  windows.Finish();
  uint64_t committed = 0;
  for (const auto& c : ctxs) committed += c.committed;
  const int timed_rounds = round;

  std::map<std::string, double> layer;
  if (args.trace) {
    w->PerLayer(delta, ctxs, committed, &layer);
    uint64_t traced_txns = 0, untraced_txns = 0;
    int64_t traced_ns = 0, untraced_ns = 0;
    for (const auto& c : ctxs) {
      traced_txns += c.traced_txns;
      untraced_txns += c.untraced_txns;
      traced_ns += c.traced_ns;
      untraced_ns += c.untraced_ns;
    }
    if (traced_txns > 0) {
      for (const auto& [name, us] : self_times.total_us()) {
        layer["trace." + name + ".self_us"] = us / static_cast<double>(traced_txns);
      }
    }
    if (traced_txns > 0 && untraced_txns > 0 && untraced_ns > 0) {
      const double t = static_cast<double>(traced_ns) / static_cast<double>(traced_txns);
      const double u = static_cast<double>(untraced_ns) / static_cast<double>(untraced_txns);
      layer["trace.overhead_pct"] = (t / u - 1.0) * 100.0;
    }
  }

  // The end of the run: one more (untimed) round after a checkpoint and a
  // last restart cycle.
  if (checks.ok()) {
    for (auto& c : ctxs) {
      c.traced = false;
      c.record_latency = false;
    }
    gate.Run(round);
    drain_ring(false);
    w->AfterRound(round, /*last=*/true, &checks);
    ++round;
    if (checks.ok()) restart_cycle();
  }
  gate.Stop();
  for (auto& t : clients) t.join();
  const double restart_s = Median(restarts);
  if (args.trace) {
    layer["trace.spans_dropped"] = spans_dropped;
    layer["restart_s"] = restart_s;
  }

  uint64_t attempted = 0, failed = 0;
  for (const auto& c : ctxs) {
    attempted += c.attempted;
    failed += c.failed;
    for (const auto& e : c.errors) std::printf("failed operation (client %d): %s\n", c.thread, e.c_str());
  }
  const double timed_s = static_cast<double>(timed_ns) / 1e9;
  std::map<std::string, double> e2e = {
      {"throughput_tps", Median(windows.tps)},
      {"latency_p50_us", Median(windows.p50)},
      {"latency_p99_us", Median(windows.p99)},
      {"setup_s", setup_s},
      {"peak_rss_mb", PeakRssMb()},
  };

  std::printf("rounds: %d timed (%.3f s, %llu committed, %zu windows), %zu restarts\n",
              timed_rounds, timed_s, static_cast<unsigned long long>(windows.samples),
              windows.tps.size(),
              restarts.size());
  std::printf("operations: attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed));
  for (const auto& m : kEndToEnd) {
    std::printf("metric %-40s %16.4f %s\n", m.name, e2e[m.name], m.unit);
  }
  std::printf("metric %-40s %16.4f s\n", "restart_s", restart_s);
  if (args.trace) {
    for (const auto& m : kPerLayer) {
      std::printf("layer  %-40s %16.4f %s\n", m.name, layer[m.name], m.unit);
    }
  }
  std::printf("checks: %zu made, %zu failed\n", checks.count(), checks.failures().size());
  for (const auto& f : checks.failures()) std::printf("CHECK FAILED: %s\n", f.c_str());

  std::string json = "{\"correct\": " + std::string(checks.ok() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& m, double v) {
    json += (first ? "\"" : ", \"") + std::string(m.name) + "\": {\"value\": " + Num(v) +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  };
  if (args.trace) {
    for (const auto& m : kPerLayer) emit(m, layer[m.name]);
  } else {
    for (const auto& m : kEndToEnd) emit(m, e2e[m.name]);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return checks.ok() ? 0 : 1;
}

}  // namespace perfbench

// Load generator, measurement and reporting shared by every workload.
//
// A run is: Setup (build the deployment, preload its state) -> rounds ->
// Finish (output checks, crash, timed restart, post-restart checks).  In a
// round every client thread runs the same fixed batch of transactions and
// then waits at a barrier; between rounds the coordinator thread checks the
// round against the workload's model and does untimed housekeeping that
// keeps the stored state the same size however many rounds run.  Rounds
// repeat until the timed part (the rounds themselves, not the
// housekeeping) reaches --seconds.
//
// With --trace 1 rounds 2-3, 6-7, 10-11, ... are traced: the benchmark
// installs trace contexts and opens its own spans around its calls into the
// program, and the spans the program records are drained from private
// rings at each barrier and reduced to self times.  The other rounds stay
// untraced; the latency difference between the two kinds is
// trace.overhead_pct.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/trace.h"
#include "sqldb/database.h"

namespace perfbench {

using datalinks::Result;
using datalinks::Status;
namespace sqldb = datalinks::sqldb;
namespace trace = datalinks::trace;
namespace metrics = datalinks::metrics;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  int threads = 0;          // 0 = nproc - 1, within [1, 4]
  std::string source_id;    // git sha or source digest, for the fingerprint
};

/// Cumulative raw counters of a deployment, summed per key.  The per-layer
/// metrics are ratios of differences between two snapshots.
using Snap = std::map<std::string, double>;

/// Adds the engine, WAL, lock-manager and buffer-pool counters of `db`
/// under `prefix` (e.g. "sqldb.").
void AddDatabaseCounters(sqldb::Database& db, const std::string& prefix, Snap* snap);
/// Adds count and sum of one histogram of `reg` as <key>.count / <key>.sum.
void AddHistogram(metrics::Registry& reg, const std::string& name,
                  const std::string& key, Snap* snap);

/// Engine-layer ratios of a counter delta `d` taken with AddDatabaseCounters
/// under `prefix`, written as <prefix><metric> (wal.commits_per_force,
/// pool.hit_ratio, rows_examined_per_stmt, lock.waits_per_txn, ...).
void EnginePerLayer(const Snap& d, const std::string& prefix, uint64_t txns,
                    std::map<std::string, double>* out);
/// Mean of a histogram delta added with AddHistogram under `key`.
double HistogramMean(const Snap& d, const std::string& key);

/// Timed calls into the program, by call name (e.g. "sqldb.insert").
enum class Call { kInsert, kSelect, kUpdate, kDelete, kCommit, kCount };

/// Per-client state for one run.  Owned by the harness; a workload touches
/// only the context of the thread it is called on.
struct ThreadCtx {
  int thread = 0;
  std::mt19937_64 rng;
  bool traced = false;      // this round is traced
  bool time_calls = false;  // --trace 1: time every call into the program
  trace::TraceRing* bench_ring = nullptr;

  uint64_t attempted = 0, failed = 0, committed = 0;
  std::vector<int64_t> latency_ns;  // committed transactions of the round
  bool record_latency = true;       // false in the untimed tail round
  int64_t traced_ns = 0, untraced_ns = 0;
  uint64_t traced_txns = 0, untraced_txns = 0;
  int64_t call_ns[static_cast<int>(Call::kCount)] = {};
  uint64_t call_n[static_cast<int>(Call::kCount)] = {};
  std::vector<std::string> errors;  // first few failures, for the log

  /// Records one attempted transaction: its Begin..Commit latency when it
  /// committed, a failure (with its status text) otherwise.
  void Finish(int64_t start_ns, bool ok, const std::string& error);
};

int64_t NowNs();

/// Times `f` as one call of kind `c` when the run times calls.
template <typename F>
auto TimeCall(ThreadCtx& ctx, Call c, F&& f) {
  if (!ctx.time_calls) return f();
  const int64_t t0 = NowNs();
  auto r = f();
  ctx.call_ns[static_cast<int>(c)] += NowNs() - t0;
  ctx.call_n[static_cast<int>(c)] += 1;
  return r;
}

/// Mean microseconds per call of kind `c` over every thread.
double MeanCallUs(const std::vector<ThreadCtx>& ctxs, Call c);

/// Output checks: each failed check is kept with its message.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  bool ok() const { return failures_.empty(); }
  size_t count() const { return count_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  size_t count_ = 0;
  std::vector<std::string> failures_;
};

/// What a workload supplies to the harness.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the deployment and preload its state.
  virtual void Setup(const Args& args, Checks* checks) = 0;
  /// One client's fixed batch of transactions for round `round`.
  virtual void RunRound(ThreadCtx& ctx, int round) = 0;
  /// Coordinator, between rounds (all clients parked): check the round
  /// against the model and do untimed housekeeping.  `last` is true after
  /// the final round, when housekeeping must leave the state as it is.
  virtual void AfterRound(int round, bool last, Checks* checks) = 0;
  /// Cumulative counters for the per-layer metrics.
  virtual Snap Counters() = 0;
  /// Per-layer metrics from the counter deltas of the timed rounds.
  virtual void PerLayer(const Snap& d, const std::vector<ThreadCtx>& ctxs,
                        uint64_t committed, std::map<std::string, double>* out) = 0;
  /// Before a crash: checks on the live deployment.
  virtual void BeforeCrash(Checks* checks) = 0;
  /// Checkpoint the database (after every round's housekeeping).
  virtual void Checkpoint(Checks* checks) = 0;
  /// Crash the database: volatile state is lost, the durable store survives.
  virtual void Crash() = 0;
  /// Reopen the database from its durable store.  Timed by the harness as
  /// restart_s.
  virtual void Restart(Checks* checks) = 0;
  /// After the restart: the state must equal the model.
  virtual void AfterRestart(Checks* checks) = 0;
};

std::unique_ptr<Workload> MakeEngineInsert();
std::unique_ptr<Workload> MakeEngineLookup();

/// Runs `w` under `args` and prints the report; returns the exit code.
int RunBenchmark(const Args& args, Workload* w, int64_t process_start_ns);

// --- Helpers shared by the workloads ----------------------------------------

/// splitmix64: the benchmark derives payloads and orders from it.
uint64_t Mix(uint64_t x);
/// Payload of `len` characters the benchmark derives from (seed, key).
std::string Payload(uint64_t seed, int64_t key, size_t len);
/// Deterministic shuffle of `v` from (seed, a, b).
template <typename T>
void Shuffle(std::vector<T>* v, uint64_t seed, uint64_t a, uint64_t b) {
  std::mt19937_64 rng(Mix(seed ^ Mix(a * 0x9e3779b97f4a7c15ULL + b)));
  std::shuffle(v->begin(), v->end(), rng);
}

/// Installs the ambient trace context of a traced round for the current
/// thread; a no-op in untraced rounds.
class BenchTraceScope {
 public:
  BenchTraceScope(ThreadCtx& ctx, uint64_t trace_id, uint64_t txn);
  ~BenchTraceScope();
  BenchTraceScope(const BenchTraceScope&) = delete;
  BenchTraceScope& operator=(const BenchTraceScope&) = delete;

 private:
  std::unique_ptr<trace::TraceContextScope> scope_;
};

}  // namespace perfbench

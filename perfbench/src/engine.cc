// engine_insert and engine_lookup: sqldb::Database alone (the E10 path).
#include <array>
#include <set>

#include "common/metrics.h"
#include "harness.h"

namespace perfbench {
namespace {

using sqldb::Database;
using sqldb::Pred;
using sqldb::Row;
using sqldb::TableId;
using sqldb::Transaction;
using sqldb::Value;

sqldb::DatabaseOptions EngineOptions() {
  sqldb::DatabaseOptions o;
  o.name = "bench";
  o.next_key_locking = false;  // the production setting of the paper (§4)
  o.lock_timeout_micros = 2 * 1000 * 1000;  // a hang fails the run, never stalls it
  o.metrics = std::make_shared<metrics::Registry>();
  return o;
}

std::unique_ptr<Database> OpenOrNull(std::shared_ptr<sqldb::DurableStore> durable,
                                     Checks* checks) {
  auto db = Database::Open(EngineOptions(), std::move(durable));
  checks->Expect(db.ok(), "open database: " + (db.ok() ? "" : db.status().ToString()));
  return db.ok() ? std::move(db).value() : nullptr;
}

Result<TableId> CreateKeyedTable(Database* db, const std::string& name,
                                 std::vector<sqldb::ColumnDef> cols) {
  sqldb::TableSchema s;
  s.name = name;
  s.columns = std::move(cols);
  DLX_ASSIGN_OR_RETURN(TableId t, db->CreateTable(s));
  DLX_RETURN_IF_ERROR(db->CreateIndex(sqldb::IndexDef{"ux_" + name, t, {0}, true}).status());
  return t;
}

/// Runs one transaction built by `body` (which returns false and a reason
/// when a statement fails), rolling back on any failure; true when it
/// committed.
template <typename Body>
bool RunTxn(ThreadCtx& ctx, Database* db, Body&& body) {
  const int64_t t0 = NowNs();
  Transaction* txn = db->Begin();
  BenchTraceScope scope(ctx, ctx.traced ? trace::NextTraceId() : 0, txn->id());
  trace::SpanScope txn_span("bench.txn");
  std::string why;
  bool ok = body(txn, &why);
  if (ok) {
    trace::SpanScope s("bench.commit");
    Status st = TimeCall(ctx, Call::kCommit, [&] { return db->Commit(txn); });
    ok = st.ok();
    if (!ok) why = "commit: " + st.ToString();
  } else {
    (void)db->Rollback(txn);
  }
  ctx.Finish(t0, ok, why);
  return ok;
}

// ---------------------------------------------------------------------------
// engine_insert: 4 tables, each preloaded with kPreload rows; every round
// each client inserts kPerRound rows with unique keys, one per transaction,
// spread over the tables.  Between rounds the round's rows are deleted, so
// every round starts from the same state and the tables (heap + unique
// index) stay inside the 1024-frame pool.
// ---------------------------------------------------------------------------

constexpr int kInsertTables = 4;
constexpr int kInsertPreload = 1000;  // rows per table
constexpr int kInsertPerRound = 1500;  // rows per client per round
constexpr int64_t kRoundKeyBase = 1000000;
constexpr size_t kInsertPayload = 64;

class EngineInsert : public Workload {
 public:
  void Setup(const Args& args, Checks* checks) override {
    seed_ = args.seed;
    threads_ = args.threads;
    db_ = OpenOrNull(std::make_shared<sqldb::DurableStore>(), checks);
    if (!db_) return;
    CreateTables(checks);
    round_keys_.resize(threads_);
  }

  void RunRound(ThreadCtx& ctx, int round) override {
    std::vector<int64_t> keys(kInsertPerRound);
    for (int i = 0; i < kInsertPerRound; ++i) {
      keys[i] = kRoundKeyBase + int64_t{ctx.thread} * kInsertPerRound + i;
    }
    Shuffle(&keys, seed_, static_cast<uint64_t>(ctx.thread), static_cast<uint64_t>(round));
    std::vector<int64_t>& done = round_keys_[ctx.thread];
    done.clear();
    for (int64_t k : keys) {
      const bool committed = RunTxn(ctx, db_.get(), [&](Transaction* txn, std::string* why) {
        trace::SpanScope s("bench.stmt");
        Status st = TimeCall(ctx, Call::kInsert, [&] {
          return db_->Insert(txn, TableFor(k), Row{Value(k), Value(Payload(seed_, k, kInsertPayload))});
        });
        if (!st.ok()) *why = "insert: " + st.ToString();
        return st.ok();
      });
      if (committed) done.push_back(k);
    }
  }

  void AfterRound(int round, bool last, Checks* checks) override {
    (void)round;
    // Row count per table == preload + the round's committed inserts.
    std::vector<size_t> expect(kInsertTables, kInsertPreload);
    for (const auto& keys : round_keys_) {
      for (int64_t k : keys) ++expect[static_cast<size_t>(k % kInsertTables)];
    }
    for (int i = 0; i < kInsertTables; ++i) {
      auto n = db_->LiveRowCount(tables_[i]);
      checks->Expect(n.ok() && *n == expect[i],
                     "engine_insert: table ins" + std::to_string(i) + " holds " +
                         (n.ok() ? std::to_string(*n) : n.status().ToString()) +
                         " rows, model says " + std::to_string(expect[i]));
    }
    if (last) return;
    // Housekeeping: drop the tables and build them again as they were
    // (cheaper than deleting the round's rows one by one).
    for (int i = 0; i < kInsertTables; ++i) {
      checks->Expect(db_->DropTable(tables_[i]).ok(), "engine_insert: drop table");
    }
    tables_.clear();
    CreateTables(checks);
    for (auto& keys : round_keys_) keys.clear();
  }

  Snap Counters() override {
    Snap s;
    AddDatabaseCounters(*db_, "sqldb.", &s);
    return s;
  }

  void PerLayer(const Snap& d, const std::vector<ThreadCtx>& ctxs, uint64_t committed,
                std::map<std::string, double>* out) override {
    EnginePerLayer(d, "sqldb.", committed, out);
    (*out)["sqldb.insert_us"] = MeanCallUs(ctxs, Call::kInsert);
    (*out)["sqldb.commit_us"] = MeanCallUs(ctxs, Call::kCommit);
  }

  void BeforeCrash(Checks* checks) override {
    Status st = db_->CheckIntegrity();
    checks->Expect(st.ok(), "engine_insert: CheckIntegrity: " + st.ToString());
  }

  void Checkpoint(Checks* checks) override {
    checks->Expect(db_->Checkpoint().ok(), "engine_insert: checkpoint");
  }

  void Crash() override {
    durable_ = db_->SimulateCrash();
    db_.reset();
  }

  void Restart(Checks* checks) override { db_ = OpenOrNull(std::move(durable_), checks); }

  void AfterRestart(Checks* checks) override {
    if (!db_) return;
    // Every row of the model, with the payload derived from its key, and
    // nothing else.
    std::set<int64_t> model;
    for (int64_t k = 0; k < kInsertTables * kInsertPreload; ++k) model.insert(k);
    for (const auto& keys : round_keys_) model.insert(keys.begin(), keys.end());
    size_t seen = 0;
    Transaction* txn = db_->Begin();
    for (int i = 0; i < kInsertTables; ++i) {
      auto t = db_->TableByName("ins" + std::to_string(i));
      checks->Expect(t.ok(), "engine_insert: table survives restart");
      if (!t.ok()) continue;
      tables_[i] = *t;
      auto rows = db_->Select(txn, *t, {});
      checks->Expect(rows.ok(), "engine_insert: scan after restart");
      if (!rows.ok()) continue;
      for (const Row& r : *rows) {
        const int64_t k = r[0].as_int();
        const bool ok = model.count(k) == 1 && TableFor(k) == tables_[i] &&
                        r[1].as_string() == Payload(seed_, k, kInsertPayload);
        if (!ok) checks->Expect(false, "engine_insert: unexpected row " + std::to_string(k));
        ++seen;
      }
    }
    (void)db_->Commit(txn);
    checks->Expect(seen == model.size(), "engine_insert: " + std::to_string(seen) +
                                             " rows after restart, model says " +
                                             std::to_string(model.size()));
    Status st = db_->CheckIntegrity();
    checks->Expect(st.ok(), "engine_insert: CheckIntegrity after restart: " + st.ToString());
  }

 private:
  /// The tables with their unique index and kInsertPreload rows each.
  void CreateTables(Checks* checks) {
    for (int i = 0; i < kInsertTables; ++i) {
      auto t = CreateKeyedTable(db_.get(), "ins" + std::to_string(i),
                                {{"id", sqldb::ValueType::kInt, false},
                                 {"payload", sqldb::ValueType::kString, false}});
      checks->Expect(t.ok(), "create table");
      if (!t.ok()) return;
      tables_.push_back(*t);
    }
    Transaction* txn = db_->Begin();
    for (int64_t k = 0; k < kInsertTables * kInsertPreload; ++k) {
      Status st = db_->Insert(txn, TableFor(k), Row{Value(k), Value(Payload(seed_, k, kInsertPayload))});
      if (!st.ok()) {
        checks->Expect(false, "preload insert: " + st.ToString());
        (void)db_->Rollback(txn);
        return;
      }
    }
    checks->Expect(db_->Commit(txn).ok(), "preload commit");
  }

  TableId TableFor(int64_t key) const { return tables_[static_cast<size_t>(key % kInsertTables)]; }

  uint64_t seed_ = 0;
  int threads_ = 0;
  std::unique_ptr<Database> db_;
  std::shared_ptr<sqldb::DurableStore> durable_;  // between Crash and Restart
  std::vector<TableId> tables_;
  // Keys each client committed in the current round (written by the
  // client, read by the coordinator after the barrier).
  std::vector<std::vector<int64_t>> round_keys_;
};

// ---------------------------------------------------------------------------
// engine_lookup: one table of kLookupRows rows, well past the buffer pool.
// Every transaction is either a point select by key or a single-row counter
// update (select the row, write counter+1), half each, with keys uniform
// over the client's own partition (key % clients == client).  Partitioning
// lets the benchmark know every counter's value.  It also keeps a select
// from overlapping an update of the same key, which the engine answers
// wrongly: ExecuteUpdate erases and re-inserts the entries of every index,
// even when the key is unchanged, and a point select in that window returns
// no row (see CHANGES.md).
// ---------------------------------------------------------------------------

constexpr int64_t kLookupRows = 30000;
constexpr int kLookupPerRound = 1000;  // transactions per client per round
constexpr size_t kLookupPayload = 100;

class EngineLookup : public Workload {
 public:
  void Setup(const Args& args, Checks* checks) override {
    seed_ = args.seed;
    threads_ = args.threads;
    db_ = OpenOrNull(std::make_shared<sqldb::DurableStore>(), checks);
    if (!db_) return;
    auto t = CreateKeyedTable(db_.get(), "kv",
                              {{"id", sqldb::ValueType::kInt, false},
                               {"payload", sqldb::ValueType::kString, false},
                               {"counter", sqldb::ValueType::kInt, false}});
    checks->Expect(t.ok(), "create table");
    if (!t.ok()) return;
    table_ = *t;
    for (int64_t base = 0; base < kLookupRows; base += 1000) {
      Transaction* txn = db_->Begin();
      for (int64_t k = base; k < std::min(base + 1000, kLookupRows); ++k) {
        Status st = db_->Insert(txn, table_, Row{Value(k), Value(Payload(seed_, k, kLookupPayload)),
                                                 Value(int64_t{0})});
        if (!st.ok()) {
          checks->Expect(false, "preload insert: " + st.ToString());
          (void)db_->Rollback(txn);
          return;
        }
      }
      checks->Expect(db_->Commit(txn).ok(), "preload commit");
    }
    BindStatements(checks);
    counters_.assign(kLookupRows, 0);
    mismatches_.resize(threads_);
  }

  void RunRound(ThreadCtx& ctx, int round) override {
    // Half selects, half updates, in an order and on keys drawn from
    // (seed, client, round).
    std::vector<uint8_t> is_update(kLookupPerRound, 0);
    for (int i = 0; i < kLookupPerRound / 2; ++i) is_update[i] = 1;
    Shuffle(&is_update, seed_, static_cast<uint64_t>(ctx.thread), static_cast<uint64_t>(round));
    const uint64_t base = Mix(seed_ ^ Mix((uint64_t{static_cast<uint32_t>(round)} << 16) |
                                          static_cast<uint64_t>(ctx.thread)));
    const int64_t part = kLookupRows / threads_;
    auto& bad = mismatches_[ctx.thread];
    for (int i = 0; i < kLookupPerRound; ++i) {
      const uint64_t r = Mix(base + static_cast<uint64_t>(i));
      const int64_t k = static_cast<int64_t>(r % static_cast<uint64_t>(part)) * threads_ + ctx.thread;
      if (!is_update[i]) {
        RunTxn(ctx, db_.get(), [&](Transaction* txn, std::string* why) {
          return ReadRow(ctx, txn, k, nullptr, why, &bad);
        });
        continue;
      }
      int64_t next = 0;
      const bool committed = RunTxn(ctx, db_.get(), [&](Transaction* txn, std::string* why) {
        int64_t c = 0;
        if (!ReadRow(ctx, txn, k, &c, why, &bad)) return false;
        if (c != counters_[k] && bad.size() < 8) {
          bad.push_back("engine_lookup: key " + std::to_string(k) + " counter " +
                        std::to_string(c) + ", model says " + std::to_string(counters_[k]));
        }
        next = c + 1;
        trace::SpanScope s("bench.stmt");
        auto n = TimeCall(ctx, Call::kUpdate, [&] {
          return db_->ExecuteUpdate(txn, update_, {Value(k), Value(next)});
        });
        if (!n.ok()) *why = "update: " + n.status().ToString();
        if (n.ok() && *n != 1) *why = "update touched " + std::to_string(*n) + " rows";
        return n.ok() && *n == 1;
      });
      if (committed) {
        counters_[k] = next;
        ++updates_[ctx.thread];
      }
    }
  }

  void AfterRound(int, bool, Checks* checks) override {
    for (auto& bad : mismatches_) {
      for (const auto& m : bad) checks->Expect(false, m);
      bad.clear();
    }
    checks->Expect(true, "engine_lookup: selects returned their rows");
  }

  Snap Counters() override {
    Snap s;
    AddDatabaseCounters(*db_, "sqldb.", &s);
    return s;
  }

  void PerLayer(const Snap& d, const std::vector<ThreadCtx>& ctxs, uint64_t committed,
                std::map<std::string, double>* out) override {
    EnginePerLayer(d, "sqldb.", committed, out);
    (*out)["sqldb.select_us"] = MeanCallUs(ctxs, Call::kSelect);
    (*out)["sqldb.update_us"] = MeanCallUs(ctxs, Call::kUpdate);
    (*out)["sqldb.commit_us"] = MeanCallUs(ctxs, Call::kCommit);
  }

  void BeforeCrash(Checks* checks) override {
    Status st = db_->CheckIntegrity();
    checks->Expect(st.ok(), "engine_lookup: CheckIntegrity: " + st.ToString());
    CheckState(checks, "before crash");
  }

  void Checkpoint(Checks* checks) override {
    checks->Expect(db_->Checkpoint().ok(), "engine_lookup: checkpoint");
  }

  void Crash() override {
    durable_ = db_->SimulateCrash();
    db_.reset();
  }

  void Restart(Checks* checks) override { db_ = OpenOrNull(std::move(durable_), checks); }

  void AfterRestart(Checks* checks) override {
    if (!db_) return;
    auto t = db_->TableByName("kv");
    checks->Expect(t.ok(), "engine_lookup: table survives restart");
    if (!t.ok()) return;
    table_ = *t;
    BindStatements(checks);  // plans name the pre-crash catalog's ids
    CheckState(checks, "after restart");
    Status st = db_->CheckIntegrity();
    checks->Expect(st.ok(), "engine_lookup: CheckIntegrity after restart: " + st.ToString());
  }

 private:
  void BindStatements(Checks* checks) {
    auto ix = db_->IndexByName(table_, "ux_kv");
    sqldb::TableStats stats;
    stats.cardinality = kLookupRows;
    if (ix.ok()) stats.index_distinct[*ix] = kLookupRows;
    db_->SetTableStats(table_, stats);
    auto sel = db_->Bind(sqldb::BoundStatement::Kind::kSelect, table_,
                         {Pred::Eq("id", sqldb::Operand::Param(0))});
    auto upd = db_->Bind(sqldb::BoundStatement::Kind::kUpdate, table_,
                         {Pred::Eq("id", sqldb::Operand::Param(0))},
                         {{"counter", sqldb::Operand::Param(1)}});
    checks->Expect(sel.ok() && upd.ok(), "bind statements");
    if (!sel.ok() || !upd.ok()) return;
    checks->Expect(sel->path.kind == sqldb::AccessPath::Kind::kIndexScan,
                   "point select uses the unique index");
    select_ = *sel;
    update_ = *upd;
  }

  /// Point select of key `k`: exactly one row, with its key and the payload
  /// derived from the key.
  bool ReadRow(ThreadCtx& ctx, Transaction* txn, int64_t k, int64_t* counter, std::string* why,
               std::vector<std::string>* bad) {
    trace::SpanScope s("bench.stmt");
    auto rows = TimeCall(ctx, Call::kSelect,
                         [&] { return db_->ExecuteSelect(txn, select_, {Value(k)}); });
    if (!rows.ok()) {
      *why = "select: " + rows.status().ToString();
      return false;
    }
    const bool ok = rows->size() == 1 && (*rows)[0][0].as_int() == k &&
                    (*rows)[0][1].as_string() == Payload(seed_, k, kLookupPayload);
    if (!ok && bad->size() < 8) {
      bad->push_back("engine_lookup: select of key " + std::to_string(k) + " returned " +
                     std::to_string(rows->size()) + " rows or a wrong row");
    }
    if (ok && counter != nullptr) *counter = (*rows)[0][2].as_int();
    return true;
  }

  /// Row count, payloads and counters against the model; the counter sum
  /// equals the committed updates (a lost update breaks it).
  void CheckState(Checks* checks, const std::string& when) {
    Transaction* txn = db_->Begin();
    auto rows = db_->Select(txn, table_, {});
    (void)db_->Commit(txn);
    checks->Expect(rows.ok(), "engine_lookup: scan " + when);
    if (!rows.ok()) return;
    checks->Expect(static_cast<int64_t>(rows->size()) == kLookupRows,
                   "engine_lookup: " + std::to_string(rows->size()) + " rows " + when);
    int64_t sum = 0, updates = 0, wrong = 0;
    for (const Row& r : *rows) {
      const int64_t k = r[0].as_int();
      sum += r[2].as_int();
      if (k < 0 || k >= kLookupRows || r[2].as_int() != counters_[k] ||
          r[1].as_string() != Payload(seed_, k, kLookupPayload)) {
        ++wrong;
      }
    }
    for (int64_t u : updates_) updates += u;
    checks->Expect(wrong == 0, "engine_lookup: " + std::to_string(wrong) +
                                   " rows differ from the model " + when);
    checks->Expect(sum == updates, "engine_lookup: counter sum " + std::to_string(sum) +
                                       " != committed updates " + std::to_string(updates) +
                                       " " + when);
  }

  uint64_t seed_ = 0;
  int threads_ = 0;
  std::unique_ptr<Database> db_;
  std::shared_ptr<sqldb::DurableStore> durable_;  // between Crash and Restart
  TableId table_ = 0;
  sqldb::BoundStatement select_, update_;
  std::vector<int64_t> counters_;  // model: key -> counter (partitioned by client)
  std::array<int64_t, 1024> updates_{};  // committed updates per client
  std::vector<std::vector<std::string>> mismatches_;
};

}  // namespace

std::unique_ptr<Workload> MakeEngineInsert() { return std::make_unique<EngineInsert>(); }
std::unique_ptr<Workload> MakeEngineLookup() { return std::make_unique<EngineLookup>(); }

}  // namespace perfbench

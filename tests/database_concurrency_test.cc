// Concurrency behaviour of the engine: blocking, isolation levels,
// deadlock detection, next-key locking, lock escalation, log-full.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/random.h"
#include "sqldb/database.h"

namespace datalinks::sqldb {
namespace {

std::unique_ptr<Database> OpenDb(DatabaseOptions opts) {
  auto db = Database::Open(std::move(opts));
  EXPECT_TRUE(db.ok());
  return std::move(db).value();
}

TableId MakeFileTable(Database* db, int extra_indexes = 1) {
  TableSchema s;
  s.name = "files";
  s.columns = {{"name", ValueType::kString, false},
               {"txn", ValueType::kInt, false},
               {"grp", ValueType::kInt, false},
               {"rec", ValueType::kInt, false}};
  TableId t = *db->CreateTable(s);
  EXPECT_TRUE(db->CreateIndex(IndexDef{"ix_name", t, {0}, true}).ok());
  if (extra_indexes > 0) EXPECT_TRUE(db->CreateIndex(IndexDef{"ix_txn", t, {1}, false}).ok());
  if (extra_indexes > 1) EXPECT_TRUE(db->CreateIndex(IndexDef{"ix_grp", t, {2}, false}).ok());
  if (extra_indexes > 2) EXPECT_TRUE(db->CreateIndex(IndexDef{"ix_rec", t, {3}, false}).ok());
  return t;
}

Row FileRow(const std::string& name, int64_t txn, int64_t grp = 0, int64_t rec = 0) {
  return Row{Value(name), Value(txn), Value(grp), Value(rec)};
}

TEST(Concurrency, WriterBlocksWriterUntilCommit) {
  DatabaseOptions opts;
  opts.lock_timeout_micros = 2 * 1000 * 1000;
  auto db = OpenDb(opts);
  TableId t = MakeFileTable(db.get());

  Transaction* t1 = db->Begin();
  ASSERT_TRUE(db->Insert(t1, t, FileRow("a", 1)).ok());
  ASSERT_TRUE(db->Commit(t1).ok());

  Transaction* t2 = db->Begin();
  ASSERT_TRUE(db->Update(t2, t, {Pred::Eq("name", "a")}, {{"txn", Operand(2)}}).ok());

  std::atomic<bool> updated{false};
  // Sleep-free ordering: waits bumps once t3 is queued behind t2's X lock.
  const uint64_t waits0 = db->lock_manager().stats().waits;
  std::thread other([&] {
    Transaction* t3 = db->Begin();
    auto n = db->Update(t3, t, {Pred::Eq("name", "a")}, {{"txn", Operand(3)}});
    EXPECT_TRUE(n.ok()) << n.status().ToString();
    updated.store(true);
    EXPECT_TRUE(db->Commit(t3).ok());
  });
  while (db->lock_manager().stats().waits == waits0) std::this_thread::yield();
  EXPECT_FALSE(updated.load());  // blocked on t2's X lock
  ASSERT_TRUE(db->Commit(t2).ok());
  other.join();
  EXPECT_TRUE(updated.load());

  Transaction* t4 = db->Begin();
  auto rows = db->Select(t4, t, {Pred::Eq("name", "a")});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0][1].as_int(), 3);
  ASSERT_TRUE(db->Commit(t4).ok());
}

TEST(Concurrency, CursorStabilityReaderNotBlockedAfterWriterCommits) {
  DatabaseOptions opts;
  opts.lock_timeout_micros = 500 * 1000;
  auto db = OpenDb(opts);
  TableId t = MakeFileTable(db.get());

  Transaction* w = db->Begin();
  ASSERT_TRUE(db->Insert(w, t, FileRow("a", 1)).ok());
  ASSERT_TRUE(db->Commit(w).ok());

  // CS reader releases its lock after the read; a writer can then proceed.
  Transaction* r = db->Begin(Isolation::kCS);
  ASSERT_TRUE(db->Select(r, t, {Pred::Eq("name", "a")}).ok());
  Transaction* w2 = db->Begin();
  auto n = db->Update(w2, t, {Pred::Eq("name", "a")}, {{"txn", Operand(9)}});
  EXPECT_TRUE(n.ok()) << n.status().ToString();
  ASSERT_TRUE(db->Commit(w2).ok());
  ASSERT_TRUE(db->Commit(r).ok());
}

TEST(Concurrency, ReadStabilityHoldsLocksUntilCommit) {
  DatabaseOptions opts;
  opts.lock_timeout_micros = 150 * 1000;
  auto db = OpenDb(opts);
  TableId t = MakeFileTable(db.get());

  Transaction* w = db->Begin();
  ASSERT_TRUE(db->Insert(w, t, FileRow("a", 1)).ok());
  ASSERT_TRUE(db->Commit(w).ok());

  Transaction* r = db->Begin(Isolation::kRS);
  ASSERT_TRUE(db->Select(r, t, {Pred::Eq("name", "a")}).ok());
  Transaction* w2 = db->Begin();
  Status st = db->Update(w2, t, {Pred::Eq("name", "a")}, {{"txn", Operand(9)}}).status();
  EXPECT_TRUE(st.IsLockTimeout()) << st.ToString();
  ASSERT_TRUE(db->Rollback(w2).ok());
  ASSERT_TRUE(db->Commit(r).ok());
}

TEST(Concurrency, UncommittedReadSeesInFlightRows) {
  DatabaseOptions opts;
  auto db = OpenDb(opts);
  TableId t = MakeFileTable(db.get());

  Transaction* w = db->Begin();
  ASSERT_TRUE(db->Insert(w, t, FileRow("dirty", 1)).ok());

  Transaction* r = db->Begin(Isolation::kUR);
  auto rows = db->Select(r, t, {Pred::Eq("name", "dirty")});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);  // UR sees uncommitted data without blocking
  ASSERT_TRUE(db->Commit(r).ok());
  ASSERT_TRUE(db->Rollback(w).ok());
}

TEST(Concurrency, UniqueInsertRaceOneWinner) {
  // The race §3.2.2 closes with the check-flag unique index: two agents
  // linking the same file concurrently; exactly one may succeed.
  DatabaseOptions opts;
  opts.lock_timeout_micros = 2 * 1000 * 1000;
  auto db = OpenDb(opts);
  TableId t = MakeFileTable(db.get());

  constexpr int kThreads = 8;
  std::atomic<int> ok{0}, conflict{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      Transaction* txn = db->Begin();
      Status st = db->Insert(txn, t, FileRow("same-file", i));
      if (st.ok()) {
        ok.fetch_add(1);
        EXPECT_TRUE(db->Commit(txn).ok());
      } else {
        EXPECT_TRUE(st.IsConflict() || st.IsTransactionFatal()) << st.ToString();
        if (st.IsConflict()) conflict.fetch_add(1);
        EXPECT_TRUE(db->Rollback(txn).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), 1);
  EXPECT_GE(conflict.load(), 1);

  Transaction* check = db->Begin();
  auto rows = db->Select(check, t, {Pred::Eq("name", "same-file")});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  ASSERT_TRUE(db->Commit(check).ok());
}

TEST(Concurrency, NextKeyLockingCausesMoreDeadlocksThanDisabled) {
  // E2 in miniature: concurrent insert/delete churn on a multi-index table.
  // With next-key locking the deadlock count should be clearly higher than
  // with it disabled (the paper saw "frequent deadlocks" eliminated).
  auto churn = [](bool next_key, int seed_base) -> uint64_t {
    DatabaseOptions opts;
    opts.next_key_locking = next_key;
    opts.lock_timeout_micros = 300 * 1000;
    auto db = OpenDb(opts);
    TableId t = MakeFileTable(db.get(), /*extra_indexes=*/3);
    // Preload.
    Transaction* pre = db->Begin();
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE(
          db->Insert(pre, t, FileRow("f" + std::to_string(i), i, i % 7, i % 11)).ok());
    }
    EXPECT_TRUE(db->Commit(pre).ok());
    EXPECT_TRUE(db->RunStats(t).ok());

    constexpr int kThreads = 6;
    std::vector<std::thread> threads;
    for (int w = 0; w < kThreads; ++w) {
      threads.emplace_back([&, w] {
        Random rng(seed_base + w);
        for (int i = 0; i < 60; ++i) {
          Transaction* txn = db->Begin();
          bool dead = false;
          for (int op = 0; op < 4 && !dead; ++op) {
            const int64_t k = rng.Uniform(200);
            Status st;
            if (rng.Bernoulli(0.5)) {
              st = db->Delete(txn, t, {Pred::Eq("name", "f" + std::to_string(k))}).status();
            } else {
              st = db->Insert(
                  txn, t, FileRow("f" + std::to_string(k), k, k % 7, k % 11));
            }
            if (st.IsTransactionFatal()) dead = true;
          }
          if (dead) {
            (void)db->Rollback(txn);
          } else {
            (void)db->Commit(txn);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    return db->lock_manager().stats().deadlocks + db->lock_manager().stats().timeouts;
  };

  // Single runs produce single-digit deadlock counts whose comparison is
  // noise-dominated; aggregate rounds (fresh seeds each) until the gap is
  // unambiguous.  The qualitative claim: disabling next-key locking removes
  // (nearly all) deadlocks.
  uint64_t with_nkl = 0, without_nkl = 0;
  for (int round = 0; round < 5; ++round) {
    with_nkl += churn(true, 1000 + round * 100);
    without_nkl += churn(false, 1000 + round * 100);
    if (round >= 1 && with_nkl > 2 * without_nkl + 10) break;  // gap already clear
  }
  EXPECT_GT(with_nkl, without_nkl) << "with=" << with_nkl << " without=" << without_nkl;
}

TEST(Concurrency, LockEscalationKicksInAtThreshold) {
  DatabaseOptions opts;
  opts.lock_escalation_threshold = 10;
  opts.lock_timeout_micros = 500 * 1000;
  auto db = OpenDb(opts);
  TableId t = MakeFileTable(db.get());

  Transaction* pre = db->Begin();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db->Insert(pre, t, FileRow("f" + std::to_string(i), i)).ok());
  }
  ASSERT_TRUE(db->Commit(pre).ok());

  // A transaction touching >10 rows escalates to a table lock.
  Transaction* big = db->Begin(Isolation::kRS);
  ASSERT_TRUE(db->Select(big, t, {}).ok());
  EXPECT_GE(db->lock_manager().stats().escalations, 1u);
  // After escalation, another writer cannot even insert (table S lock).
  Transaction* w = db->Begin();
  Status st = db->Insert(w, t, FileRow("new", 99));
  EXPECT_TRUE(st.IsLockTimeout()) << st.ToString();
  ASSERT_TRUE(db->Rollback(w).ok());
  ASSERT_TRUE(db->Commit(big).ok());
}

TEST(Concurrency, EscalatedWriterBlocksEveryone) {
  DatabaseOptions opts;
  opts.lock_escalation_threshold = 5;
  opts.lock_timeout_micros = 300 * 1000;
  auto db = OpenDb(opts);
  TableId t = MakeFileTable(db.get());

  Transaction* pre = db->Begin();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db->Insert(pre, t, FileRow("f" + std::to_string(i), 0)).ok());
  }
  ASSERT_TRUE(db->Commit(pre).ok());

  Transaction* big = db->Begin();
  ASSERT_TRUE(db->Update(big, t, {}, {{"txn", Operand(1)}}).ok());  // escalates to table X

  Transaction* r = db->Begin();
  Status st = db->Select(r, t, {Pred::Eq("name", "f1")}).status();
  EXPECT_TRUE(st.IsLockTimeout()) << st.ToString();
  ASSERT_TRUE(db->Rollback(r).ok());
  ASSERT_TRUE(db->Commit(big).ok());
}

TEST(Concurrency, LogFullAbortsLongTransactionButBatchedSucceeds) {
  auto run = [](size_t batch) -> Status {
    DatabaseOptions opts;
    opts.log_capacity_bytes = 64 * 1024;
    auto db = OpenDb(opts);
    TableId t = MakeFileTable(db.get(), 0);
    Transaction* txn = db->Begin();
    for (int i = 0; i < 2000; ++i) {
      Status st = db->Insert(txn, t, FileRow("f" + std::to_string(i), i));
      if (!st.ok()) {
        (void)db->Rollback(txn);
        return st;
      }
      if (batch != 0 && (i + 1) % batch == 0) {
        Status cst = db->Commit(txn);
        if (!cst.ok()) return cst;
        txn = db->Begin();
      }
    }
    return db->Commit(txn);
  };
  Status mono = run(0);
  EXPECT_TRUE(mono.IsLogFull()) << mono.ToString();
  Status batched = run(100);
  EXPECT_TRUE(batched.ok()) << batched.ToString();
}

TEST(Concurrency, NonKeyUpdateKeepsRowVisibleToKeySelects) {
  // An update that leaves every index key unchanged must leave the index
  // entries alone: a concurrent point select by the unchanged unique key
  // has to find the committed row every time.
  DatabaseOptions opts;
  opts.lock_timeout_micros = 5 * 1000 * 1000;
  opts.next_key_locking = false;
  auto db = OpenDb(opts);
  TableId t = MakeFileTable(db.get());  // unique ix_name(name), ix_txn(txn)
  Transaction* load = db->Begin();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db->Insert(load, t, FileRow("f" + std::to_string(i), i)).ok());
  }
  ASSERT_TRUE(db->Commit(load).ok());
  ASSERT_TRUE(db->RunStats(t).ok());

  constexpr int kUpdates = 2000;
  constexpr int kReaders = 3;
  std::atomic<bool> done{false};
  std::atomic<int> selects{0};
  std::atomic<int> misses{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!done.load()) {
        Transaction* txn = db->Begin();
        auto rows = db->Select(txn, t, {Pred::Eq("name", "f7")});
        EXPECT_TRUE(rows.ok()) << rows.status().ToString();
        if (!rows.ok() || rows->size() != 1) misses.fetch_add(1);
        selects.fetch_add(1);
        EXPECT_TRUE(db->Commit(txn).ok());
      }
    });
  }
  for (int i = 0; i < kUpdates; ++i) {
    Transaction* txn = db->Begin();
    auto n = db->Update(txn, t, {Pred::Eq("name", "f7")}, {{"grp", Operand(i)}});
    EXPECT_TRUE(n.ok() && *n == 1) << n.status().ToString();
    EXPECT_TRUE(db->Commit(txn).ok());
  }
  done.store(true);
  for (auto& th : readers) th.join();
  EXPECT_GT(selects.load(), 0);
  EXPECT_EQ(misses.load(), 0) << "of " << selects.load() << " selects";
}

TEST(Concurrency, MixedWorkloadIntegrity) {
  // Randomized multi-threaded smoke: no crashes, and committed data is
  // consistent (unique names stay unique).
  DatabaseOptions opts;
  opts.lock_timeout_micros = 300 * 1000;
  opts.next_key_locking = false;
  auto db = OpenDb(opts);
  TableId t = MakeFileTable(db.get(), 3);
  ASSERT_TRUE(db->RunStats(t).ok());

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      Random rng(500 + w);
      for (int i = 0; i < 80; ++i) {
        Transaction* txn = db->Begin();
        bool dead = false;
        for (int op = 0; op < 3 && !dead; ++op) {
          const std::string name = "g" + std::to_string(rng.Uniform(50));
          Status st;
          switch (rng.Uniform(3)) {
            case 0:
              st = db->Insert(txn, t, FileRow(name, w, i, op));
              break;
            case 1:
              st = db->Delete(txn, t, {Pred::Eq("name", name)}).status();
              break;
            default:
              st = db->Update(txn, t, {Pred::Eq("name", name)}, {{"rec", Operand(i)}})
                       .status();
              break;
          }
          if (st.IsTransactionFatal()) dead = true;
        }
        if (dead || rng.Bernoulli(0.2)) {
          (void)db->Rollback(txn);
        } else {
          (void)db->Commit(txn);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  Transaction* check = db->Begin();
  auto rows = db->Select(check, t, {});
  ASSERT_TRUE(rows.ok());
  std::set<std::string> names;
  for (const Row& r : *rows) {
    EXPECT_TRUE(names.insert(r[0].as_string()).second) << "duplicate " << r[0].as_string();
  }
  ASSERT_TRUE(db->Commit(check).ok());
}

}  // namespace
}  // namespace datalinks::sqldb

// Stress coverage for the three-tier latching + WAL group commit:
//  - writers on distinct tables overlap (the whole point of breaking the
//    global data latch), proven via the row-exclusive high-water mark,
//  - writers on disjoint rows of the SAME table overlap (row stripes;
//    the table latch is only shared for DML),
//  - no torn reads under concurrent scan + multi-column update on one
//    table (row snapshots are taken under the row latch),
//  - concurrent committers coalesce behind a group-commit leader.
//
// Designed to run cleanly under -fsanitize=thread (see .github/workflows).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "sqldb/database.h"

namespace datalinks::sqldb {
namespace {

std::unique_ptr<Database> OpenDb(DatabaseOptions opts = {}) {
  auto db = Database::Open(std::move(opts));
  EXPECT_TRUE(db.ok());
  return std::move(db).value();
}

TableId MakeTable(Database* db, const std::string& name) {
  TableSchema s;
  s.name = name;
  s.columns = {{"id", ValueType::kInt, false},
               {"a", ValueType::kString, false},
               {"b", ValueType::kString, false}};
  TableId t = *db->CreateTable(s);
  EXPECT_TRUE(db->CreateIndex(IndexDef{"ix_" + name, t, {0}, false}).ok());
  return t;
}

TEST(LatchStress, WritersOnDistinctTablesOverlap) {
  DatabaseOptions opts;
  opts.next_key_locking = false;
  auto db = OpenDb(opts);
  constexpr int kTables = 8;
  std::vector<TableId> tables;
  for (int i = 0; i < kTables; ++i) tables.push_back(MakeTable(db.get(), "t" + std::to_string(i)));

  // The high-water mark of simultaneously held row-exclusive latches can
  // only exceed 1 if two writers were inside their (distinct-table) install
  // critical sections at once — impossible under the old global data latch.
  // The counter is cumulative, so hammer in rounds until the overlap shows
  // up (on a single-core host it relies on preemption mid-critical-section).
  int64_t next_id = 0;
  for (int round = 0;
       round < 10 && db->stats().latch_max_concurrent_row_exclusive < 2; ++round) {
    std::vector<std::thread> threads;
    for (int w = 0; w < kTables; ++w) {
      const int64_t base = next_id + w * 10000;
      threads.emplace_back([&, w, base] {
        for (int i = 0; i < 2000; ++i) {
          Transaction* txn = db->Begin();
          ASSERT_TRUE(db->Insert(txn, tables[w],
                                 {Value(base + i), Value("x"), Value("x")})
                          .ok());
          ASSERT_TRUE(db->Commit(txn).ok());
        }
      });
    }
    for (auto& t : threads) t.join();
    next_id += 10000 * kTables;
  }

  const DatabaseStats s = db->stats();
  EXPECT_GE(s.latch_max_concurrent_row_exclusive, 2u)
      << "no two writers ever held row latches simultaneously";
  EXPECT_GT(s.latch_exclusive_acquires, 0u);  // DDL (CreateIndex) tier
  EXPECT_GT(s.latch_row_exclusive_acquires, 0u);
  EXPECT_GT(s.latch_shared_acquires, 0u);
}

TEST(LatchStress, WritersOnDisjointRowsOfSameTableOverlap) {
  DatabaseOptions opts;
  opts.next_key_locking = false;
  auto db = OpenDb(opts);
  TableId t = MakeTable(db.get(), "hot");

  constexpr int kWriters = 8;
  constexpr int kRowsPerWriter = 16;
  {
    Transaction* txn = db->Begin();
    for (int i = 0; i < kWriters * kRowsPerWriter; ++i) {
      ASSERT_TRUE(
          db->Insert(txn, t, {Value(int64_t{i}), Value("v0"), Value("v0")}).ok());
    }
    ASSERT_TRUE(db->Commit(txn).ok());
  }
  ASSERT_TRUE(db->RunStats(t).ok());

  // Same table, disjoint row ranges: under the old per-table exclusive
  // latch these writers serialized; with row stripes their exclusive
  // sections overlap, which the ROW-tier high-water mark proves.  The
  // table-tier mark stays untouched by DML (it now counts only the
  // structural tier: DDL, checkpoint, rollback).
  const uint64_t table_xwater_before = db->stats().latch_max_concurrent_exclusive;
  for (int round = 0;
       round < 10 && db->stats().latch_max_concurrent_row_exclusive < 2; ++round) {
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        Random rng(7 + w);
        for (int i = 0; i < 400; ++i) {
          const int64_t id =
              w * kRowsPerWriter + static_cast<int64_t>(rng.Uniform(kRowsPerWriter));
          const std::string v = "v" + std::to_string(rng.Uniform(1 << 30));
          Transaction* txn = db->Begin();
          auto n = db->Update(txn, t, {Pred::Eq("id", id)},
                              {{"a", Operand(v)}, {"b", Operand(v)}});
          if (n.ok()) {
            ASSERT_TRUE(db->Commit(txn).ok());
          } else {
            (void)db->Rollback(txn);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
  }

  const DatabaseStats s = db->stats();
  EXPECT_GE(s.latch_max_concurrent_row_exclusive, 2u)
      << "no two same-table writers ever held row latches simultaneously";
  EXPECT_GT(s.latch_row_shared_acquires, 0u);
  EXPECT_EQ(s.latch_max_concurrent_exclusive, table_xwater_before)
      << "DML moved the table-tier exclusive high-water mark";
  EXPECT_EQ(*db->LiveRowCount(t), static_cast<size_t>(kWriters * kRowsPerWriter));
}

TEST(LatchStress, NoTornReadsUnderConcurrentScanAndUpdate) {
  DatabaseOptions opts;
  opts.next_key_locking = false;
  auto db = OpenDb(opts);
  TableId t = MakeTable(db.get(), "pairs");

  constexpr int kRows = 40;
  {
    Transaction* txn = db->Begin();
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE(db->Insert(txn, t, {Value(int64_t{i}), Value("v0"), Value("v0")}).ok());
    }
    ASSERT_TRUE(db->Commit(txn).ok());
  }
  ASSERT_TRUE(db->RunStats(t).ok());

  // Writers keep the invariant a == b within each row (both columns set in
  // one UPDATE).  A reader observing a != b saw a torn row — the shared
  // latch on candidate collection must make that impossible even at UR
  // isolation (UR skips locks, not latches).
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scans{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        Transaction* txn = db->Begin(Isolation::kUR);
        auto rows = db->Select(txn, t, {});
        ASSERT_TRUE(rows.ok());
        EXPECT_EQ(rows->size(), static_cast<size_t>(kRows));
        for (const Row& row : *rows) {
          EXPECT_EQ(row[1].as_string(), row[2].as_string())
              << "torn read: columns updated together differ";
        }
        (void)db->Commit(txn);
        scans.fetch_add(1);
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      Random rng(99 + w);
      for (int i = 0; i < 400; ++i) {
        const int64_t id = static_cast<int64_t>(rng.Uniform(kRows));
        const std::string v = "v" + std::to_string(rng.Uniform(1 << 30));
        Transaction* txn = db->Begin();
        auto n = db->Update(txn, t, {Pred::Eq("id", id)},
                            {{"a", Operand(v)}, {"b", Operand(v)}});
        if (n.ok()) {
          (void)db->Commit(txn);
        } else {
          (void)db->Rollback(txn);
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_GT(scans.load(), 0u);

  // Row count unchanged: updates only.
  EXPECT_EQ(*db->LiveRowCount(t), static_cast<size_t>(kRows));
}

TEST(LatchStress, ConcurrentCommittersCoalesceIntoGroupCommits) {
  // Model a log device with non-trivial write latency; while the leader's
  // append is in flight, other committers must queue up and ride the next
  // batch instead of issuing their own append per transaction.
  auto durable = std::make_shared<DurableStore>();
  durable->set_append_latency_micros(1000);
  DatabaseOptions opts;
  opts.next_key_locking = false;
  auto dbr = Database::Open(opts, durable);
  ASSERT_TRUE(dbr.ok());
  auto db = std::move(dbr).value();
  TableId t = MakeTable(db.get(), "gc");

  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 40;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        Transaction* txn = db->Begin();
        ASSERT_TRUE(db->Insert(txn, t,
                               {Value(int64_t{w * kCommitsPerThread + i}), Value("x"),
                                Value("x")})
                        .ok());
        ASSERT_TRUE(db->Commit(txn).ok());
      }
    });
  }
  for (auto& th : threads) th.join();

  const WalStats w = db->wal().stats();
  EXPECT_GT(w.force_waits, 0u) << "no committer ever waited behind a leader";
  EXPECT_GT(w.mean_commits_per_batch, 1.0)
      << "forces=" << w.forces << " commits=" << w.group_commit_commits;
  // Every commit became durable exactly once.
  EXPECT_EQ(w.group_commit_commits, static_cast<uint64_t>(kThreads * kCommitsPerThread));
  EXPECT_EQ(*db->LiveRowCount(t), static_cast<size_t>(kThreads * kCommitsPerThread));
}

}  // namespace
}  // namespace datalinks::sqldb

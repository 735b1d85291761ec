#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "sqldb/value.h"
#include "sqldb/wal.h"

namespace datalinks::sqldb {
namespace {

LogRecord Rec(TxnId txn, LogRecordType type, Row after = {}) {
  LogRecord r;
  r.txn = txn;
  r.type = type;
  r.table = 1;
  r.rid = 0;
  r.after = std::move(after);
  return r;
}

TEST(Value, EncodeDecodeRoundTrip) {
  Row row{Value(int64_t{42}), Value("hello"), Value(true), Value(3.5), Value::Null()};
  std::string buf;
  EncodeRowTo(row, &buf);
  std::string_view in(buf);
  auto decoded = DecodeRowFrom(&in);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ((*decoded)[i].Compare(row[i]), 0) << i;
  }
  EXPECT_TRUE(in.empty());
}

TEST(Value, CompareOrdering) {
  EXPECT_LT(Value::Null().Compare(Value(int64_t{0})), 0);
  EXPECT_EQ(Value(int64_t{5}).Compare(Value(int64_t{5})), 0);
  EXPECT_GT(Value("b").Compare(Value("a")), 0);
  EXPECT_LT(CompareKeys({Value(int64_t{1})}, {Value(int64_t{1}), Value("x")}), 0);
}

TEST(Wal, AppendAssignsIncreasingLsns) {
  auto durable = std::make_shared<DurableStore>();
  WriteAheadLog wal(durable, 1 << 20);
  ASSERT_TRUE(wal.Append(Rec(1, LogRecordType::kBegin)).ok());
  ASSERT_TRUE(wal.Append(Rec(1, LogRecordType::kInsert, {Value("a")})).ok());
  EXPECT_EQ(wal.last_lsn(), 2u);
}

TEST(Wal, ForceMovesRecordsToDurable) {
  auto durable = std::make_shared<DurableStore>();
  WriteAheadLog wal(durable, 1 << 20);
  ASSERT_TRUE(wal.Append(Rec(1, LogRecordType::kBegin)).ok());
  ASSERT_TRUE(wal.Append(Rec(1, LogRecordType::kCommit)).ok());
  EXPECT_EQ(durable->max_forced_lsn(), kInvalidLsn);
  wal.ForceAll();
  EXPECT_EQ(durable->max_forced_lsn(), 2u);
  EXPECT_EQ(durable->ForcedSince(0).size(), 2u);
  EXPECT_EQ(durable->ForcedSince(1).size(), 1u);
}

TEST(Wal, UnforcedTailIsLostOnCrash) {
  auto durable = std::make_shared<DurableStore>();
  {
    WriteAheadLog wal(durable, 1 << 20);
    ASSERT_TRUE(wal.Append(Rec(1, LogRecordType::kBegin)).ok());
    wal.ForceAll();
    ASSERT_TRUE(wal.Append(Rec(1, LogRecordType::kInsert, {Value("lost")})).ok());
    // no force: tail dies with the WAL object
  }
  EXPECT_EQ(durable->ForcedSince(0).size(), 1u);
  // Re-open resumes LSN numbering after the durable max.
  WriteAheadLog wal2(durable, 1 << 20);
  ASSERT_TRUE(wal2.Append(Rec(2, LogRecordType::kBegin)).ok());
  EXPECT_EQ(wal2.last_lsn(), 2u);
}

TEST(Wal, ConcurrentAppendsAndForcesLeaveGapFreeDurableLog) {
  // Appends from several threads interleave with group-commit forces.  An
  // OK force covers the caller's commit, and the durable log ends up with
  // every LSN exactly once, in order: no gap, no duplicate, no reordering.
  auto durable = std::make_shared<DurableStore>();
  WriteAheadLog wal(durable, 1 << 26);
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 300;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        const TxnId txn = 1 + w * kTxnsPerThread + i;
        EXPECT_TRUE(wal.Append(Rec(txn, LogRecordType::kBegin)).ok());
        EXPECT_TRUE(wal.Append(Rec(txn, LogRecordType::kInsert, {Value(int64_t{i})})).ok());
        Lsn commit = kInvalidLsn;
        EXPECT_TRUE(wal.Append(Rec(txn, LogRecordType::kCommit), /*exempt=*/true, &commit).ok());
        wal.OnEnd(txn);
        const Status st = wal.ForceTo(commit);
        EXPECT_TRUE(st.ok()) << st.ToString();
        if (st.ok()) {
          EXPECT_GE(durable->max_forced_lsn(), commit);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  const Lsn n = static_cast<Lsn>(kThreads) * kTxnsPerThread * 3;
  EXPECT_EQ(wal.last_lsn(), n);
  const std::vector<LogRecord> forced = durable->ForcedSince(0);
  ASSERT_EQ(forced.size(), n);
  for (Lsn i = 0; i < n; ++i) ASSERT_EQ(forced[i].lsn, i + 1) << "at index " << i;
}

TEST(Wal, LogFullWhenActiveTxnPinsLog) {
  auto durable = std::make_shared<DurableStore>();
  WriteAheadLog wal(durable, 2048);
  ASSERT_TRUE(wal.Append(Rec(1, LogRecordType::kBegin)).ok());
  Status st;
  int appended = 0;
  for (int i = 0; i < 1000; ++i) {
    st = wal.Append(Rec(1, LogRecordType::kInsert, {Value(std::string(40, 'x'))}));
    if (!st.ok()) break;
    ++appended;
  }
  EXPECT_TRUE(st.IsLogFull()) << st.ToString();
  EXPECT_GT(appended, 5);
  EXPECT_EQ(wal.stats().log_full_errors, 1u);
}

TEST(Wal, ExemptAppendBypassesCapacity) {
  auto durable = std::make_shared<DurableStore>();
  WriteAheadLog wal(durable, 128);
  ASSERT_TRUE(wal.Append(Rec(1, LogRecordType::kBegin)).ok());
  // Fill.
  while (wal.Append(Rec(1, LogRecordType::kInsert, {Value(std::string(30, 'x'))})).ok()) {
  }
  // Compensation/commit records must still append.
  EXPECT_TRUE(wal.Append(Rec(1, LogRecordType::kAbort), /*exempt=*/true).ok());
}

TEST(Wal, CommitReleasesLogPinAfterCheckpoint) {
  auto durable = std::make_shared<DurableStore>();
  WriteAheadLog wal(durable, 4096);
  // Txn 1 writes and ends; checkpoint then reclaims space.
  ASSERT_TRUE(wal.Append(Rec(1, LogRecordType::kBegin)).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(wal.Append(Rec(1, LogRecordType::kInsert, {Value(std::string(40, 'x'))})).ok());
  }
  ASSERT_TRUE(wal.Append(Rec(1, LogRecordType::kCommit)).ok());
  wal.OnEnd(1);
  const size_t before = wal.BytesInUse();
  wal.ForceAll();
  wal.OnCheckpoint(wal.last_lsn());
  EXPECT_LT(wal.BytesInUse(), before);
  EXPECT_LE(durable->forced_bytes(), 64u);  // only the checkpoint-boundary record remains
}

TEST(Wal, BatchedCommitsAvoidLogFull) {
  // The §4 lesson as a unit test: the same volume of work fails in one
  // transaction but succeeds when split with periodic commits.
  auto attempt = [](int batch_size) -> Status {
    auto durable = std::make_shared<DurableStore>();
    WriteAheadLog wal(durable, 4096);
    TxnId txn = 1;
    Status first_begin = wal.Append(Rec(txn, LogRecordType::kBegin));
    if (!first_begin.ok()) return first_begin;
    int in_batch = 0;
    for (int i = 0; i < 200; ++i) {
      Status st = wal.Append(Rec(txn, LogRecordType::kInsert, {Value(std::string(40, 'x'))}));
      if (!st.ok()) return st;
      if (++in_batch >= batch_size) {
        st = wal.Append(Rec(txn, LogRecordType::kCommit), true);
        if (!st.ok()) return st;
        wal.OnEnd(txn);
        wal.ForceAll();
        wal.OnCheckpoint(wal.last_lsn());
        ++txn;
        st = wal.Append(Rec(txn, LogRecordType::kBegin));
        if (!st.ok()) return st;
        in_batch = 0;
      }
    }
    return Status::OK();
  };
  EXPECT_TRUE(attempt(200).IsLogFull());
  EXPECT_TRUE(attempt(10).ok());
}

// --------------------------------------------------------------------------
// Byte codec and torn-tail semantics.
// --------------------------------------------------------------------------

std::vector<LogRecord> SampleRecords() {
  std::vector<LogRecord> recs;
  Lsn lsn = 1;
  auto push = [&](LogRecord r) {
    r.lsn = lsn++;
    recs.push_back(std::move(r));
  };
  push(Rec(1, LogRecordType::kBegin));
  push(Rec(1, LogRecordType::kInsert, {Value(int64_t{7}), Value("alpha"), Value(true)}));
  LogRecord upd = Rec(1, LogRecordType::kUpdate, {Value(int64_t{7}), Value("beta")});
  upd.before = Row{Value(int64_t{7}), Value("alpha")};
  push(std::move(upd));
  push(Rec(1, LogRecordType::kCommit));
  return recs;
}

void ExpectSameRecord(const LogRecord& a, const LogRecord& b) {
  EXPECT_EQ(a.lsn, b.lsn);
  EXPECT_EQ(a.txn, b.txn);
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.table, b.table);
  EXPECT_EQ(a.rid, b.rid);
  ASSERT_EQ(a.before.size(), b.before.size());
  for (size_t i = 0; i < a.before.size(); ++i) {
    EXPECT_EQ(a.before[i].Compare(b.before[i]), 0);
  }
  ASSERT_EQ(a.after.size(), b.after.size());
  for (size_t i = 0; i < a.after.size(); ++i) {
    EXPECT_EQ(a.after[i].Compare(b.after[i]), 0);
  }
}

TEST(WalCodec, EncodeDecodeRoundTrip) {
  const std::vector<LogRecord> recs = SampleRecords();
  const std::string bytes = EncodeLogRecords(recs);
  const std::vector<LogRecord> decoded = DecodeLogRecords(bytes);
  ASSERT_EQ(decoded.size(), recs.size());
  for (size_t i = 0; i < recs.size(); ++i) ExpectSameRecord(recs[i], decoded[i]);
}

TEST(WalCodec, TruncationAtEveryByteOffsetYieldsLongestValidPrefix) {
  // The satellite contract: cutting the encoded log at ANY byte offset
  // (including every offset inside the final record's frame) decodes
  // exactly the records whose frames are fully contained — no error, no
  // partial record, no lost complete record.
  const std::vector<LogRecord> recs = SampleRecords();
  std::vector<size_t> frame_ends;  // cumulative encoded size after each record
  std::string all;
  for (const LogRecord& r : recs) {
    r.EncodeTo(&all);
    frame_ends.push_back(all.size());
  }
  for (size_t cut = 0; cut <= all.size(); ++cut) {
    size_t expected = 0;
    while (expected < frame_ends.size() && frame_ends[expected] <= cut) ++expected;
    const std::vector<LogRecord> decoded =
        DecodeLogRecords(std::string_view(all).substr(0, cut));
    ASSERT_EQ(decoded.size(), expected) << "cut at byte " << cut;
    for (size_t i = 0; i < decoded.size(); ++i) ExpectSameRecord(recs[i], decoded[i]);
  }
}

TEST(WalCodec, ChecksumCatchesPayloadCorruption) {
  const std::vector<LogRecord> recs = SampleRecords();
  std::string first;
  recs[0].EncodeTo(&first);
  std::string all = EncodeLogRecords(recs);
  // Flip one byte inside the SECOND record's payload (skip its 8-byte
  // frame header too so the length still parses).
  all[first.size() + 8 + 3] = static_cast<char>(all[first.size() + 8 + 3] ^ 0x40);
  const std::vector<LogRecord> decoded = DecodeLogRecords(all);
  ASSERT_EQ(decoded.size(), 1u);  // decoding stops at the corrupt frame
  ExpectSameRecord(recs[0], decoded[0]);
}

TEST(DurableStore, RestoreLogFromTornBytesKeepsValidPrefix) {
  auto durable = std::make_shared<DurableStore>();
  WriteAheadLog wal(durable, 1 << 20);
  for (const LogRecord& r : SampleRecords()) {
    LogRecord copy = r;
    copy.lsn = kInvalidLsn;  // Append reassigns
    ASSERT_TRUE(wal.Append(std::move(copy), /*exempt=*/true).ok());
  }
  ASSERT_TRUE(wal.ForceAll().ok());
  const std::string bytes = durable->EncodedLog();

  // Tear the file 3 bytes into the final record's frame.
  std::string last;
  durable->ForcedSince(3).front().EncodeTo(&last);
  ASSERT_EQ(durable->ForcedSince(3).size(), 1u);
  const size_t torn = bytes.size() - last.size() + 3;
  EXPECT_EQ(durable->RestoreLogFromBytes(std::string_view(bytes).substr(0, torn)), 3u);
  EXPECT_EQ(durable->max_forced_lsn(), 3u);

  // Re-open resumes numbering after the surviving prefix.
  WriteAheadLog wal2(durable, 1 << 20);
  ASSERT_TRUE(wal2.Append(Rec(2, LogRecordType::kBegin)).ok());
  EXPECT_EQ(wal2.last_lsn(), 4u);
}

// --------------------------------------------------------------------------
// Engine fail points in the force path.
// --------------------------------------------------------------------------

TEST(WalFailPoints, ForceErrorLeavesTailVolatileAndRetryable) {
  auto fault = std::make_shared<FaultInjector>();
  auto durable = std::make_shared<DurableStore>();
  WriteAheadLog wal(durable, 1 << 20, fault.get());
  ASSERT_TRUE(wal.Append(Rec(1, LogRecordType::kBegin)).ok());
  ASSERT_TRUE(wal.Append(Rec(1, LogRecordType::kCommit)).ok());

  FaultInjector::Spec err;  // default: one IOError
  fault->Arm(failpoints::kSqldbWalForce, err);
  EXPECT_EQ(wal.ForceAll().code(), StatusCode::kIOError);
  EXPECT_EQ(durable->max_forced_lsn(), kInvalidLsn);  // nothing written

  // The failed fsync lost nothing volatile: a retry succeeds completely.
  EXPECT_TRUE(wal.ForceAll().ok());
  EXPECT_EQ(durable->max_forced_lsn(), 2u);
}

TEST(WalFailPoints, TornTailKeepsPrefixAndLosesSuffixForGood) {
  auto fault = std::make_shared<FaultInjector>();
  auto durable = std::make_shared<DurableStore>();
  WriteAheadLog wal(durable, 1 << 20, fault.get());
  for (const LogRecord& r : SampleRecords()) {
    LogRecord copy = r;
    copy.lsn = kInvalidLsn;
    ASSERT_TRUE(wal.Append(std::move(copy), /*exempt=*/true).ok());
  }

  FaultInjector::Spec err;
  fault->Arm(failpoints::kSqldbWalTornTail, err);
  EXPECT_EQ(wal.ForceAll().code(), StatusCode::kIOError);
  // The batch was cut mid final record: records 1..3 became durable, the
  // final record is gone for good.
  EXPECT_EQ(durable->max_forced_lsn(), 3u);
  EXPECT_EQ(wal.ForceTo(4).code(), StatusCode::kIOError);  // lost records stay lost
  EXPECT_EQ(durable->max_forced_lsn(), 3u);

  // New appends force normally past the tear.
  ASSERT_TRUE(wal.Append(Rec(2, LogRecordType::kBegin)).ok());
  EXPECT_TRUE(wal.ForceAll().ok());
  EXPECT_EQ(durable->max_forced_lsn(), 5u);
}

TEST(WalFailPoints, CrashedInjectorFailsForces) {
  auto fault = std::make_shared<FaultInjector>();
  auto durable = std::make_shared<DurableStore>();
  WriteAheadLog wal(durable, 1 << 20, fault.get());
  ASSERT_TRUE(wal.Append(Rec(1, LogRecordType::kCommit), /*exempt=*/true).ok());
  FaultInjector::Spec crash;
  crash.action = FaultInjector::Action::kCrash;
  fault->Arm(failpoints::kSqldbWalForce, crash);
  EXPECT_TRUE(wal.ForceAll().IsUnavailable());
  EXPECT_TRUE(fault->crashed());
  // Every later force on the dead process fails too.
  EXPECT_TRUE(wal.ForceAll().IsUnavailable());
  EXPECT_EQ(durable->max_forced_lsn(), kInvalidLsn);
}

TEST(DurableStore, CheckpointImageRoundTrip) {
  DurableStore store;
  store.SetCheckpoint("image-bytes", 17);
  EXPECT_EQ(store.checkpoint_image(), "image-bytes");
  EXPECT_EQ(store.checkpoint_lsn(), 17u);
}

TEST(DurableStore, TruncateDropsOldRecords) {
  DurableStore store;
  std::vector<LogRecord> recs;
  for (Lsn l = 1; l <= 10; ++l) {
    LogRecord r = Rec(1, LogRecordType::kInsert);
    r.lsn = l;
    recs.push_back(r);
  }
  store.AppendForced(recs);
  store.TruncateBefore(6);
  auto rest = store.ForcedSince(0);
  ASSERT_EQ(rest.size(), 5u);
  EXPECT_EQ(rest.front().lsn, 6u);
}

}  // namespace
}  // namespace datalinks::sqldb

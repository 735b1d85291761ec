// Write-ahead log + durable store for the embedded engine.
//
// Durability model (ARIES-lite, tuned for crash *simulation*):
//  - Every mutation appends a redo/undo record to a volatile log tail.
//  - "Force" (at commit / local-db commit during DLFM Prepare) moves the
//    tail into the DurableStore, which survives SimulateCrash().
//  - Fuzzy checkpoints serialize the entire database image (catalog + heap
//    contents, including uncommitted rows) after forcing the log; recovery
//    starts from the image, redoes the forced suffix, then rolls back
//    transactions with no COMMIT/ABORT record using before-images.
//  - Log space is accounted from the truncation point (min of checkpoint
//    LSN and the begin-LSN of the oldest active transaction) to the end.
//    Exceeding DatabaseOptions::log_capacity_bytes yields kLogFull — the
//    failure the paper's batched-commit lesson (§4) is about: one huge
//    transaction pins the truncation point and fills the log.
//
// One tail: every append takes the leaf mutex `space_mu_` anyway (log-space
// accounting), so the record is pushed onto the single volatile tail in the
// same critical section that checks capacity and assigns its LSN.  The
// tail is therefore LSN-sorted and prefix-closed by construction: every
// assigned LSN is either durable or in the tail.
//
// Group commit: concurrent ForceTo() callers coalesce behind a single
// leader.  The leader swaps the tail out under `space_mu_` and moves it
// into the DurableStore in one append, outside every WAL lock, while
// followers wait on a condition variable until the durable frontier covers
// their commit LSN.  WalStats reports the coalescing (force_waits, commits
// per force).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/fault_injector.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/sim.h"
#include "common/status.h"
#include "sqldb/page.h"
#include "sqldb/schema.h"
#include "sqldb/value.h"

namespace datalinks::sqldb {

enum class LogRecordType : uint8_t {
  kBegin = 1,
  kInsert,
  kDelete,
  kUpdate,
  kCommit,
  kAbort,
};

struct LogRecord {
  Lsn lsn = kInvalidLsn;
  TxnId txn = 0;
  LogRecordType type = LogRecordType::kBegin;
  TableId table = 0;
  RowId rid = 0;
  /// Heap page the record's after-state lives on (kInsert / kUpdate target,
  /// kDelete source).  ARIES redo filters on the page's LSN: a record is
  /// re-applied only when `lsn > page_lsn(page)`.
  PageId page = kInvalidPageId;
  /// For kUpdate only: the page the row occupied before (== `page` for an
  /// in-place update); redo removes from here, re-inserts into `page`.
  PageId from_page = kInvalidPageId;
  Row before;  // kDelete / kUpdate
  Row after;   // kInsert / kUpdate

  LogRecord() = default;
  LogRecord(Lsn l, TxnId t, LogRecordType ty, TableId tab, RowId r, Row b, Row a)
      : lsn(l), txn(t), type(ty), table(tab), rid(r), before(std::move(b)),
        after(std::move(a)) {}

  /// Encoded size; computed once and cached (records are immutable after
  /// append, and the size is consulted at append, force and truncate time).
  size_t ByteSize() const;

  /// Byte codec used for the on-"disk" log representation: a
  /// [u32 length][u32 checksum][payload] frame per record, so a torn write
  /// (partial frame, corrupt payload) is detectable at decode time.
  void EncodeTo(std::string* out) const;

 private:
  mutable size_t byte_size_ = 0;
};

/// Encode records back-to-back in log order.
std::string EncodeLogRecords(const std::vector<LogRecord>& records);

/// Decode the longest valid prefix of an encoded log: decoding stops at the
/// first torn frame (short length, checksum mismatch, undecodable payload)
/// — exactly what reading the log file after a crash mid-write yields.
std::vector<LogRecord> DecodeLogRecords(std::string_view bytes);

/// The state that survives a simulated crash: the last checkpoint image and
/// the forced log suffix.  Shared between a live Database and the test
/// harness; Database::SimulateCrash() hands it back for re-opening.
class DurableStore {
 public:
  /// A validated checkpoint anchor.  `valid` is false when neither slot
  /// holds a CRC-clean image (no checkpoint yet, or both anchors torn).
  struct CheckpointAnchor {
    std::string image;
    Lsn lsn = kInvalidLsn;
    Lsn redo_floor = kInvalidLsn;  // oldest LSN recovery must redo from
    bool valid = false;
  };

  /// Checkpoint image bytes (opaque to the store; Database serializes).
  /// Dual-slot ping-pong with a CRC per slot: the write targets the slot NOT
  /// currently active, then flips, so a torn checkpoint write can only
  /// destroy the in-flight anchor — restart falls back to the previous one
  /// (whose redo floor the log was truncated to, keeping redo sound).
  /// `redo_floor` defaults to lsn + 1 (no dirty pages older than the image).
  void SetCheckpoint(std::string image, Lsn checkpoint_lsn,
                     Lsn redo_floor = kInvalidLsn);

  /// CRC-validates the active anchor, falling back to the other slot; a
  /// mismatch on both is reported as `valid == false` (treat as missing).
  CheckpointAnchor GetCheckpoint() const;

  /// Legacy single-anchor views (the valid anchor's image / lsn).
  std::string checkpoint_image() const;
  Lsn checkpoint_lsn() const;

  /// Test hook: truncate the ACTIVE anchor's image to `prefix` bytes without
  /// fixing its CRC — simulates a write torn mid-checkpoint.
  void CorruptActiveCheckpoint(size_t prefix);

  // Durable data pages.  Each logical page has two physical slots written
  // alternately by the Pager (ping-pong; see pager.h).  Bytes are opaque
  // here — the Pager owns the [crc][version][payload] slot format.
  void WritePageSlot(PageId id, int which, std::string bytes);
  std::string ReadPageSlot(PageId id, int which) const;
  void DropDataPage(PageId id);
  std::vector<PageId> DataPageIds() const;

  void AppendForced(std::vector<LogRecord> records);
  /// All forced records with lsn > `after`, in order.
  std::vector<LogRecord> ForcedSince(Lsn after) const;

  /// Discard forced records with lsn < `point` (checkpoint truncation).
  void TruncateBefore(Lsn point);

  Lsn max_forced_lsn() const;
  size_t forced_bytes() const;

  /// The forced log in its encoded (framed) byte form.
  std::string EncodedLog() const;
  /// Replace the forced log with the longest valid record prefix decoded
  /// from `bytes` (reading a possibly-torn log file after a crash).
  /// Returns the number of records restored.
  size_t RestoreLogFromBytes(std::string_view bytes);

  /// Simulated media latency per forced append (benchmarks model the log
  /// disk's write latency with this; default 0 = instantaneous).
  void set_append_latency_micros(int64_t micros) { append_latency_micros_ = micros; }
  int64_t append_latency_micros() const { return append_latency_micros_; }

 private:
  struct AnchorSlot {
    std::string image;
    Lsn lsn = kInvalidLsn;
    Lsn redo_floor = kInvalidLsn;
    uint32_t crc = 0;
    bool present = false;
  };

  /// Validated view of `anchors_`; mu_ held.
  CheckpointAnchor GetCheckpointLocked() const;

  mutable std::mutex mu_;
  AnchorSlot anchors_[2];
  int active_anchor_ = 0;
  std::map<PageId, std::array<std::string, 2>> data_pages_;
  std::deque<LogRecord> forced_;
  size_t forced_bytes_ = 0;
  int64_t append_latency_micros_ = 0;
};

struct WalStats {
  uint64_t appends = 0;
  uint64_t forces = 0;          // durable appends (one per group-commit batch)
  uint64_t log_full_errors = 0;
  uint64_t checkpoints = 0;
  size_t bytes_in_use = 0;   // from truncation point to end
  size_t capacity = 0;

  // Group commit.
  uint64_t force_waits = 0;           // callers that waited behind a leader
  uint64_t group_commit_records = 0;  // log records moved by those flushes
  uint64_t group_commit_commits = 0;  // commit/abort records moved
  /// Mean transactions retired per durable append; > 1 means concurrent
  /// committers actually coalesced.
  double mean_commits_per_batch = 0;
};

/// Volatile WAL front-end.  Thread-safe: Append assigns the LSN and queues
/// the record under one leaf mutex (callers hold the owning row latch, so
/// per-row append order matches apply order); ForceTo runs the
/// group-commit protocol over the tail.
class WriteAheadLog {
 public:
  /// `fault`/`clock` are optional: when set, ForceTo probes the
  /// "sqldb.wal.force" and "sqldb.wal.torn_tail" fail points (see
  /// wal.cc).  `registry` (optional) receives the
  /// sqldb.wal.force_latency_us and sqldb.wal.batch_records histograms.
  WriteAheadLog(std::shared_ptr<DurableStore> durable, size_t capacity_bytes,
                FaultInjector* fault = nullptr, Clock* clock = nullptr,
                metrics::Registry* registry = nullptr);

  /// Append a record; assigns the LSN (returned through `assigned` when
  /// non-null).  Fails with kLogFull if retained log bytes (truncation
  /// point .. end) would exceed capacity.  `exempt` bypasses the capacity
  /// check — rollback compensations and commit/abort records must never
  /// fail for space (DB2 reserves log space for undo).  A kBegin record
  /// registers its transaction as active: its LSN pins the truncation
  /// point until OnEnd.
  Status Append(LogRecord record, bool exempt = false, Lsn* assigned = nullptr);

  /// Bytes pinned by the oldest active transaction (cannot be reclaimed by
  /// a checkpoint); used to decide whether auto-checkpointing would help.
  size_t BytesPinnedByActiveTxns() const;

  /// Make everything up to and including `lsn` durable.  Concurrent callers
  /// coalesce: one leader detaches the tail and moves it into the
  /// DurableStore in a single append; followers wait until the durable
  /// frontier covers their LSN (group commit).  Fails when the fail points
  /// "sqldb.wal.force" or "sqldb.wal.torn_tail" fire (or the process
  /// already crashed): the caller's records are NOT durable and the caller
  /// must not report its transaction committed.
  Status ForceTo(Lsn lsn);
  Status ForceAll();

  /// Transaction end hook for space accounting (the begin is registered by
  /// the kBegin append).
  void OnEnd(TxnId txn);

  /// Record that a checkpoint at `lsn` completed; truncates retired space.
  /// `redo_floor` (default lsn + 1) is the oldest LSN a restart must still
  /// redo — with fuzzy checkpoints, the min recLSN over still-dirty pages.
  /// The log is retained from min(redo_floor, oldest active begin).
  void OnCheckpoint(Lsn lsn, Lsn redo_floor = kInvalidLsn);

  Lsn last_lsn() const;
  size_t BytesInUse() const;
  WalStats stats() const;

  DurableStore* durable() { return durable_.get(); }

 private:
  /// Models the log device's write latency ahead of a durable append —
  /// on the injected clock when one is present, so simulated runs
  /// compress it to virtual time.
  void SimulateMediaLatency();

  Lsn TruncationPoint() const;        // space_mu_ held
  void AdvanceTruncationPoint();      // space_mu_ held; retires space O(1) amortized

  std::shared_ptr<DurableStore> durable_;
  const size_t capacity_;
  FaultInjector* fault_ = nullptr;  // not owned; may be nullptr
  Clock* clock_ = nullptr;          // not owned; used by delay fail points
  metrics::Histogram* force_latency_us_ = nullptr;  // owned by the registry
  metrics::Histogram* batch_records_ = nullptr;
  uint64_t force_seq_ = 0;  // leader-only; adaptive latency sampling

  /// Next LSN to assign.  Written only under space_mu_ (see Append); read
  /// without it by last_lsn() and ForceTo.
  std::atomic<Lsn> next_lsn_{1};

  // The volatile tail and log-space accounting (truncation point,
  // per-record sizes, active txns).  Nothing yields while holding it (only
  // DurableStore::mu_ nests inside), so it stays a std::mutex.
  mutable std::mutex space_mu_;
  std::vector<LogRecord> tail_;  // not yet forced; LSN-sorted, prefix-closed
  Lsn redo_floor_ = kInvalidLsn;  // from the last OnCheckpoint
  std::map<Lsn, TxnId> active_begin_;     // begin-LSN -> txn (ordered)
  std::map<TxnId, Lsn> txn_begin_;
  // Byte sizes of retained records (truncation point .. end), keyed by lsn.
  // `in_use_bytes_` is the running sum so the hot append path is O(log n)
  // instead of a full-map walk.
  std::map<Lsn, size_t> record_bytes_;
  size_t in_use_bytes_ = 0;

  // Group commit.  force_mu_ guards only the leader flag and the durable
  // frontier; the leader never holds it while detaching the tail or
  // appending to the durable store.  sim:: types: the follower wait and
  // the fail-point probe under force_mu_ are simulation yield points.
  mutable sim::Mutex force_mu_;
  sim::CondVar force_cv_;
  bool force_leader_active_ = false;
  Lsn durable_upto_ = kInvalidLsn;  // highest lsn moved into the durable store

  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> forces_{0};
  std::atomic<uint64_t> log_full_errors_{0};
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> force_waits_{0};
  std::atomic<uint64_t> group_commit_records_{0};
  std::atomic<uint64_t> group_commit_commits_{0};
};

}  // namespace datalinks::sqldb

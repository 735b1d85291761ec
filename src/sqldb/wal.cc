#include "sqldb/wal.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "common/trace.h"

namespace datalinks::sqldb {

namespace {

// Little-endian fixed-width integers for the log frame.
void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

bool GetU32(std::string_view* in, uint32_t* v) {
  if (in->size() < 4) return false;
  uint32_t x = 0;
  for (int i = 0; i < 4; ++i) x |= static_cast<uint32_t>(static_cast<unsigned char>((*in)[i])) << (8 * i);
  in->remove_prefix(4);
  *v = x;
  return true;
}

bool GetU64(std::string_view* in, uint64_t* v) {
  if (in->size() < 8) return false;
  uint64_t x = 0;
  for (int i = 0; i < 8; ++i) x |= static_cast<uint64_t>(static_cast<unsigned char>((*in)[i])) << (8 * i);
  in->remove_prefix(8);
  *v = x;
  return true;
}

// FNV-1a 32-bit: cheap, deterministic, good enough to catch torn frames.
uint32_t Checksum(std::string_view payload) {
  uint32_t h = 2166136261u;
  for (char c : payload) {
    h ^= static_cast<unsigned char>(c);
    h *= 16777619u;
  }
  return h;
}

}  // namespace

size_t LogRecord::ByteSize() const {
  if (byte_size_ == 0) {
    size_t n = 48;  // header (lsn, txn, type, table, rid, page, from_page)
    std::string tmp;
    for (const Row* r : {&before, &after}) {
      for (const Value& v : *r) {
        tmp.clear();
        v.EncodeTo(&tmp);
        n += tmp.size();
      }
    }
    byte_size_ = n;
  }
  return byte_size_;
}

void LogRecord::EncodeTo(std::string* out) const {
  std::string payload;
  PutU64(&payload, lsn);
  PutU64(&payload, txn);
  payload.push_back(static_cast<char>(type));
  PutU64(&payload, table);
  PutU64(&payload, rid);
  PutU64(&payload, page);
  PutU64(&payload, from_page);
  EncodeRowTo(before, &payload);
  EncodeRowTo(after, &payload);
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, Checksum(payload));
  out->append(payload);
}

std::string EncodeLogRecords(const std::vector<LogRecord>& records) {
  std::string out;
  for (const LogRecord& r : records) r.EncodeTo(&out);
  return out;
}

std::vector<LogRecord> DecodeLogRecords(std::string_view bytes) {
  std::vector<LogRecord> out;
  while (!bytes.empty()) {
    std::string_view rest = bytes;
    uint32_t len = 0, sum = 0;
    if (!GetU32(&rest, &len) || !GetU32(&rest, &sum)) break;  // torn header
    if (rest.size() < len) break;                             // torn payload
    std::string_view payload = rest.substr(0, len);
    if (Checksum(payload) != sum) break;  // corrupt payload
    LogRecord r;
    uint64_t type_table_rid[2];
    if (!GetU64(&payload, &r.lsn) || !GetU64(&payload, &r.txn) || payload.empty()) break;
    r.type = static_cast<LogRecordType>(static_cast<unsigned char>(payload[0]));
    payload.remove_prefix(1);
    if (!GetU64(&payload, &type_table_rid[0]) || !GetU64(&payload, &type_table_rid[1])) break;
    r.table = type_table_rid[0];
    r.rid = type_table_rid[1];
    if (!GetU64(&payload, &r.page) || !GetU64(&payload, &r.from_page)) break;
    Result<Row> before = DecodeRowFrom(&payload);
    if (!before.ok()) break;
    Result<Row> after = DecodeRowFrom(&payload);
    if (!after.ok()) break;
    if (!payload.empty()) break;  // trailing garbage inside the frame
    r.before = std::move(*before);
    r.after = std::move(*after);
    out.push_back(std::move(r));
    bytes = rest.substr(len);
  }
  return out;
}

void DurableStore::SetCheckpoint(std::string image, Lsn checkpoint_lsn,
                                 Lsn redo_floor) {
  std::lock_guard<std::mutex> lk(mu_);
  // Write the INACTIVE slot, then flip: the previous anchor stays intact on
  // "disk" until the new one is fully written, so tearing this write leaves
  // a valid fallback.
  AnchorSlot& slot = anchors_[1 - active_anchor_];
  slot.image = std::move(image);
  slot.lsn = checkpoint_lsn;
  slot.redo_floor = redo_floor == kInvalidLsn ? checkpoint_lsn + 1 : redo_floor;
  slot.crc = Crc32(slot.image);
  slot.present = true;
  active_anchor_ = 1 - active_anchor_;
}

DurableStore::CheckpointAnchor DurableStore::GetCheckpointLocked() const {
  CheckpointAnchor out;
  for (int which : {active_anchor_, 1 - active_anchor_}) {
    const AnchorSlot& slot = anchors_[which];
    if (!slot.present || Crc32(slot.image) != slot.crc) continue;
    out.image = slot.image;
    out.lsn = slot.lsn;
    out.redo_floor = slot.redo_floor;
    out.valid = true;
    return out;
  }
  return out;
}

DurableStore::CheckpointAnchor DurableStore::GetCheckpoint() const {
  std::lock_guard<std::mutex> lk(mu_);
  return GetCheckpointLocked();
}

std::string DurableStore::checkpoint_image() const {
  std::lock_guard<std::mutex> lk(mu_);
  return GetCheckpointLocked().image;
}

Lsn DurableStore::checkpoint_lsn() const {
  std::lock_guard<std::mutex> lk(mu_);
  return GetCheckpointLocked().lsn;
}

void DurableStore::CorruptActiveCheckpoint(size_t prefix) {
  std::lock_guard<std::mutex> lk(mu_);
  AnchorSlot& slot = anchors_[active_anchor_];
  if (!slot.present) return;
  if (prefix < slot.image.size()) slot.image.resize(prefix);
  // Flip a byte too, so prefix == size still yields a CRC mismatch.
  if (!slot.image.empty()) slot.image.back() = static_cast<char>(slot.image.back() ^ 0x5a);
  else slot.crc ^= 0xdeadbeef;
}

void DurableStore::WritePageSlot(PageId id, int which, std::string bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  data_pages_[id][which] = std::move(bytes);
}

std::string DurableStore::ReadPageSlot(PageId id, int which) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = data_pages_.find(id);
  return it == data_pages_.end() ? std::string() : it->second[which];
}

void DurableStore::DropDataPage(PageId id) {
  std::lock_guard<std::mutex> lk(mu_);
  data_pages_.erase(id);
}

std::vector<PageId> DurableStore::DataPageIds() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<PageId> out;
  out.reserve(data_pages_.size());
  for (const auto& [id, slots] : data_pages_) out.push_back(id);
  return out;
}

void DurableStore::AppendForced(std::vector<LogRecord> records) {
  // Media latency is simulated by the WAL force leader (on its injected
  // clock, so virtual time compresses it), not here.
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& r : records) {
    forced_bytes_ += r.ByteSize();
    forced_.push_back(std::move(r));
  }
}

std::vector<LogRecord> DurableStore::ForcedSince(Lsn after) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<LogRecord> out;
  for (const auto& r : forced_) {
    if (r.lsn > after) out.push_back(r);
  }
  return out;
}

void DurableStore::TruncateBefore(Lsn point) {
  std::lock_guard<std::mutex> lk(mu_);
  while (!forced_.empty() && forced_.front().lsn < point) {
    forced_bytes_ -= forced_.front().ByteSize();
    forced_.pop_front();
  }
}

Lsn DurableStore::max_forced_lsn() const {
  std::lock_guard<std::mutex> lk(mu_);
  return forced_.empty() ? kInvalidLsn : forced_.back().lsn;
}

size_t DurableStore::forced_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return forced_bytes_;
}

std::string DurableStore::EncodedLog() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  for (const LogRecord& r : forced_) r.EncodeTo(&out);
  return out;
}

size_t DurableStore::RestoreLogFromBytes(std::string_view bytes) {
  std::vector<LogRecord> records = DecodeLogRecords(bytes);
  std::lock_guard<std::mutex> lk(mu_);
  forced_.clear();
  forced_bytes_ = 0;
  for (auto& r : records) {
    forced_bytes_ += r.ByteSize();
    forced_.push_back(std::move(r));
  }
  return forced_.size();
}

WriteAheadLog::WriteAheadLog(std::shared_ptr<DurableStore> durable, size_t capacity_bytes,
                             FaultInjector* fault, Clock* clock,
                             metrics::Registry* registry)
    : durable_(std::move(durable)), capacity_(capacity_bytes), fault_(fault), clock_(clock) {
  if (registry != nullptr) {
    force_latency_us_ = registry->GetHistogram("sqldb.wal.force_latency_us");
    batch_records_ = registry->GetHistogram("sqldb.wal.batch_records",
                                            metrics::Histogram::CountBounds());
  }
  // Resume LSN numbering past anything already durable (re-open after crash).
  const DurableStore::CheckpointAnchor anchor = durable_->GetCheckpoint();
  next_lsn_ = std::max<Lsn>(durable_->max_forced_lsn(), anchor.lsn) + 1;
  if (anchor.valid) redo_floor_ = anchor.redo_floor;
  durable_upto_ = next_lsn_ - 1;  // the tail is empty; nothing volatile yet
}

Lsn WriteAheadLog::TruncationPoint() const {
  // With fuzzy checkpoints, the anchor's redo floor is the oldest record a
  // restart must still redo (min recLSN over pages that were dirty when the
  // image was cut); everything below it is reflected in flushed pages + the
  // image.  An active transaction that began earlier still pins its records
  // for undo.
  Lsn point = redo_floor_ == kInvalidLsn ? 1 : redo_floor_;
  if (!active_begin_.empty()) point = std::min(point, active_begin_.begin()->first);
  return point;
}

void WriteAheadLog::AdvanceTruncationPoint() {
  // The truncation point is monotone (checkpoints only move forward; new
  // transactions begin at ever-higher LSNs), so retired entries can be
  // dropped from the accounting map as the point passes them — O(1)
  // amortized per record over its lifetime.
  const Lsn point = TruncationPoint();
  auto end = record_bytes_.lower_bound(point);
  for (auto it = record_bytes_.begin(); it != end;) {
    in_use_bytes_ -= it->second;
    it = record_bytes_.erase(it);
  }
}

size_t WriteAheadLog::BytesInUse() const {
  std::lock_guard<std::mutex> lk(space_mu_);
  const Lsn point = TruncationPoint();
  size_t n = in_use_bytes_;
  // Entries below the current point that have not been retired yet (the
  // point may have advanced since the last mutation) are excluded lazily.
  for (auto it = record_bytes_.begin(), end = record_bytes_.lower_bound(point); it != end;
       ++it) {
    n -= it->second;
  }
  return n;
}

Status WriteAheadLog::Append(LogRecord record, bool exempt, Lsn* assigned) {
  const size_t sz = record.ByteSize();
  // Capacity check, LSN assignment and the push onto the tail form one
  // critical section, so the tail is LSN-sorted and every assigned LSN is
  // either durable or in the tail.
  std::lock_guard<std::mutex> lk(space_mu_);
  AdvanceTruncationPoint();
  if (!exempt && in_use_bytes_ + sz > capacity_) {
    log_full_errors_.fetch_add(1, std::memory_order_relaxed);
    return Status::LogFull("log capacity " + std::to_string(capacity_) +
                           " bytes exceeded; oldest active txn pins lsn " +
                           std::to_string(TruncationPoint()));
  }
  record.lsn = next_lsn_.fetch_add(1, std::memory_order_relaxed);
  if (record.type == LogRecordType::kBegin) {
    active_begin_[record.lsn] = record.txn;
    txn_begin_[record.txn] = record.lsn;
  }
  record_bytes_[record.lsn] = sz;
  in_use_bytes_ += sz;
  if (assigned != nullptr) *assigned = record.lsn;
  appends_.fetch_add(1, std::memory_order_relaxed);
  tail_.push_back(std::move(record));
  return Status::OK();
}

void WriteAheadLog::SimulateMediaLatency() {
  const int64_t latency = durable_->append_latency_micros();
  if (latency <= 0) return;
  if (clock_ != nullptr) {
    clock_->SleepForMicros(latency);
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(latency));
  }
}

Status WriteAheadLog::ForceTo(Lsn lsn) {
  std::unique_lock<sim::Mutex> lk(force_mu_);
  lsn = std::min(lsn, next_lsn_.load(std::memory_order_relaxed) - 1);
  while (durable_upto_ < lsn) {
    if (fault_ != nullptr && fault_->crashed()) {
      return Status::Unavailable("process crashed; log force abandoned");
    }
    if (force_leader_active_) {
      // Follower: a leader is flushing.  Wait until its batch lands OR the
      // durable frontier already covers us — the next leader re-raises
      // force_leader_active_ immediately on wake-up, so a predicate of
      // "!force_leader_active_" alone would strand covered followers
      // through whole extra flush cycles (collapsing batch sizes to ~2).
      force_waits_.fetch_add(1, std::memory_order_relaxed);
      const int64_t q0 = trace::AmbientNowMicros();
      force_cv_.wait(lk, [&] { return !force_leader_active_ || durable_upto_ >= lsn; });
      trace::Interval("sqldb.wal.force.queued", q0, trace::AmbientNowMicros());
      continue;
    }
    // Leader-elect.  "sqldb.wal.force" models the fsync itself failing:
    // nothing was written, the tail stays volatile, and the caller must not
    // treat its transaction as committed.
    if (fault_ != nullptr) {
      if (auto f = fault_->Hit(failpoints::kSqldbWalForce, clock_)) {
        force_cv_.notify_all();
        return *f;
      }
    }
    const int64_t lead0 = trace::AmbientNowMicros();
    force_leader_active_ = true;
    lk.unlock();

    // Detach the whole tail.  It is LSN-sorted and prefix-closed (see
    // Append), so it is the batch as it stands.
    std::vector<LogRecord> batch;
    {
      std::lock_guard<std::mutex> sp_lk(space_mu_);
      batch.swap(tail_);
    }
    Status result = Status::OK();
    if (batch.empty()) {
      // Only possible after a torn-tail error dropped volatile records: the
      // requested LSNs no longer exist anywhere and can never become durable.
      result = Status::IOError("log records lost by an earlier failed force");
    } else if (fault_ != nullptr) {
      // "sqldb.wal.torn_tail" models a crash mid-write of this batch: the
      // log file ends inside the final record's frame.  Round-trip the
      // batch through the byte codec, cut halfway into the last frame, and
      // make durable only the longest valid decoded prefix — the rest of
      // the batch is lost, exactly as a real torn write loses it.
      if (auto f = fault_->Hit(failpoints::kSqldbWalTornTail, clock_)) {
        const std::string encoded = EncodeLogRecords(batch);
        std::string last_frame;
        batch.back().EncodeTo(&last_frame);
        const size_t cut = encoded.size() - last_frame.size() + last_frame.size() / 2;
        batch = DecodeLogRecords(std::string_view(encoded).substr(0, cut));
        result = *f;
      }
    }
    Lsn target = kInvalidLsn;
    if (!batch.empty()) {
      target = batch.back().lsn;
      size_t commits = 0;
      for (const LogRecord& r : batch) {
        if (r.type == LogRecordType::kCommit || r.type == LogRecordType::kAbort) ++commits;
      }
      const size_t nrecords = batch.size();
      // Adaptive latency sampling: every force while the histogram is cold
      // (so low-throughput runs still report a usable p99), then 1-in-8 —
      // two clock reads per force are measurable against a fast in-memory
      // log (E13) and a warm distribution doesn't need every data point.
      // force_seq_ is only touched by the active leader, which is exclusive
      // by construction.
      ++force_seq_;
      const bool sample =
          force_latency_us_ != nullptr &&
          (force_latency_us_->count() < 64 || (force_seq_ & 7) == 0);
      const int64_t t0 = sample ? metrics::NowMicrosForMetrics() : 0;
      SimulateMediaLatency();
      durable_->AppendForced(std::move(batch));  // the "I/O", outside all WAL locks
      if (sample) {
        force_latency_us_->Record(metrics::NowMicrosForMetrics() - t0);
        batch_records_->Record(static_cast<int64_t>(nrecords));
      }
      forces_.fetch_add(1, std::memory_order_relaxed);
      group_commit_records_.fetch_add(nrecords, std::memory_order_relaxed);
      group_commit_commits_.fetch_add(commits, std::memory_order_relaxed);
    }
    trace::Interval("sqldb.wal.force.leader", lead0, trace::AmbientNowMicros());
    lk.lock();
    if (target != kInvalidLsn) durable_upto_ = target;
    force_leader_active_ = false;
    force_cv_.notify_all();
    if (!result.ok()) return result;
  }
  return Status::OK();
}

Status WriteAheadLog::ForceAll() {
  return ForceTo(next_lsn_.load(std::memory_order_relaxed) - 1);
}

void WriteAheadLog::OnEnd(TxnId txn) {
  std::lock_guard<std::mutex> lk(space_mu_);
  auto it = txn_begin_.find(txn);
  if (it == txn_begin_.end()) return;
  active_begin_.erase(it->second);
  txn_begin_.erase(it);
  AdvanceTruncationPoint();
}

void WriteAheadLog::OnCheckpoint(Lsn lsn, Lsn redo_floor) {
  std::lock_guard<std::mutex> lk(space_mu_);
  redo_floor_ = redo_floor == kInvalidLsn ? lsn + 1 : redo_floor;
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  const Lsn point = TruncationPoint();
  durable_->TruncateBefore(point);
  AdvanceTruncationPoint();
}

size_t WriteAheadLog::BytesPinnedByActiveTxns() const {
  std::lock_guard<std::mutex> lk(space_mu_);
  if (active_begin_.empty()) return 0;
  const Lsn oldest = active_begin_.begin()->first;
  size_t n = 0;
  for (auto it = record_bytes_.lower_bound(oldest); it != record_bytes_.end(); ++it) {
    n += it->second;
  }
  return n;
}

Lsn WriteAheadLog::last_lsn() const {
  return next_lsn_.load(std::memory_order_relaxed) - 1;
}

WalStats WriteAheadLog::stats() const {
  WalStats s;
  s.capacity = capacity_;
  {
    std::lock_guard<std::mutex> lk(space_mu_);
    const Lsn point = TruncationPoint();
    s.bytes_in_use = in_use_bytes_;
    for (auto it = record_bytes_.begin(), end = record_bytes_.lower_bound(point);
         it != end; ++it) {
      s.bytes_in_use -= it->second;
    }
  }
  s.appends = appends_.load(std::memory_order_relaxed);
  s.forces = forces_.load(std::memory_order_relaxed);
  s.log_full_errors = log_full_errors_.load(std::memory_order_relaxed);
  s.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  s.force_waits = force_waits_.load(std::memory_order_relaxed);
  s.group_commit_records = group_commit_records_.load(std::memory_order_relaxed);
  s.group_commit_commits = group_commit_commits_.load(std::memory_order_relaxed);
  s.mean_commits_per_batch =
      s.forces == 0 ? 0.0 : static_cast<double>(s.group_commit_commits) /
                                static_cast<double>(s.forces);
  return s;
}

}  // namespace datalinks::sqldb

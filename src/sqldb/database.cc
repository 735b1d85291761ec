#include "sqldb/database.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "common/logging.h"
#include "common/trace.h"

namespace datalinks::sqldb {

namespace {

constexpr uint32_t kImageMagic = 0xD1F0CA7A;
// v2: the image is catalog-only — schemas, stats, index definitions and
// each heap's page list + rid high-water mark.  Row bytes live on data
// pages; recovery redoes pages from the log (ARIES pageLSN filtering)
// instead of reloading rows from the image.
constexpr uint32_t kImageVersion = 2;

void PutU32(std::string* out, uint32_t v) {
  for (int i = 3; i >= 0; --i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}
void PutU64(std::string* out, uint64_t v) {
  for (int i = 7; i >= 0; --i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}
void PutStr(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}
bool GetU32(std::string_view* in, uint32_t* v) {
  if (in->size() < 4) return false;
  uint32_t r = 0;
  for (int i = 0; i < 4; ++i) r = (r << 8) | static_cast<unsigned char>((*in)[i]);
  in->remove_prefix(4);
  *v = r;
  return true;
}
bool GetU64(std::string_view* in, uint64_t* v) {
  if (in->size() < 8) return false;
  uint64_t r = 0;
  for (int i = 0; i < 8; ++i) r = (r << 8) | static_cast<unsigned char>((*in)[i]);
  in->remove_prefix(8);
  *v = r;
  return true;
}
bool GetStr(std::string_view* in, std::string* s) {
  uint32_t n;
  if (!GetU32(in, &n) || in->size() < n) return false;
  s->assign(in->substr(0, n));
  in->remove_prefix(n);
  return true;
}

uint64_t ElapsedMicros(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now() - since)
                                   .count());
}

}  // namespace

std::string AccessPath::ToString() const {
  if (kind == Kind::kTableScan) {
    return "TableScan(cost=" + std::to_string(cost) + ")";
  }
  return "IndexScan(ix=" + std::to_string(index) + ", eq_prefix=" + std::to_string(eq_prefix_len) +
         ", est_rows=" + std::to_string(estimated_rows) + ", cost=" + std::to_string(cost) + ")";
}

Database::Database(DatabaseOptions options, std::shared_ptr<DurableStore> durable)
    : options_(std::move(options)), durable_(std::move(durable)) {
  clock_ = options_.clock ? options_.clock : SystemClock::Instance();
  fault_ = options_.fault;
  metrics_ = options_.metrics ? options_.metrics : std::make_shared<metrics::Registry>();
  latch_shared_wait_us_ = metrics_->GetHistogram("sqldb.latch.shared_wait_us");
  latch_exclusive_wait_us_ = metrics_->GetHistogram("sqldb.latch.exclusive_wait_us");
  if (!durable_) durable_ = std::make_shared<DurableStore>();
  options_.page_size_bytes = std::max<size_t>(options_.page_size_bytes, 1024);
  pager_ = std::make_unique<Pager>(durable_, options_.page_size_bytes, fault_.get(),
                                   clock_.get());
  pool_ = std::make_unique<BufferPool>(pager_.get(), options_.buffer_pool_pages,
                                       metrics_.get(), "sqldb.pool");
  wal_ = std::make_unique<WriteAheadLog>(durable_, options_.log_capacity_bytes, fault_.get(),
                                         clock_.get(), metrics_.get());
  // Writeback obeys the WAL-ahead rule from here on (recovery redo stamps
  // page LSNs, so even recovery-time eviction forces correctly).
  pool_->set_wal(wal_.get());
  lock_manager_ = std::make_unique<LockManager>(clock_, metrics_.get());
}

Database::~Database() = default;

Result<std::unique_ptr<Database>> Database::Open(DatabaseOptions options,
                                                 std::shared_ptr<DurableStore> durable) {
  std::unique_ptr<Database> db(new Database(std::move(options), std::move(durable)));
  {
    std::unique_lock<sim::SharedMutex> lk(db->catalog_mu_);
    DLX_RETURN_IF_ERROR(db->RecoverLocked());
  }
  return db;
}

// ---------------------------------------------------------------------------
// Latches
// ---------------------------------------------------------------------------

void Database::ExclusiveLatch::Release() {
  if (db_ != nullptr) {
    auto& holders = row_ ? db_->row_exclusive_holders_ : db_->exclusive_holders_;
    holders.fetch_sub(1, std::memory_order_relaxed);
    db_ = nullptr;
  }
  if (lk_.owns_lock()) lk_.unlock();
}

std::shared_lock<sim::SharedMutex> Database::LatchShared(const TableState& t) const {
  std::shared_lock<sim::SharedMutex> lk(t.latch, std::try_to_lock);
  if (!lk.owns_lock()) {
    const auto t0 = std::chrono::steady_clock::now();
    const int64_t s0 = trace::AmbientNowMicros();
    lk.lock();
    const uint64_t waited = ElapsedMicros(t0);
    latch_shared_waits_micros_.fetch_add(waited, std::memory_order_relaxed);
    latch_shared_wait_us_->Record(static_cast<int64_t>(waited));
    trace::Interval("sqldb.latch.wait", s0, trace::AmbientNowMicros());
  }
  latch_shared_acquires_.fetch_add(1, std::memory_order_relaxed);
  return lk;
}

Database::ExclusiveLatch Database::LatchExclusive(const TableState& t) const {
  ExclusiveLatch g;
  g.lk_ = std::unique_lock<sim::SharedMutex>(t.latch, std::try_to_lock);
  if (!g.lk_.owns_lock()) {
    const auto t0 = std::chrono::steady_clock::now();
    const int64_t s0 = trace::AmbientNowMicros();
    g.lk_.lock();
    const uint64_t waited = ElapsedMicros(t0);
    latch_exclusive_waits_micros_.fetch_add(waited, std::memory_order_relaxed);
    latch_exclusive_wait_us_->Record(static_cast<int64_t>(waited));
    trace::Interval("sqldb.latch.wait", s0, trace::AmbientNowMicros());
  }
  latch_exclusive_acquires_.fetch_add(1, std::memory_order_relaxed);
  g.db_ = this;
  const uint64_t cur = exclusive_holders_.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t seen = latch_max_concurrent_exclusive_.load(std::memory_order_relaxed);
  while (cur > seen &&
         !latch_max_concurrent_exclusive_.compare_exchange_weak(seen, cur,
                                                                std::memory_order_relaxed)) {
  }
  return g;
}

std::shared_lock<sim::SharedMutex> Database::RowLatchShared(const TableState& t,
                                                             RowId rid) const {
  std::shared_lock<sim::SharedMutex> lk(t.StripeFor(rid));
  row_latch_shared_acquires_.fetch_add(1, std::memory_order_relaxed);
  return lk;
}

Database::ExclusiveLatch Database::RowLatchExclusive(const TableState& t, RowId rid) const {
  ExclusiveLatch g;
  g.lk_ = std::unique_lock<sim::SharedMutex>(t.StripeFor(rid));
  row_latch_exclusive_acquires_.fetch_add(1, std::memory_order_relaxed);
  g.db_ = this;
  g.row_ = true;
  const uint64_t cur = row_exclusive_holders_.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t seen = latch_max_concurrent_row_exclusive_.load(std::memory_order_relaxed);
  while (cur > seen && !latch_max_concurrent_row_exclusive_.compare_exchange_weak(
                           seen, cur, std::memory_order_relaxed)) {
  }
  return g;
}

// ---------------------------------------------------------------------------
// Serialization / recovery
// ---------------------------------------------------------------------------

std::string Database::SerializeLocked() const {
  std::string out;
  PutU32(&out, kImageMagic);
  PutU32(&out, kImageVersion);
  PutU64(&out, next_table_id_);
  PutU64(&out, next_index_id_);
  PutU64(&out, next_txn_id_.load());
  PutU32(&out, static_cast<uint32_t>(tables_.size()));
  for (const auto& [tid, t] : tables_) {
    // Shared table latch: excludes RunStats/SetTableStats (exclusive
    // holders) while staying compatible with in-flight DML — the fuzzy
    // checkpoint serializes the catalog, not row contents.
    std::shared_lock<sim::SharedMutex> s(t->latch);
    PutU64(&out, tid);
    PutStr(&out, t->schema.name);
    PutU32(&out, static_cast<uint32_t>(t->schema.columns.size()));
    for (const ColumnDef& c : t->schema.columns) {
      PutStr(&out, c.name);
      out.push_back(static_cast<char>(c.type));
      out.push_back(c.nullable ? 1 : 0);
    }
    // Stats.
    PutU64(&out, static_cast<uint64_t>(t->stats.cardinality));
    PutU32(&out, static_cast<uint32_t>(t->stats.index_distinct.size()));
    for (const auto& [ix, d] : t->stats.index_distinct) {
      PutU64(&out, ix);
      PutU64(&out, static_cast<uint64_t>(d));
    }
    // Indexes.
    PutU32(&out, static_cast<uint32_t>(t->indexes.size()));
    for (const auto& ix : t->indexes) {
      PutU64(&out, ix->id);
      PutStr(&out, ix->def.name);
      out.push_back(ix->def.unique ? 1 : 0);
      PutU32(&out, static_cast<uint32_t>(ix->def.key_columns.size()));
      for (int c : ix->def.key_columns) PutU32(&out, static_cast<uint32_t>(c));
    }
    // Heap extent: rid high-water mark + page list.  A page enters the
    // list BEFORE the first WAL record targeting it is appended, so every
    // record at or below the anchor LSN names a page recorded here.
    const std::vector<PageId> pages = t->heap.PageList();
    PutU64(&out, t->heap.slot_count());
    PutU32(&out, static_cast<uint32_t>(pages.size()));
    for (PageId p : pages) PutU64(&out, p);
  }
  return out;
}

Status Database::DeserializeLocked(const std::string& image) {
  // Every enum and flag byte is validated before the cast: the image is
  // external input (a disk artifact), and a stray byte interpreted as a
  // ValueType would poison typed comparisons far from here.  Structural
  // corruption with a valid store CRC is a codec/logic fault, so it fails
  // the Open loudly instead of being silently treated as "no checkpoint".
  std::string_view in(image);
  uint32_t magic, version;
  if (!GetU32(&in, &magic) || magic != kImageMagic || !GetU32(&in, &version) ||
      version != kImageVersion) {
    return Status::Corruption("bad checkpoint image header");
  }
  uint64_t ntid, niid, ntxn;
  uint32_t ntables;
  if (!GetU64(&in, &ntid) || !GetU64(&in, &niid) || !GetU64(&in, &ntxn) ||
      !GetU32(&in, &ntables)) {
    return Status::Corruption("bad checkpoint image counters");
  }
  next_table_id_ = static_cast<TableId>(ntid);
  next_index_id_ = static_cast<IndexId>(niid);
  next_txn_id_.store(ntxn);
  tables_.clear();
  table_names_.clear();
  for (uint32_t i = 0; i < ntables; ++i) {
    auto t = std::make_shared<TableState>(pool_.get(), pager_.get());
    uint64_t tid;
    uint32_t ncols;
    if (!GetU64(&in, &tid) || !GetStr(&in, &t->schema.name) || !GetU32(&in, &ncols)) {
      return Status::Corruption("bad table header");
    }
    t->id = static_cast<TableId>(tid);
    t->heap.set_owner(tid);
    if (t->schema.name.empty() || ncols == 0) {
      return Status::Corruption("bad table header");
    }
    for (uint32_t c = 0; c < ncols; ++c) {
      ColumnDef col;
      if (!GetStr(&in, &col.name) || in.size() < 2) return Status::Corruption("bad column");
      const unsigned char type_byte = static_cast<unsigned char>(in[0]);
      const unsigned char null_byte = static_cast<unsigned char>(in[1]);
      if (type_byte > static_cast<unsigned char>(ValueType::kDouble)) {
        return Status::Corruption("bad column type byte " + std::to_string(type_byte));
      }
      if (null_byte > 1) {
        return Status::Corruption("bad column nullable byte " + std::to_string(null_byte));
      }
      col.type = static_cast<ValueType>(type_byte);
      col.nullable = null_byte != 0;
      in.remove_prefix(2);
      t->schema.columns.push_back(std::move(col));
    }
    uint64_t card;
    uint32_t ndist;
    if (!GetU64(&in, &card) || !GetU32(&in, &ndist)) return Status::Corruption("bad stats");
    t->stats.cardinality = static_cast<int64_t>(card);
    for (uint32_t d = 0; d < ndist; ++d) {
      uint64_t ix, dv;
      if (!GetU64(&in, &ix) || !GetU64(&in, &dv)) return Status::Corruption("bad stats entry");
      t->stats.index_distinct[static_cast<IndexId>(ix)] = static_cast<int64_t>(dv);
    }
    uint32_t nidx;
    if (!GetU32(&in, &nidx)) return Status::Corruption("bad index count");
    for (uint32_t x = 0; x < nidx; ++x) {
      auto ix = std::make_unique<IndexState>(pool_.get());
      uint64_t iid;
      uint32_t nkeys;
      if (!GetU64(&in, &iid) || !GetStr(&in, &ix->def.name) || in.empty()) {
        return Status::Corruption("bad index header");
      }
      const unsigned char unique_byte = static_cast<unsigned char>(in[0]);
      if (unique_byte > 1) {
        return Status::Corruption("bad index unique byte " + std::to_string(unique_byte));
      }
      ix->def.unique = unique_byte != 0;
      in.remove_prefix(1);
      if (!GetU32(&in, &nkeys)) return Status::Corruption("bad index keys");
      for (uint32_t k = 0; k < nkeys; ++k) {
        uint32_t c;
        if (!GetU32(&in, &c)) return Status::Corruption("bad index key col");
        if (c >= ncols) {
          return Status::Corruption("index key column " + std::to_string(c) +
                                    " out of range for " + std::to_string(ncols) + " columns");
        }
        ix->def.key_columns.push_back(static_cast<int>(c));
      }
      ix->id = static_cast<IndexId>(iid);
      ix->def.table = t->id;
      ix->tree.set_fault(fault_.get(), clock_.get());
      t->indexes.push_back(std::move(ix));
    }
    // Heap extent: rid high-water mark + page list.  Rows are NOT here —
    // the caller (recovery) redoes the pages, then RebuildFromPages scans
    // them to reconstruct the rid map.  Index trees are rebuilt from the
    // heap afterwards, also by the caller.
    uint64_t hwm;
    uint32_t npages;
    if (!GetU64(&in, &hwm) || !GetU32(&in, &npages)) {
      return Status::Corruption("bad heap header");
    }
    std::vector<PageId> pages;
    pages.reserve(npages);
    for (uint32_t p = 0; p < npages; ++p) {
      uint64_t pid;
      if (!GetU64(&in, &pid)) return Status::Corruption("bad heap page id");
      if (pid == kInvalidPageId || IsTempPage(pid)) {
        return Status::Corruption("bad heap page id " + std::to_string(pid));
      }
      pages.push_back(pid);
    }
    t->heap.SetPageList(std::move(pages), static_cast<RowId>(hwm));
    if (table_names_.count(t->schema.name) != 0 || tables_.count(t->id) != 0) {
      return Status::Corruption("duplicate table in checkpoint image");
    }
    table_names_[t->schema.name] = t->id;
    tables_[t->id] = std::move(t);
  }
  if (!in.empty()) return Status::Corruption("trailing bytes in checkpoint image");
  return Status::OK();
}

Status Database::RecoverLocked() {
  // A torn/corrupt checkpoint image fails its CRC inside the store, which
  // then falls back to the previous anchor — or reports no checkpoint at
  // all, in which case recovery redoes the full retained log (the log is
  // only ever truncated after an anchor lands safely).  An image whose CRC
  // verifies but whose bytes do not parse is a codec fault: fail the Open
  // loudly rather than silently dropping the catalog (and with it every
  // data page at the RebuildAllocation below).
  const DurableStore::CheckpointAnchor anchor = durable_->GetCheckpoint();
  if (anchor.valid && !anchor.image.empty()) {
    DLX_RETURN_IF_ERROR(DeserializeLocked(anchor.image));
  }
  // All retained records: the truncation point never advances past the
  // begin-LSN of an active transaction (nor past the anchor's redo floor),
  // so records of in-flight (loser) transactions are retained even when
  // they predate the checkpoint.
  const std::vector<LogRecord> records = durable_->ForcedSince(0);

  // Outcomes are tracked across ALL retained records.
  enum class Outcome : char { kActive, kCommitted, kAborted };
  std::unordered_map<TxnId, Outcome> outcome;
  TxnId max_txn = 0;
  for (const LogRecord& r : records) {
    max_txn = std::max(max_txn, r.txn);
    switch (r.type) {
      case LogRecordType::kBegin:
        outcome[r.txn] = Outcome::kActive;
        break;
      case LogRecordType::kCommit:
        outcome[r.txn] = Outcome::kCommitted;
        break;
      case LogRecordType::kAbort:
        outcome[r.txn] = Outcome::kAborted;
        break;
      default:
        // DML from before the first Begin record we can see (possible when
        // the Begin itself was truncated) still counts as active unless a
        // later Commit/Abort shows up.
        if (outcome.find(r.txn) == outcome.end()) outcome[r.txn] = Outcome::kActive;
        break;
    }
  }

  // Redo pass — physical, page-targeted: each DML record names the page
  // the row landed on, and the heap re-applies it only when that page's
  // on-disk LSN is older than the record (ARIES pageLSN filtering).  No
  // checkpoint-LSN cutoff: pages the fuzzy checkpointer flushed are
  // skipped by their own LSN, pages it missed are re-done from the redo
  // floor up.  Pages allocated after the image was cut are adopted into
  // the table's page list on first touch.
  for (const LogRecord& r : records) {
    if (r.page == kInvalidPageId) continue;
    TableState* t = FindTable(r.table);
    if (t == nullptr) continue;
    switch (r.type) {
      case LogRecordType::kInsert:
        t->heap.RedoInsert(r.rid, r.after, r.page, r.lsn);
        break;
      case LogRecordType::kDelete:
        t->heap.RedoRemove(r.rid, r.page, r.lsn);
        break;
      case LogRecordType::kUpdate:
        t->heap.RedoUpdate(r.rid, r.after, r.page, r.from_page, r.lsn);
        break;
      default:
        break;
    }
  }

  // Orphan adoption — the redo universe is the DURABLE STORE's page set,
  // not the checkpoint image's page lists.  A page flushed after the
  // covering checkpoint whose allocating records were then truncated out
  // of the log (truncation implies the flush: TruncationPoint never passes
  // an unflushed record) is listed by neither the image nor the log, yet
  // holds committed rows.  Its header names its owning table: re-attach it
  // before the rebuild below.  Pages owned by no surviving table (dropped
  // tables) are discarded from the pool; RebuildAllocation reclaims them.
  {
    std::set<PageId> listed;
    for (auto& [tid, t] : tables_) {
      for (PageId p : t->heap.PageList()) listed.insert(p);
    }
    for (PageId pid : durable_->DataPageIds()) {
      if (listed.count(pid) != 0) continue;
      auto ref = pool_->Pin(pid);
      bool adopted = false;
      {
        std::shared_lock<sim::SharedMutex> cl(ref.latch());
        const std::string& bytes = ref.bytes();
        if (bytes.size() >= kPageHeaderSize &&
            page::GetType(bytes) == kPageTypeHeap) {
          TableState* t = FindTable(static_cast<TableId>(page::GetOwner(bytes)));
          if (t != nullptr) {
            t->heap.AdoptOrphan(pid);
            adopted = true;
          }
        }
      }
      if (!adopted) pool_->Discard(pid);
    }
  }

  // Rebuild each heap's rid map / free list / live count from the redone
  // pages, then the index trees from the heaps (index nodes are volatile
  // temp pages — they carry no WAL traffic and are reconstructed here).
  for (auto& [tid, t] : tables_) {
    t->heap.RebuildFromPages();
    for (auto& ix : t->indexes) {
      t->heap.ForEach([&](RowId rid, const Row& row) {
        ix->tree.Insert(ExtractKey(*ix, row), rid);
        return true;
      });
    }
  }

  // Undo pass: roll back transactions with no COMMIT/ABORT record.
  // Logical (rid-level), state-checked, and COMPENSATION-LOGGED (ARIES
  // CLR-lite, exempt appends): each undo gets a fresh LSN stamped into the
  // page it touches, so page versions advance strictly past the images the
  // fuzzy checkpointer may already have flushed — an unstamped undo could
  // tie the on-disk version of the pre-undo page and resurrect the loser
  // row after the next crash.  A closing ABORT per loser resolves it for
  // any later recovery (its CLRs then replay by pageLSN like ordinary
  // records).
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    const LogRecord& r = *it;
    auto oit = outcome.find(r.txn);
    if (oit == outcome.end() || oit->second != Outcome::kActive) continue;
    TableState* t = FindTable(r.table);
    if (t == nullptr) continue;
    switch (r.type) {
      case LogRecordType::kInsert:
        if (t->heap.Valid(r.rid)) {
          const Row old = t->heap.Get(r.rid);
          Result<Row> removed = t->heap.Delete(
              r.rid,
              MakeDmlLog(r.txn, LogRecordType::kDelete, r.table, r.rid, old, {}, true));
          if (removed.ok()) {
            for (auto& ix : t->indexes) ix->tree.Erase(ExtractKey(*ix, *removed), r.rid);
          }
        }
        break;
      case LogRecordType::kDelete:
        if (!t->heap.Valid(r.rid)) {
          (void)t->heap.InsertAt(
              r.rid, r.before,
              MakeDmlLog(r.txn, LogRecordType::kInsert, r.table, r.rid, {}, r.before, true));
          for (auto& ix : t->indexes) ix->tree.Insert(ExtractKey(*ix, r.before), r.rid);
        }
        break;
      case LogRecordType::kUpdate:
        if (t->heap.Valid(r.rid)) {
          const Row cur = t->heap.Get(r.rid);
          for (auto& ix : t->indexes) ix->tree.Erase(ExtractKey(*ix, cur), r.rid);
          (void)t->heap.Update(
              r.rid, r.before,
              MakeDmlLog(r.txn, LogRecordType::kUpdate, r.table, r.rid, cur, r.before, true));
          for (auto& ix : t->indexes) ix->tree.Insert(ExtractKey(*ix, r.before), r.rid);
        }
        break;
      default:
        break;
    }
  }
  for (const auto& [txn_id, oc] : outcome) {
    if (oc == Outcome::kActive) {
      (void)wal_->Append(LogRecord{0, txn_id, LogRecordType::kAbort, 0, 0, {}, {}},
                         /*exempt=*/true);
    }
  }

  // Reconcile the pager's allocation map with the surviving catalog:
  // pages no table references (dropped tables, extents of transactions
  // whose pages never made an image) are dropped and the on-disk free
  // list rebuilt.
  std::vector<PageId> used;
  for (auto& [tid, t] : tables_) {
    for (PageId p : t->heap.PageList()) used.push_back(p);
  }
  pager_->RebuildAllocation(used);

  next_txn_id_.store(std::max(next_txn_id_.load(), max_txn + 1));

  // Compact so repeated crash/recover cycles start from a clean image.
  if (!records.empty() || anchor.valid) {
    DLX_RETURN_IF_ERROR(CheckpointLocked());
  }
  return Status::OK();
}

Status Database::CheckpointLocked() {
  // FUZZY checkpoint: no table latches — in-flight DML keeps running under
  // shared table latches while dirty pages stream out.  Soundness rests on
  // three orderings the storage layer guarantees:
  //  - a mutation enters the pool's dirty table BEFORE its WAL append
  //    (MarkDirtyProvisional), so MinDirtyRecLsn() below can only be too
  //    low (conservative), never too high — no record escapes the floor;
  //  - a page joins its table's page list before the first record naming
  //    it is appended, so the image's page lists cover every record at or
  //    below the anchor LSN;
  //  - redo is pageLSN-filtered, so records whose effects the flushed
  //    pages already carry are skipped and the rest replay exactly.
  DLX_RETURN_IF_ERROR(wal_->ForceAll());
  DLX_RETURN_IF_ERROR(pool_->FlushAll());
  // "sqldb.checkpoint.write" models failing to write the image itself: the
  // log is forced but the old anchor stays — recovery simply replays a
  // longer forced suffix, which must be equivalent.
  if (fault_ != nullptr) {
    if (auto f = fault_->Hit(failpoints::kSqldbCheckpointWrite, clock_.get())) return *f;
  }
  const Lsn lsn = wal_->last_lsn();
  // Redo floor: the oldest record a restart still needs.  Pages dirtied
  // during/after FlushAll keep their rec_lsn; with nothing dirty the floor
  // is lsn + 1 (the whole prefix is reflected on disk).
  Lsn floor = pool_->MinDirtyRecLsn();
  if (floor == kInvalidLsn || floor > lsn + 1) floor = lsn + 1;
  durable_->SetCheckpoint(SerializeLocked(), lsn, floor);
  wal_->OnCheckpoint(lsn, floor);
  return Status::OK();
}

Status Database::Checkpoint() {
  std::unique_lock<sim::SharedMutex> lk(catalog_mu_);
  return CheckpointLocked();
}

void Database::MaybeAutoCheckpoint() {
  const size_t threshold = options_.checkpoint_threshold_bytes != 0
                               ? options_.checkpoint_threshold_bytes
                               : options_.log_capacity_bytes / 2;
  if (wal_->BytesInUse() <= threshold) return;
  // Only checkpoint when it can actually reclaim space: log pinned by an
  // old active transaction stays pinned regardless (that is the log-full
  // failure mode the paper's batched commits avoid).
  const size_t pinned = wal_->BytesPinnedByActiveTxns();
  if (wal_->BytesInUse() - pinned < threshold / 2) return;
  // "sqldb.checkpoint.auto" models the background checkpointer dying before
  // it runs: the checkpoint is skipped and the log keeps growing.
  if (fault_ != nullptr) {
    if (fault_->Hit(failpoints::kSqldbCheckpointAuto, clock_.get())) return;
  }
  std::unique_lock<sim::SharedMutex> lk(catalog_mu_);
  (void)CheckpointLocked();
}

std::shared_ptr<DurableStore> Database::SimulateCrash() {
  crashed_.store(true);
  return durable_;
}

Status Database::CheckIntegrity() const {
  std::shared_lock<sim::SharedMutex> lk(catalog_mu_);
  for (const auto& [tid, t] : tables_) {
    // Exclusive: quiesces shared-latch DML so heap and trees are mutually
    // consistent for the audit (the doc contract says quiesced callers
    // only, but the stronger mode makes a stray concurrent writer a
    // harmless wait instead of a false corruption report).
    std::unique_lock<sim::SharedMutex> latch(t->latch);
    const size_t live = t->heap.live_count();
    for (const auto& ix : t->indexes) {
      ix->tree.CheckInvariants();
      std::vector<BTreeEntry> entries;
      ix->tree.ScanRange(nullptr, false, nullptr, false, &entries);
      if (entries.size() != live) {
        return Status::Corruption("index " + ix->def.name + " has " +
                                  std::to_string(entries.size()) + " entries for " +
                                  std::to_string(live) + " live rows in table " +
                                  t->schema.name);
      }
      std::unordered_set<RowId> seen;
      for (const BTreeEntry& e : entries) {
        if (!t->heap.Valid(e.rid)) {
          return Status::Corruption("index " + ix->def.name + " entry points at dead row " +
                                    std::to_string(e.rid) + " in table " + t->schema.name);
        }
        if (!seen.insert(e.rid).second) {
          return Status::Corruption("index " + ix->def.name + " references row " +
                                    std::to_string(e.rid) + " twice in table " +
                                    t->schema.name);
        }
        const Key k = ExtractKey(*ix, t->heap.Get(e.rid));
        if (CompareKeys(k, e.key) != 0) {
          return Status::Corruption("index " + ix->def.name + " key out of sync with row " +
                                    std::to_string(e.rid) + " in table " + t->schema.name);
        }
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

Result<TableId> Database::CreateTable(TableSchema schema) {
  if (schema.name.empty() || schema.columns.empty()) {
    return Status::InvalidArgument("table needs a name and at least one column");
  }
  std::unique_lock<sim::SharedMutex> lk(catalog_mu_);
  if (table_names_.count(schema.name) != 0) {
    return Status::AlreadyExists("table " + schema.name);
  }
  auto t = std::make_shared<TableState>(pool_.get(), pager_.get());
  t->id = next_table_id_++;
  t->heap.set_owner(t->id);
  t->schema = std::move(schema);
  const TableId id = t->id;
  table_names_[t->schema.name] = id;
  tables_[id] = std::move(t);
  DLX_RETURN_IF_ERROR(CheckpointLocked());
  return id;
}

Result<IndexId> Database::CreateIndex(IndexDef def) {
  std::unique_lock<sim::SharedMutex> lk(catalog_mu_);
  TableState* t = FindTable(def.table);
  if (t == nullptr) return Status::NotFound("table " + std::to_string(def.table));
  for (int c : def.key_columns) {
    if (c < 0 || static_cast<size_t>(c) >= t->schema.columns.size()) {
      return Status::InvalidArgument("index key column out of range");
    }
  }
  for (const auto& ix : t->indexes) {
    if (ix->def.name == def.name) return Status::AlreadyExists("index " + def.name);
  }
  auto ix = std::make_unique<IndexState>(pool_.get());
  ix->id = next_index_id_++;
  ix->def = std::move(def);
  ix->tree.set_fault(fault_.get(), clock_.get());
  IndexId id;
  {
    // Drain in-flight statements on this table before mutating its index
    // list (DML holds the table latch, not the catalog latch).
    ExclusiveLatch x = LatchExclusive(*t);
    // Populate, checking uniqueness and the bounded-key admission rule
    // (an encoded key must fit the tree's per-node budget, DB2-style)
    // against existing data.
    Status st;
    t->heap.ForEach([&](RowId rid, const Row& row) {
      Key k = ExtractKey(*ix, row);
      if (EncodeOrderedKey(k).size() > ix->tree.max_key_bytes()) {
        st = Status::InvalidArgument("existing row key too long for index " + ix->def.name);
        return false;
      }
      if (ix->def.unique && ix->tree.ContainsKey(k)) {
        st = Status::Conflict("duplicate key building unique index " + ix->def.name);
        return false;
      }
      ix->tree.Insert(std::move(k), rid);
      return true;
    });
    DLX_RETURN_IF_ERROR(st);
    id = ix->id;
    t->indexes.push_back(std::move(ix));
  }
  DLX_RETURN_IF_ERROR(CheckpointLocked());
  return id;
}

Status Database::DropTable(TableId table) {
  std::unique_lock<sim::SharedMutex> lk(catalog_mu_);
  TableState* t = FindTable(table);
  if (t == nullptr) return Status::NotFound("table " + std::to_string(table));
  table_names_.erase(t->schema.name);
  // Statements that already pinned the TableState keep a detached shared_ptr
  // and finish against it; the table is simply no longer reachable.
  tables_.erase(table);
  return CheckpointLocked();
}

Result<TableId> Database::TableByName(std::string_view name) const {
  std::shared_lock<sim::SharedMutex> lk(catalog_mu_);
  auto it = table_names_.find(std::string(name));
  if (it == table_names_.end()) return Status::NotFound("table " + std::string(name));
  return it->second;
}

std::vector<std::string> Database::TableNames() const {
  std::shared_lock<sim::SharedMutex> lk(catalog_mu_);
  std::vector<std::string> names;
  names.reserve(table_names_.size());
  for (const auto& [name, id] : table_names_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

Result<TableSchema> Database::GetSchema(TableId table) const {
  TablePtr t = GetTable(table);
  if (t == nullptr) return Status::NotFound("table " + std::to_string(table));
  auto s = LatchShared(*t);
  return t->schema;
}

std::vector<IndexDef> Database::GetIndexes(TableId table) const {
  std::vector<IndexDef> out;
  TablePtr t = GetTable(table);
  if (t != nullptr) {
    auto s = LatchShared(*t);
    for (const auto& ix : t->indexes) out.push_back(ix->def);
  }
  return out;
}

Result<IndexId> Database::IndexByName(TableId table, std::string_view name) const {
  TablePtr t = GetTable(table);
  if (t == nullptr) return Status::NotFound("table " + std::to_string(table));
  auto s = LatchShared(*t);
  for (const auto& ix : t->indexes) {
    if (ix->def.name == name) return ix->id;
  }
  return Status::NotFound("index " + std::string(name));
}

Database::TableState* Database::FindTable(TableId id) const {
  auto it = tables_.find(id);
  return it == tables_.end() ? nullptr : it->second.get();
}

Database::TablePtr Database::GetTable(TableId id) const {
  std::shared_lock<sim::SharedMutex> lk(catalog_mu_);
  auto it = tables_.find(id);
  return it == tables_.end() ? nullptr : it->second;
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

Transaction* Database::Begin() { return Begin(options_.default_isolation); }

Transaction* Database::Begin(Isolation isolation) {
  auto txn = std::make_unique<Transaction>();
  txn->id_ = next_txn_id_.fetch_add(1);
  txn->isolation_ = isolation;
  Transaction* raw = txn.get();
  (void)wal_->Append(LogRecord{0, raw->id_, LogRecordType::kBegin, 0, 0, {}, {}},
                     /*exempt=*/true);
  {
    std::lock_guard<std::mutex> lk(txn_mu_);
    txns_[raw->id_] = std::move(txn);
  }
  begins_.fetch_add(1, std::memory_order_relaxed);
  return raw;
}

Status Database::Commit(Transaction* txn) {
  DLX_ASSIGN_OR_RETURN(const Lsn commit_lsn, PrepareCommit(txn));
  // Group commit: coalesce with concurrent committers behind one leader.
  return FinishCommit(txn, wal_->ForceTo(commit_lsn));
}

Result<Lsn> Database::PrepareCommit(Transaction* txn) {
  if (crashed_.load()) return Status::Unavailable("database crashed");
  if (txn->finished_) return Status::InvalidArgument("transaction already finished");
  Lsn commit_lsn = kInvalidLsn;
  (void)wal_->Append(LogRecord{0, txn->id_, LogRecordType::kCommit, 0, 0, {}, {}},
                     /*exempt=*/true, &commit_lsn);
  return commit_lsn;
}

Status Database::ForceWalTo(Lsn lsn) { return wal_->ForceTo(lsn); }

Status Database::FinishCommit(Transaction* txn, Status forced) {
  if (!forced.ok()) {
    // The commit record never became durable: the transaction must not be
    // reported committed.  Roll it back in memory (compensations + an ABORT
    // record, all exempt) so the in-memory state matches what recovery
    // reconstructs — the outcome map takes a transaction's LAST record, so
    // whether or not a later force lands, this transaction resolves aborted.
    // The handle stays alive (no FinishTxn): callers that Rollback() on the
    // error path get a harmless no-op abort instead of a use-after-free.
    (void)RollbackInternal(txn);
    wal_->OnEnd(txn->id_);
    lock_manager_->ReleaseAll(txn->id_);
    rollbacks_.fetch_add(1, std::memory_order_relaxed);
    return forced;
  }
  // Recycle the slots freed by this transaction's deletes.  Row locks are
  // still held, so nobody can have re-referenced them yet.
  TablePtr t;
  ExclusiveLatch x;
  for (const auto& [table, rid] : txn->pending_free_) {
    if (t == nullptr || t->id != table) {
      x.Release();
      t = GetTable(table);
      if (t == nullptr) continue;
      x = LatchExclusive(*t);
    }
    t->heap.FreeSlot(rid);
  }
  x.Release();
  wal_->OnEnd(txn->id_);
  lock_manager_->ReleaseAll(txn->id_);
  FinishTxn(txn);
  commits_.fetch_add(1, std::memory_order_relaxed);
  MaybeAutoCheckpoint();
  return Status::OK();
}

Status Database::Rollback(Transaction* txn) {
  if (crashed_.load()) return Status::Unavailable("database crashed");
  if (txn->finished_) return Status::InvalidArgument("transaction already finished");
  DLX_RETURN_IF_ERROR(RollbackInternal(txn));
  wal_->OnEnd(txn->id_);
  lock_manager_->ReleaseAll(txn->id_);
  FinishTxn(txn);
  rollbacks_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Database::RollbackInternal(Transaction* txn) {
  // Reverse-apply the undo chain, logging compensations as ordinary records
  // so redo replays them (ARIES CLR-lite).  Each step latches only the
  // table it touches.
  TablePtr t;
  ExclusiveLatch x;
  for (auto it = txn->undo_.rbegin(); it != txn->undo_.rend(); ++it) {
    if (t == nullptr || t->id != it->table) {
      x.Release();
      t = GetTable(it->table);
      if (t == nullptr) continue;
      x = LatchExclusive(*t);
    }
    switch (it->type) {
      case LogRecordType::kInsert: {
        if (!t->heap.Valid(it->rid)) break;
        const Row old = t->heap.Get(it->rid);
        Result<Row> removed = t->heap.Delete(
            it->rid,
            MakeDmlLog(txn->id_, LogRecordType::kDelete, it->table, it->rid, old, {}, true));
        if (!removed.ok()) break;
        for (auto& ix : t->indexes) ix->tree.Erase(ExtractKey(*ix, *removed), it->rid);
        t->heap.FreeSlot(it->rid);
        break;
      }
      case LogRecordType::kDelete: {
        if (t->heap.Valid(it->rid)) break;
        (void)t->heap.InsertAt(
            it->rid, it->before,
            MakeDmlLog(txn->id_, LogRecordType::kInsert, it->table, it->rid, {}, it->before,
                       true));
        for (auto& ix : t->indexes) ix->tree.Insert(ExtractKey(*ix, it->before), it->rid);
        break;
      }
      case LogRecordType::kUpdate: {
        if (!t->heap.Valid(it->rid)) break;
        const Row cur = t->heap.Get(it->rid);
        for (auto& ix : t->indexes) ix->tree.Erase(ExtractKey(*ix, cur), it->rid);
        (void)t->heap.Update(
            it->rid, it->before,
            MakeDmlLog(txn->id_, LogRecordType::kUpdate, it->table, it->rid, cur, it->before,
                       true));
        for (auto& ix : t->indexes) ix->tree.Insert(ExtractKey(*ix, it->before), it->rid);
        break;
      }
      default:
        break;
    }
  }
  x.Release();
  txn->undo_.clear();
  (void)wal_->Append(LogRecord{0, txn->id_, LogRecordType::kAbort, 0, 0, {}, {}},
                     /*exempt=*/true);
  return Status::OK();
}

HeapTable::LogFn Database::MakeDmlLog(TxnId txn, LogRecordType type, TableId table, RowId rid,
                                      Row before, Row after, bool exempt) {
  return [this, txn, type, table, rid, before = std::move(before), after = std::move(after),
          exempt](PageId page, PageId from_page) -> Result<Lsn> {
    LogRecord rec{0, txn, type, table, rid, before, after};
    rec.page = page;
    rec.from_page = from_page;
    Lsn lsn = kInvalidLsn;
    DLX_RETURN_IF_ERROR(wal_->Append(std::move(rec), exempt, &lsn));
    return lsn;
  };
}

void Database::FinishTxn(Transaction* txn) {
  txn->finished_ = true;
  std::lock_guard<std::mutex> lk(txn_mu_);
  txns_.erase(txn->id_);  // destroys *txn
}

int64_t Database::LockTimeout(const Transaction* txn) const {
  return txn->lock_timeout_override_.value_or(options_.lock_timeout_micros);
}

// ---------------------------------------------------------------------------
// Statistics / misc
// ---------------------------------------------------------------------------

void Database::SetTableStats(TableId table, TableStats stats) {
  TablePtr t = GetTable(table);
  if (t == nullptr) return;
  ExclusiveLatch x = LatchExclusive(*t);
  t->stats = std::move(stats);
}

Result<TableStats> Database::GetTableStats(TableId table) const {
  TablePtr t = GetTable(table);
  if (t == nullptr) return Status::NotFound("table " + std::to_string(table));
  auto s = LatchShared(*t);
  return t->stats;
}

Status Database::RunStats(TableId table) {
  TablePtr t = GetTable(table);
  if (t == nullptr) return Status::NotFound("table " + std::to_string(table));
  ExclusiveLatch x = LatchExclusive(*t);
  t->stats.cardinality = static_cast<int64_t>(t->heap.live_count());
  t->stats.index_distinct.clear();
  for (const auto& ix : t->indexes) {
    t->stats.index_distinct[ix->id] = ix->tree.CountDistinctKeys();
  }
  return Status::OK();
}

Result<size_t> Database::LiveRowCount(TableId table) const {
  TablePtr t = GetTable(table);
  if (t == nullptr) return Status::NotFound("table " + std::to_string(table));
  auto s = LatchShared(*t);
  return t->heap.live_count();
}

DatabaseStats Database::stats() const {
  DatabaseStats s;
  s.begins = begins_.load(std::memory_order_relaxed);
  s.commits = commits_.load(std::memory_order_relaxed);
  s.rollbacks = rollbacks_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.updates = updates_.load(std::memory_order_relaxed);
  s.deletes = deletes_.load(std::memory_order_relaxed);
  s.selects = selects_.load(std::memory_order_relaxed);
  s.unique_conflicts = unique_conflicts_.load(std::memory_order_relaxed);
  s.table_scans = table_scans_.load(std::memory_order_relaxed);
  s.index_scans = index_scans_.load(std::memory_order_relaxed);
  s.rows_scanned = rows_scanned_.load(std::memory_order_relaxed);
  s.plan_cache_hits = plan_cache_hits_.load(std::memory_order_relaxed);
  s.plan_binds = plan_binds_.load(std::memory_order_relaxed);
  s.latch_shared_acquires = latch_shared_acquires_.load(std::memory_order_relaxed);
  s.latch_exclusive_acquires = latch_exclusive_acquires_.load(std::memory_order_relaxed);
  s.latch_shared_waits_micros = latch_shared_waits_micros_.load(std::memory_order_relaxed);
  s.latch_exclusive_waits_micros =
      latch_exclusive_waits_micros_.load(std::memory_order_relaxed);
  s.latch_max_concurrent_exclusive =
      latch_max_concurrent_exclusive_.load(std::memory_order_relaxed);
  s.latch_row_shared_acquires = row_latch_shared_acquires_.load(std::memory_order_relaxed);
  s.latch_row_exclusive_acquires =
      row_latch_exclusive_acquires_.load(std::memory_order_relaxed);
  s.latch_max_concurrent_row_exclusive =
      latch_max_concurrent_row_exclusive_.load(std::memory_order_relaxed);
  return s;
}

Key Database::ExtractKey(const IndexState& ix, const Row& row) const {
  Key k;
  k.reserve(ix.def.key_columns.size());
  for (int c : ix.def.key_columns) k.push_back(row[c]);
  return k;
}

}  // namespace datalinks::sqldb

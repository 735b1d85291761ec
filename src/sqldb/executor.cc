// DML execution: access-path selection, candidate collection, and the
// locking protocol (granular locks, escalation, next-key locking).
//
// Latch protocol (see database.h): every critical section below holds the
// touched table's latch SHARED (it only guards table structure — schema,
// index list, existence); row content is protected by the striped row
// latches and index trees by their per-index tree latch.  Writers on
// disjoint rows of the same table therefore proceed concurrently; only
// DDL / checkpoint / recovery take the table latch exclusively.  All
// latches are released before any lock-manager wait.  Statements pin the
// TableState via GetTable() so a concurrent DropTable cannot free it
// mid-statement.
#include <cmath>

#include "sqldb/database.h"

namespace datalinks::sqldb {

namespace {
// Optimizer cost constants.  Deliberately simple: the point the paper makes
// is *which* plan wins under which statistics, not absolute costs.  With
// default statistics (cardinality 0, e.g. freshly created tables) the table
// scan costs less than an index probe, so the optimizer picks the scan —
// the trap §3.2.1 describes.
constexpr double kIndexProbeCost = 2.0;
constexpr double kIndexRowCost = 1.0;
constexpr double kScanBaseCost = 1.0;
constexpr double kScanRowCost = 0.25;
constexpr double kDefaultDistinctPerCol = 10.0;
}  // namespace

// ---------------------------------------------------------------------------
// Optimizer
// ---------------------------------------------------------------------------

AccessPath Database::ChooseAccessPath(TableId table, const Conjunction& where) const {
  plan_binds_.fetch_add(1, std::memory_order_relaxed);
  AccessPath best;
  TablePtr t = GetTable(table);
  if (t == nullptr) return best;
  auto latch = LatchShared(*t);
  const double card = static_cast<double>(t->stats.cardinality);
  best.kind = AccessPath::Kind::kTableScan;
  best.estimated_rows = card;
  best.cost = kScanBaseCost + card * kScanRowCost;

  for (const auto& ix : t->indexes) {
    int eq_prefix = 0;
    for (int col : ix->def.key_columns) {
      const std::string& col_name = t->schema.columns[col].name;
      bool found = false;
      for (const Pred& p : where) {
        if (p.op == PredOp::kEq && p.column == col_name) {
          found = true;
          break;
        }
      }
      if (!found) break;
      ++eq_prefix;
    }
    if (eq_prefix == 0) continue;
    const double ncols = static_cast<double>(ix->def.key_columns.size());
    auto dit = t->stats.index_distinct.find(ix->id);
    const double distinct = dit != t->stats.index_distinct.end() && dit->second > 0
                                ? static_cast<double>(dit->second)
                                : 0.0;
    const double sel_per_col =
        distinct > 0 ? std::pow(distinct, 1.0 / ncols) : kDefaultDistinctPerCol;
    double est = card;
    for (int i = 0; i < eq_prefix; ++i) est /= sel_per_col;
    if (ix->def.unique && eq_prefix == static_cast<int>(ix->def.key_columns.size())) {
      est = std::min(est, 1.0);
    }
    if (card > 0) est = std::max(est, 1.0);
    const double cost = kIndexProbeCost + est * kIndexRowCost;
    if (cost < best.cost) {
      best.kind = AccessPath::Kind::kIndexScan;
      best.index = ix->id;
      best.eq_prefix_len = eq_prefix;
      best.estimated_rows = est;
      best.cost = cost;
    }
  }
  return best;
}

Result<BoundStatement> Database::Bind(BoundStatement::Kind kind, TableId table,
                                      Conjunction where, std::vector<Assignment> sets) const {
  BoundStatement stmt;
  stmt.kind = kind;
  stmt.table = table;
  {
    TablePtr t = GetTable(table);
    if (t == nullptr) return Status::NotFound("table " + std::to_string(table));
    auto latch = LatchShared(*t);
    for (const Pred& p : where) {
      const int c = t->schema.ColumnIndex(p.column);
      if (c < 0) return Status::InvalidArgument("unknown column " + p.column);
      stmt.where_cols.push_back(c);
    }
    for (const Assignment& a : sets) {
      const int c = t->schema.ColumnIndex(a.column);
      if (c < 0) return Status::InvalidArgument("unknown column " + a.column);
      stmt.set_cols.push_back(c);
    }
  }
  stmt.where = std::move(where);
  stmt.sets = std::move(sets);
  stmt.path = ChooseAccessPath(table, stmt.where);
  return stmt;
}

// ---------------------------------------------------------------------------
// Predicates
// ---------------------------------------------------------------------------

bool Database::EvalPred(const Value& lhs, PredOp op, const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) {
    // SQL three-valued logic collapsed: NULL = NULL is true (the DLFM
    // repository uses NULL as "not yet set" and matches on it), every other
    // comparison involving NULL is false.
    if (op == PredOp::kEq) return lhs.is_null() && rhs.is_null();
    if (op == PredOp::kNe) return lhs.is_null() != rhs.is_null();
    return false;
  }
  const int c = lhs.Compare(rhs);
  switch (op) {
    case PredOp::kEq: return c == 0;
    case PredOp::kNe: return c != 0;
    case PredOp::kLt: return c < 0;
    case PredOp::kLe: return c <= 0;
    case PredOp::kGt: return c > 0;
    case PredOp::kGe: return c >= 0;
  }
  return false;
}

bool Database::RowMatches(const BoundStatement& stmt, const std::vector<Value>& params,
                          const Row& row) const {
  for (size_t i = 0; i < stmt.where.size(); ++i) {
    const Pred& p = stmt.where[i];
    if (!EvalPred(row[stmt.where_cols[i]], p.op, p.operand.Resolve(params))) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Lock helpers
// ---------------------------------------------------------------------------

LockId Database::KeyLockId(const TableState& t, const IndexState& ix, const Key& key) const {
  std::string encoded;
  EncodeRowTo(key, &encoded);
  return LockId::KeyLock(t.id, ix.id, std::move(encoded));
}

LockId Database::NextKeyLockId(const TableState& t, const IndexState& ix,
                               const Key& key) const {
  // Callers hold the table latch shared; the tree read needs its own latch
  // against concurrent tree-exclusive writers.
  std::shared_lock<sim::SharedMutex> tl(ix.tree_latch);
  auto succ = ix.tree.Successor(key, kInvalidRowId);
  if (!succ.has_value()) return LockId::EndOfIndex(t.id, ix.id);
  return KeyLockId(t, ix, succ->key);
}

Status Database::MaybeEscalate(Transaction* txn, TableState* t, bool for_write) {
  // Escalating to a table lock can itself block behind other transactions'
  // intent locks — that wait (and the timeouts it spreads) is the
  // "brings the system to its knees" behaviour of §4.
  const LockMode table_mode = for_write ? LockMode::kX : LockMode::kS;
  Status st = lock_manager_->Acquire(txn->id_, LockId::Table(t->id), table_mode,
                                     LockTimeout(txn));
  if (!st.ok()) {
    if (lock_manager_->TotalHeldLocks() >= options_.lock_list_capacity) {
      return Status::LockListFull("lock list full and escalation failed: " + st.ToString());
    }
    return st;
  }
  lock_manager_->ReleaseRowAndKeyLocks(txn->id_, t->id);
  txn->escalated_tables_.insert(t->id);
  lock_manager_->BumpEscalations();
  return Status::OK();
}

Status Database::AcquireGranular(Transaction* txn, TableState* t, const LockId& id,
                                 LockMode mode) {
  if (txn->escalated_tables_.count(t->id) != 0) return Status::OK();
  const size_t held_here = lock_manager_->CountRowAndKeyLocks(txn->id_, t->id);
  if (held_here + 1 > options_.lock_escalation_threshold ||
      lock_manager_->TotalHeldLocks() + 1 > options_.lock_list_capacity) {
    const LockMode table_held = lock_manager_->HeldMode(txn->id_, LockId::Table(t->id));
    const bool for_write = mode == LockMode::kX || table_held == LockMode::kIX ||
                           table_held == LockMode::kSIX || table_held == LockMode::kX;
    DLX_RETURN_IF_ERROR(MaybeEscalate(txn, t, for_write));
    return Status::OK();
  }
  return lock_manager_->Acquire(txn->id_, id, mode, LockTimeout(txn));
}

// ---------------------------------------------------------------------------
// Candidate collection
// ---------------------------------------------------------------------------

Result<std::vector<Database::Candidate>> Database::CollectCandidates(
    Transaction* txn, TableState* t, const BoundStatement& stmt,
    const std::vector<Value>& params) {
  (void)txn;
  // Every execution that reaches here runs the plan frozen at Bind time —
  // the optimizer is NOT re-invoked per call (static SQL).
  plan_cache_hits_.fetch_add(1, std::memory_order_relaxed);
  std::vector<Candidate> out;
  auto latch = LatchShared(*t);

  if (stmt.path.kind == AccessPath::Kind::kIndexScan) {
    index_scans_.fetch_add(1, std::memory_order_relaxed);
    IndexState* ix = nullptr;
    for (auto& i : t->indexes) {
      if (i->id == stmt.path.index) {
        ix = i.get();
        break;
      }
    }
    if (ix == nullptr) return Status::Corruption("bound index vanished; rebind required");
    // Build the equality prefix in index column order.
    Key prefix;
    for (int k = 0; k < stmt.path.eq_prefix_len; ++k) {
      const std::string& col_name = t->schema.columns[ix->def.key_columns[k]].name;
      bool found = false;
      for (const Pred& p : stmt.where) {
        if (p.op == PredOp::kEq && p.column == col_name) {
          prefix.push_back(p.operand.Resolve(params));
          found = true;
          break;
        }
      }
      if (!found) return Status::Corruption("bound plan predicate shape mismatch");
    }
    std::vector<BTreeEntry> entries;
    {
      std::shared_lock<sim::SharedMutex> tl(ix->tree_latch);
      ix->tree.ScanPrefix(prefix, &entries);
    }
    for (const BTreeEntry& e : entries) {
      auto rl = RowLatchShared(*t, e.rid);
      Row r;
      if (t->heap.GetIf(e.rid, &r)) {
        rows_scanned_.fetch_add(1, std::memory_order_relaxed);
        out.push_back(Candidate{e.rid, std::move(r)});
      }
    }
  } else {
    // Table scan touches (and will lock) every live row — the concurrency
    // havoc of a mis-chosen plan comes from exactly this.  The scan walks
    // rids and takes each rid's row latch: rids are stable logical handles
    // (the heap's rid map survives page relocation), so concurrent inserts
    // growing the table are harmless — rows installed after slot_count()
    // was read are simply not part of this scan.
    table_scans_.fetch_add(1, std::memory_order_relaxed);
    const RowId n = t->heap.slot_count();
    for (RowId rid = 0; rid < n; ++rid) {
      auto rl = RowLatchShared(*t, rid);
      Row r;
      if (t->heap.GetIf(rid, &r)) {
        rows_scanned_.fetch_add(1, std::memory_order_relaxed);
        out.push_back(Candidate{rid, std::move(r)});
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// INSERT
// ---------------------------------------------------------------------------

Status Database::Insert(Transaction* txn, TableId table, Row row) {
  if (crashed_.load()) return Status::Unavailable("database crashed");
  inserts_.fetch_add(1, std::memory_order_relaxed);

  TablePtr t = GetTable(table);
  if (t == nullptr) return Status::NotFound("table " + std::to_string(table));

  // Validate against the schema and compute index keys under the shared
  // latch (IndexState pointers stay valid: CreateIndex only appends while
  // holding this latch exclusively, and the TableState itself is pinned).
  std::vector<std::pair<IndexState*, Key>> keys;  // all indexes
  std::vector<LockId> unique_key_locks;
  {
    auto latch = LatchShared(*t);
    if (row.size() != t->schema.columns.size()) {
      return Status::InvalidArgument("row arity mismatch for " + t->schema.name);
    }
    for (size_t i = 0; i < row.size(); ++i) {
      const ColumnDef& c = t->schema.columns[i];
      if (row[i].is_null()) {
        if (!c.nullable) return Status::InvalidArgument("null in non-nullable " + c.name);
      } else if (row[i].type() != c.type) {
        return Status::InvalidArgument("type mismatch in column " + c.name);
      }
    }
    // Paged-storage admission checks (DB2-style): the encoded row must fit
    // one heap page, every encoded index key the tree's per-node budget.
    DLX_RETURN_IF_ERROR(t->heap.CheckRowFits(row));
    for (auto& ix : t->indexes) {
      keys.emplace_back(ix.get(), ExtractKey(*ix, row));
      if (EncodeOrderedKey(keys.back().second).size() > ix->tree.max_key_bytes()) {
        return Status::InvalidArgument("key too long for index " + ix->def.name);
      }
      if (ix->def.unique) unique_key_locks.push_back(KeyLockId(*t, *ix, keys.back().second));
    }
  }

  // Table intent lock (no latch held — lock waits happen latch-free).
  if (txn->escalated_tables_.count(table) == 0) {
    DLX_RETURN_IF_ERROR(
        lock_manager_->Acquire(txn->id_, LockId::Table(table), LockMode::kIX, LockTimeout(txn)));
  }

  // Key-value locks on unique keys: serializes concurrent inserters of the
  // same key (the engine-level analogue of the DLFM's check-flag trick).
  for (const LockId& id : unique_key_locks) {
    DLX_RETURN_IF_ERROR(AcquireGranular(txn, t.get(), id, LockMode::kX));
  }

  // Next-key locks (ARIES/KVL) on every index, when enabled.
  if (options_.next_key_locking) {
    std::vector<LockId> next_locks;
    {
      auto latch = LatchShared(*t);
      for (auto& [ix, key] : keys) next_locks.push_back(NextKeyLockId(*t, *ix, key));
    }
    for (const LockId& id : next_locks) {
      DLX_RETURN_IF_ERROR(AcquireGranular(txn, t.get(), id, LockMode::kX));
    }
  }

  const bool escalated = txn->escalated_tables_.count(table) != 0;

  // Reserve the slot and lock its rid BEFORE the row becomes reachable
  // (InstallAt / tree publication below).  The slot is invisible to scans
  // until installed, so the immediate-grant acquire succeeds except for the
  // rare recycled-slot race where the deleting transaction has freed the
  // slot at commit but not yet released its row lock — same (ignored)
  // window as before this path went latch-shared.  Taking the lock first
  // is what keeps readers from S-locking the rid between index publication
  // and our X grab and reading the uncommitted row.
  const RowId rid = t->heap.AllocSlot();
  if (!escalated) {
    (void)lock_manager_->Acquire(txn->id_, LockId::Row(table, rid), LockMode::kX, 0);
  }

  auto latch = LatchShared(*t);
  // Re-check uniqueness now that we hold the key locks (same-key inserters
  // are serialized by those locks; tree-shared suffices for the read).
  for (auto& [ix, key] : keys) {
    if (!ix->def.unique) continue;
    std::shared_lock<sim::SharedMutex> tl(ix->tree_latch);
    if (ix->tree.ContainsKey(key)) {
      unique_conflicts_.fetch_add(1, std::memory_order_relaxed);
      t->heap.FreeSlot(rid);
      return Status::Conflict("duplicate key in unique index " + ix->def.name + ": " +
                              KeyToString(key));
    }
  }
  Status st;
  {
    auto rl = RowLatchExclusive(*t, rid);
    // The heap appends the WAL record from inside the frame critical
    // section (it knows the page the row lands on); on log failure nothing
    // is applied.
    st = t->heap.InstallAt(
        rid, row, MakeDmlLog(txn->id_, LogRecordType::kInsert, table, rid, {}, row, false));
  }
  if (!st.ok()) {
    t->heap.FreeSlot(rid);
    return st;
  }
  for (auto& [ix, key] : keys) {
    std::unique_lock<sim::SharedMutex> tl(ix->tree_latch);
    ix->tree.Insert(key, rid);
  }
  txn->undo_.push_back(Transaction::UndoRecord{LogRecordType::kInsert, table, rid, {}});
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

Result<std::vector<Row>> Database::ExecuteSelect(Transaction* txn, const BoundStatement& stmt,
                                                 const std::vector<Value>& params) {
  if (crashed_.load()) return Status::Unavailable("database crashed");
  if (stmt.kind != BoundStatement::Kind::kSelect) {
    return Status::InvalidArgument("not a select statement");
  }
  selects_.fetch_add(1, std::memory_order_relaxed);
  const Isolation iso = txn->isolation_;

  TablePtr t = GetTable(stmt.table);
  if (t == nullptr) return Status::NotFound("table");

  DLX_ASSIGN_OR_RETURN(std::vector<Candidate> cands,
                       CollectCandidates(txn, t.get(), stmt, params));

  std::vector<Row> out;
  if (iso == Isolation::kUR) {
    // Uncommitted read: no locks at all (the Upcall daemon runs here).
    for (const Candidate& c : cands) {
      if (RowMatches(stmt, params, c.row)) out.push_back(c.row);
    }
    return out;
  }

  // Table lock.
  if (txn->escalated_tables_.count(stmt.table) == 0) {
    const bool rr_scan =
        iso == Isolation::kRR && stmt.path.kind == AccessPath::Kind::kTableScan;
    const LockMode tmode = rr_scan ? LockMode::kS : LockMode::kIS;
    DLX_RETURN_IF_ERROR(
        lock_manager_->Acquire(txn->id_, LockId::Table(stmt.table), tmode, LockTimeout(txn)));
    if (rr_scan) {
      // Table-level S lock covers every row; no row locks needed.
      for (const Candidate& c : cands) {
        if (RowMatches(stmt, params, c.row)) out.push_back(c.row);
      }
      return out;
    }
  }

  for (const Candidate& c : cands) {
    const LockId row_lock = LockId::Row(stmt.table, c.rid);
    DLX_RETURN_IF_ERROR(AcquireGranular(txn, t.get(), row_lock, LockMode::kS));
    bool matched = false;
    {
      auto latch = LatchShared(*t);
      auto rl = RowLatchShared(*t, c.rid);
      Row fresh;
      if (t->heap.GetIf(c.rid, &fresh)) {
        if (RowMatches(stmt, params, fresh)) {
          out.push_back(std::move(fresh));
          matched = true;
        }
      }
    }
    // CS releases the lock once the cursor moves on; RS/RR release only
    // non-qualifying rows (RS) or nothing (RR).
    const bool escalated = txn->escalated_tables_.count(stmt.table) != 0;
    if (!escalated) {
      if (iso == Isolation::kCS || (iso == Isolation::kRS && !matched)) {
        lock_manager_->Release(txn->id_, row_lock);
      }
    }
  }

  // RR phantom protection on index scans: lock the key range boundary.
  if (iso == Isolation::kRR && options_.next_key_locking &&
      stmt.path.kind == AccessPath::Kind::kIndexScan &&
      txn->escalated_tables_.count(stmt.table) == 0) {
    LockId boundary = LockId::EndOfIndex(stmt.table, stmt.path.index);
    {
      auto latch = LatchShared(*t);
      IndexState* ix = nullptr;
      for (auto& i : t->indexes) {
        if (i->id == stmt.path.index) ix = i.get();
      }
      if (ix != nullptr && !cands.empty()) {
        boundary = NextKeyLockId(*t, *ix, ExtractKey(*ix, cands.back().row));
      }
    }
    DLX_RETURN_IF_ERROR(AcquireGranular(txn, t.get(), boundary, LockMode::kS));
  }
  return out;
}

// ---------------------------------------------------------------------------
// UPDATE / DELETE
// ---------------------------------------------------------------------------

Result<int64_t> Database::ExecuteDelete(Transaction* txn, const BoundStatement& stmt,
                                        const std::vector<Value>& params) {
  if (crashed_.load()) return Status::Unavailable("database crashed");
  if (stmt.kind != BoundStatement::Kind::kDelete) {
    return Status::InvalidArgument("not a delete statement");
  }
  deletes_.fetch_add(1, std::memory_order_relaxed);

  TablePtr t = GetTable(stmt.table);
  if (t == nullptr) return Status::NotFound("table");
  if (txn->escalated_tables_.count(stmt.table) == 0) {
    DLX_RETURN_IF_ERROR(lock_manager_->Acquire(txn->id_, LockId::Table(stmt.table),
                                               LockMode::kIX, LockTimeout(txn)));
  }

  DLX_ASSIGN_OR_RETURN(std::vector<Candidate> cands,
                       CollectCandidates(txn, t.get(), stmt, params));

  int64_t count = 0;
  for (const Candidate& c : cands) {
    DLX_RETURN_IF_ERROR(
        AcquireGranular(txn, t.get(), LockId::Row(stmt.table, c.rid), LockMode::kX));

    // Compute key locks from the current row image.
    std::vector<LockId> key_locks;
    bool still_matches = false;
    Row current;
    {
      auto latch = LatchShared(*t);
      {
        auto rl = RowLatchShared(*t, c.rid);
        if (t->heap.GetIf(c.rid, &current)) {
          still_matches = RowMatches(stmt, params, current);
        }
      }
      if (still_matches) {
        for (auto& ix : t->indexes) {
          const Key k = ExtractKey(*ix, current);
          if (ix->def.unique) key_locks.push_back(KeyLockId(*t, *ix, k));
          if (options_.next_key_locking) key_locks.push_back(NextKeyLockId(*t, *ix, k));
        }
      }
    }
    if (!still_matches) continue;
    for (const LockId& id : key_locks) {
      DLX_RETURN_IF_ERROR(AcquireGranular(txn, t.get(), id, LockMode::kX));
    }

    auto latch = LatchShared(*t);
    Row old;
    bool deleted = false;
    {
      auto rl = RowLatchExclusive(*t, c.rid);
      Row fresh;
      if (!t->heap.GetIf(c.rid, &fresh)) continue;  // deleted while we waited for locks
      if (!RowMatches(stmt, params, fresh)) continue;
      // The heap logs the delete (with its page id) from inside the frame
      // critical section, then removes the slot.
      Result<Row> removed = t->heap.Delete(
          c.rid, MakeDmlLog(txn->id_, LogRecordType::kDelete, stmt.table, c.rid, fresh, {},
                            false));
      DLX_RETURN_IF_ERROR(removed.status());
      old = std::move(*removed);
      deleted = true;
    }
    // Index entries go AFTER the heap delete: a scan finding a stale entry
    // sees an invalid slot and skips it (the permitted non-blocking miss).
    if (deleted) {
      for (auto& ix : t->indexes) {
        std::unique_lock<sim::SharedMutex> tl(ix->tree_latch);
        ix->tree.Erase(ExtractKey(*ix, old), c.rid);
      }
      txn->undo_.push_back(
          Transaction::UndoRecord{LogRecordType::kDelete, stmt.table, c.rid, std::move(old)});
      txn->pending_free_.emplace_back(stmt.table, c.rid);
      ++count;
    }
  }
  return count;
}

Result<int64_t> Database::ExecuteUpdate(Transaction* txn, const BoundStatement& stmt,
                                        const std::vector<Value>& params) {
  if (crashed_.load()) return Status::Unavailable("database crashed");
  if (stmt.kind != BoundStatement::Kind::kUpdate) {
    return Status::InvalidArgument("not an update statement");
  }
  updates_.fetch_add(1, std::memory_order_relaxed);

  TablePtr t = GetTable(stmt.table);
  if (t == nullptr) return Status::NotFound("table");
  if (txn->escalated_tables_.count(stmt.table) == 0) {
    DLX_RETURN_IF_ERROR(lock_manager_->Acquire(txn->id_, LockId::Table(stmt.table),
                                               LockMode::kIX, LockTimeout(txn)));
  }

  DLX_ASSIGN_OR_RETURN(std::vector<Candidate> cands,
                       CollectCandidates(txn, t.get(), stmt, params));

  int64_t count = 0;
  for (const Candidate& c : cands) {
    DLX_RETURN_IF_ERROR(
        AcquireGranular(txn, t.get(), LockId::Row(stmt.table, c.rid), LockMode::kX));

    // Compute the new row and the key locks implied by changed index keys.
    std::vector<LockId> key_locks;
    std::vector<std::pair<IndexState*, std::pair<Key, Key>>> key_changes;  // old -> new
    bool still_matches = false;
    Row current;
    Row new_row;
    {
      auto latch = LatchShared(*t);
      {
        auto rl = RowLatchShared(*t, c.rid);
        if (t->heap.GetIf(c.rid, &current)) {
          still_matches = RowMatches(stmt, params, current);
        }
      }
      if (still_matches) {
        new_row = current;
        for (size_t i = 0; i < stmt.sets.size(); ++i) {
          new_row[stmt.set_cols[i]] = stmt.sets[i].operand.Resolve(params);
        }
        for (auto& ix : t->indexes) {
          Key old_key = ExtractKey(*ix, current);
          Key new_key = ExtractKey(*ix, new_row);
          if (CompareKeys(old_key, new_key) == 0) continue;
          if (ix->def.unique) {
            // X-lock BOTH keys: the new key serializes against concurrent
            // inserters of the same value, and the old key keeps a
            // same-old-key inserter blocked until this transaction
            // resolves — if we roll back, undo re-inserts old_key into the
            // tree before ReleaseAll, so the inserter's post-lock
            // uniqueness re-check sees it (delete already locks its key
            // for the same reason).
            key_locks.push_back(KeyLockId(*t, *ix, old_key));
            key_locks.push_back(KeyLockId(*t, *ix, new_key));
          }
          if (options_.next_key_locking) {
            key_locks.push_back(NextKeyLockId(*t, *ix, old_key));
            key_locks.push_back(NextKeyLockId(*t, *ix, new_key));
          }
          key_changes.emplace_back(ix.get(),
                                   std::make_pair(std::move(old_key), std::move(new_key)));
        }
      }
    }
    if (!still_matches) continue;
    for (const LockId& id : key_locks) {
      DLX_RETURN_IF_ERROR(AcquireGranular(txn, t.get(), id, LockMode::kX));
    }

    auto latch = LatchShared(*t);
    Row fresh;
    {
      auto rl = RowLatchShared(*t, c.rid);
      if (!t->heap.GetIf(c.rid, &fresh)) continue;
    }
    // We hold the row X lock: nobody else can have changed the row since
    // the snapshot above, so `fresh` is stable across the latch re-takes
    // below.
    if (!RowMatches(stmt, params, fresh)) continue;
    // Unique checks on changed keys (serialized by the new-key X locks).
    bool conflict = false;
    for (auto& [ix, change] : key_changes) {
      if (!ix->def.unique) continue;
      std::shared_lock<sim::SharedMutex> tl(ix->tree_latch);
      if (ix->tree.ContainsKey(change.second)) {
        unique_conflicts_.fetch_add(1, std::memory_order_relaxed);
        conflict = true;
        break;
      }
    }
    if (conflict) return Status::Conflict("unique index violation on update");
    // Paged-storage admission checks for the NEW image (the update may
    // grow the row or an index key past the page/node budget).
    DLX_RETURN_IF_ERROR(t->heap.CheckRowFits(new_row));
    for (auto& [ix, change] : key_changes) {
      if (EncodeOrderedKey(change.second).size() > ix->tree.max_key_bytes()) {
        return Status::InvalidArgument("key too long for index " + ix->def.name);
      }
    }
    // Erase the changed keys' old entries, swap the row under its latch
    // (the heap logs the update — with the page ids it lands on — from
    // inside the frame critical section), insert their new entries.  An
    // index whose key is unchanged is never touched, so a lookup by that
    // key always finds the row; a scan of a changed index in the window
    // sees either a stale entry with the old (still consistent) row or a
    // miss — both already permitted.
    for (auto& [ix, change] : key_changes) {
      std::unique_lock<sim::SharedMutex> tl(ix->tree_latch);
      ix->tree.Erase(change.first, c.rid);
    }
    Status st;
    {
      auto rl = RowLatchExclusive(*t, c.rid);
      st = t->heap.Update(
          c.rid, new_row,
          MakeDmlLog(txn->id_, LogRecordType::kUpdate, stmt.table, c.rid, fresh, new_row,
                     false));
    }
    if (!st.ok()) {
      // The log append failed (capacity): nothing was applied; restore the
      // index entries erased above and surface the error.
      for (auto& [ix, change] : key_changes) {
        std::unique_lock<sim::SharedMutex> tl(ix->tree_latch);
        ix->tree.Insert(change.first, c.rid);
      }
      return st;
    }
    for (auto& [ix, change] : key_changes) {
      std::unique_lock<sim::SharedMutex> tl(ix->tree_latch);
      ix->tree.Insert(change.second, c.rid);
    }
    txn->undo_.push_back(
        Transaction::UndoRecord{LogRecordType::kUpdate, stmt.table, c.rid, fresh});
    ++count;
  }
  return count;
}

// ---------------------------------------------------------------------------
// One-shot conveniences
// ---------------------------------------------------------------------------

Result<std::vector<Row>> Database::Select(Transaction* txn, TableId table,
                                          const Conjunction& where) {
  DLX_ASSIGN_OR_RETURN(BoundStatement stmt, Bind(BoundStatement::Kind::kSelect, table, where));
  return ExecuteSelect(txn, stmt);
}

Result<int64_t> Database::Update(Transaction* txn, TableId table, const Conjunction& where,
                                 const std::vector<Assignment>& sets) {
  DLX_ASSIGN_OR_RETURN(BoundStatement stmt,
                       Bind(BoundStatement::Kind::kUpdate, table, where, sets));
  return ExecuteUpdate(txn, stmt);
}

Result<int64_t> Database::Delete(Transaction* txn, TableId table, const Conjunction& where) {
  DLX_ASSIGN_OR_RETURN(BoundStatement stmt, Bind(BoundStatement::Kind::kDelete, table, where));
  return ExecuteDelete(txn, stmt);
}

Result<int64_t> Database::CountAll(Transaction* txn, TableId table) {
  DLX_ASSIGN_OR_RETURN(std::vector<Row> rows, Select(txn, table, {}));
  return static_cast<int64_t>(rows.size());
}

}  // namespace datalinks::sqldb

// Crash-point matrix over the 2PC pipeline (host commit path, DLFM 2PC
// participant, Copy and Delete Group daemons).  Every case runs the same
// multi-server link/unlink workload, crashes one process at a named fail
// point, restarts everything from the durable stores, resolves indoubts,
// and asserts the paper's recovery invariants:
//
//   I1  no indoubt ('P') transaction survives resolution at any DLFM;
//   I2  no durable decision record survives full phase-2 delivery;
//   I3  host DATALINK references and the DLFM File tables agree (an empty
//       Reconcile report);
//   I4  every linked recovery-enabled file has its archive copy once the
//       Copy daemon drains;
//   I5  filesystem ownership matches link state (FULL control => DLFM
//       admin owns the file; unlinked/aborted => original owner).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive_server.h"
#include "common/fault_injector.h"
#include "dlff/filter.h"
#include "dlfm/server.h"
#include "fsim/file_server.h"
#include "hostdb/host_database.h"

namespace datalinks {
namespace {

using dlfm::AccessControl;
using hostdb::ColumnSpec;
using sqldb::Pred;
using sqldb::Row;
using sqldb::Value;

constexpr int64_t kWait = 5 * 1000 * 1000;  // daemon-drain budget per case

class CrashMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs1_ = std::make_unique<fsim::FileServer>("srv1");
    fs2_ = std::make_unique<fsim::FileServer>("srv2");
    archive_ = std::make_unique<archive::ArchiveServer>();
    StartDlfm(1);
    StartDlfm(2);
    MakeHost(/*sync=*/true);
  }

  void TearDown() override {
    host_.reset();
    if (dlfm1_) dlfm1_->Stop();
    if (dlfm2_) dlfm2_->Stop();
  }

  /// Tear down and rebuild the whole world from scratch (fresh file
  /// servers, archive, injectors, durable stores).  Lets one TEST_F body
  /// run many independent matrix cases in a loop.
  void ResetWorld() {
    host_.reset();
    if (dlfm1_) dlfm1_->Stop();
    if (dlfm2_) dlfm2_->Stop();
    dlfm1_.reset();
    dlfm2_.reset();
    fs1_ = std::make_unique<fsim::FileServer>("srv1");
    fs2_ = std::make_unique<fsim::FileServer>("srv2");
    archive_ = std::make_unique<archive::ArchiveServer>();
    StartDlfm(1);
    StartDlfm(2);
    MakeHost(/*sync=*/true);
  }

  void StartDlfm(int idx, std::shared_ptr<sqldb::DurableStore> durable = {}) {
    dlfm::DlfmOptions opts;
    opts.server_name = idx == 1 ? "srv1" : "srv2";
    opts.commit_batch_size = 4;  // several Delete Group rounds for ~10 files
    opts.checkpoint_threshold_bytes = checkpoint_threshold_;
    auto inj = std::make_shared<FaultInjector>();
    opts.fault = inj;
    auto& slot = idx == 1 ? dlfm1_ : dlfm2_;
    slot = std::make_unique<dlfm::DlfmServer>(opts, idx == 1 ? fs1_.get() : fs2_.get(),
                                              archive_.get(), std::move(durable));
    (idx == 1 ? fault1_ : fault2_) = std::move(inj);
    ASSERT_TRUE(slot->Start().ok());
  }

  void MakeHost(bool sync, std::shared_ptr<sqldb::DurableStore> durable = {}) {
    hostdb::HostOptions hopts;
    hopts.dbid = 1;
    hopts.synchronous_commit = sync;
    hopts.checkpoint_threshold_bytes = checkpoint_threshold_;
    fault_host_ = std::make_shared<FaultInjector>();
    hopts.fault = fault_host_;
    host_ = std::make_unique<hostdb::HostDatabase>(hopts, std::move(durable));
    host_->RegisterDlfm("srv1", dlfm1_->listener());
    host_->RegisterDlfm("srv2", dlfm2_->listener());
  }

  void CreateMediaTable() {
    auto table = host_->CreateTable(
        "media", {ColumnSpec{"id", sqldb::ValueType::kInt, false, false, {}, false},
                  ColumnSpec{"clip", sqldb::ValueType::kString, true, true,
                             AccessControl::kFull, true}});
    ASSERT_TRUE(table.ok());
    media_ = *table;
  }

  /// Crash-restart every process: the durable stores survive, everything
  /// volatile (open transactions, contexts, armed fail points) is lost.
  void RestartAll() {
    auto hstore = host_->SimulateCrash();
    host_.reset();
    auto s1 = dlfm1_->SimulateCrash();
    dlfm1_.reset();
    auto s2 = dlfm2_->SimulateCrash();
    dlfm2_.reset();
    StartDlfm(1, std::move(s1));
    StartDlfm(2, std::move(s2));
    MakeHost(/*sync=*/true, std::move(hstore));
    auto media = host_->db()->TableByName("media");
    ASSERT_TRUE(media.ok());
    media_ = *media;
  }

  void MakeFile(fsim::FileServer* fs, const std::string& name) {
    ASSERT_TRUE(fs->CreateFile(name, "alice", 0644, "data:" + name).ok());
  }

  Row MediaRow(int64_t id, const std::string& url) {
    return Row{Value(id), url.empty() ? Value::Null() : Value(url)};
  }

  /// Committed baseline: row 1 links pre_a on srv1 (FULL + recovery), and
  /// its archive copy is already drained so later assertions on it are
  /// deterministic.
  void CommitBaseline() {
    MakeFile(fs1_.get(), "pre_a");
    auto s = host_->OpenSession();
    ASSERT_TRUE(s->Begin().ok());
    ASSERT_TRUE(s->Insert(media_, MediaRow(1, "dlfs://srv1/pre_a")).ok());
    ASSERT_TRUE(s->Commit().ok());
    ASSERT_TRUE(dlfm1_->WaitArchiveDrained(kWait).ok());
  }

  static bool WaitUntil(const std::function<bool()>& pred, int64_t timeout_ms = 5000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pred();
  }

  std::vector<int64_t> MediaIds() {
    auto s = host_->OpenSession();
    EXPECT_TRUE(s->Begin().ok());
    auto rows = s->Select(media_, {});
    EXPECT_TRUE(rows.ok());
    EXPECT_TRUE(s->Commit().ok());
    std::vector<int64_t> ids;
    for (const Row& r : *rows) ids.push_back(r[0].as_int());
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  /// The recovery invariants I1–I5 (see file header).  `committed` is the
  /// expected outcome of the crashed transaction.
  void CheckInvariants(bool committed) {
    // I1: indoubt resolution terminated.
    auto in1 = dlfm1_->ListIndoubt();
    auto in2 = dlfm2_->ListIndoubt();
    ASSERT_TRUE(in1.ok() && in2.ok());
    EXPECT_TRUE(in1->empty());
    EXPECT_TRUE(in2->empty());
    // I2: no decision record left behind.
    auto pending = host_->PendingDecisions();
    ASSERT_TRUE(pending.ok());
    EXPECT_TRUE(pending->empty());
    // I3: host references == DLFM File tables (Reconcile finds nothing).
    auto report = host_->Reconcile(media_, /*use_temp_table=*/true);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->cleared_urls.empty()) << report->cleared_urls[0];
    EXPECT_TRUE(report->dlfm_unlinked.empty()) << report->dlfm_unlinked[0];

    // Outcome-specific row and link state.
    if (committed) {
      EXPECT_EQ(MediaIds(), (std::vector<int64_t>{2, 3}));
      EXPECT_FALSE(dlfm1_->UpcallIsLinked("pre_a"));
      EXPECT_TRUE(dlfm1_->UpcallIsLinked("w_x"));
      EXPECT_TRUE(dlfm2_->UpcallIsLinked("w_y"));
      EXPECT_EQ(fs1_->Stat("pre_a")->owner, "alice");              // released
      EXPECT_EQ(fs1_->Stat("w_x")->owner, dlff::kDlfmAdminUser);   // taken over
      EXPECT_EQ(fs2_->Stat("w_y")->owner, dlff::kDlfmAdminUser);
    } else {
      EXPECT_EQ(MediaIds(), (std::vector<int64_t>{1}));
      EXPECT_TRUE(dlfm1_->UpcallIsLinked("pre_a"));
      EXPECT_FALSE(dlfm1_->UpcallIsLinked("w_x"));
      EXPECT_FALSE(dlfm2_->UpcallIsLinked("w_y"));
      EXPECT_EQ(fs1_->Stat("pre_a")->owner, dlff::kDlfmAdminUser);
      EXPECT_EQ(fs1_->Stat("w_x")->owner, "alice");
      EXPECT_EQ(fs2_->Stat("w_y")->owner, "alice");
    }

    // I4: every linked recovery-enabled file has an archive copy.
    CheckArchiveCopies(dlfm1_.get(), "srv1");
    CheckArchiveCopies(dlfm2_.get(), "srv2");
  }

  void CheckArchiveCopies(dlfm::DlfmServer* server, const std::string& name) {
    ASSERT_TRUE(server->WaitArchiveDrained(kWait).ok()) << name;
    auto* db = server->local_db();
    auto* t = db->Begin();
    auto linked = server->repo().AllInState(t, "L");
    ASSERT_TRUE(db->Commit(t).ok());
    ASSERT_TRUE(linked.ok());
    for (const dlfm::FileEntry& e : *linked) {
      if (e.check_flag != 0 || !e.recovery_option) continue;
      EXPECT_TRUE(archive_->Has(archive::ArchiveKey{name, e.name, e.recovery_id}))
          << name << "/" << e.name;
    }
  }

  /// One matrix case: baseline, then a transaction linking w_x (srv1) and
  /// w_y (srv2) while unlinking pre_a, with `arm` scripting the crash.
  void RunTwoPcCrashCase(const std::function<void()>& arm, bool committed) {
    CreateMediaTable();
    CommitBaseline();
    MakeFile(fs1_.get(), "w_x");
    MakeFile(fs2_.get(), "w_y");
    arm();
    {
      auto s = host_->OpenSession();
      ASSERT_TRUE(s->Begin().ok());
      Status st = s->Insert(media_, MediaRow(2, "dlfs://srv1/w_x"));
      if (st.ok()) st = s->Insert(media_, MediaRow(3, "dlfs://srv2/w_y"));
      if (st.ok()) {
        auto n = s->Delete(media_, {Pred::Eq("id", 1)});
        st = n.ok() ? Status::OK() : n.status();
      }
      if (st.ok()) {
        (void)s->Commit();  // outcome decided by the durable state, not this rc
      } else {
        // Threshold-driven points (the auto-checkpoint ones) can fire inside
        // a statement's DLFM round trip — whichever local commit crosses the
        // log threshold first, which shifts with daemon activity — instead
        // of in commit processing.  The transaction then cannot commit; that
        // is only a legal schedule for cases expecting an abort.
        ASSERT_FALSE(committed)
            << "statement failed but the case expects commit: " << st.ToString();
        (void)s->Rollback();
      }
    }
    RestartAll();
    ASSERT_TRUE(host_->ResolveIndoubts().ok());
    ASSERT_TRUE(dlfm1_->WaitGroupWorkDrained(kWait).ok());
    ASSERT_TRUE(dlfm2_->WaitGroupWorkDrained(kWait).ok());
    CheckInvariants(committed);
  }

  void ArmCrash(FaultInjector* inj, const std::string& point, int skip = 0) {
    FaultInjector::Spec spec;
    spec.action = FaultInjector::Action::kCrash;
    spec.skip = skip;
    inj->Arm(point, spec);
  }

  std::unique_ptr<fsim::FileServer> fs1_, fs2_;
  std::unique_ptr<archive::ArchiveServer> archive_;
  std::unique_ptr<dlfm::DlfmServer> dlfm1_, dlfm2_;
  std::shared_ptr<FaultInjector> fault1_, fault2_, fault_host_;
  std::unique_ptr<hostdb::HostDatabase> host_;
  sqldb::TableId media_ = 0;
  /// Auto-checkpoint threshold applied to every engine on the next
  /// (Re)Start; 0 = engine default.  Shrunk by checkpoint-point cases.
  size_t checkpoint_threshold_ = 0;
};

// --------------------------------------------------------------------------
// Host commit-path crash points.
// --------------------------------------------------------------------------

TEST_F(CrashMatrixTest, SanityNoCrashCommits) {
  RunTwoPcCrashCase([] {}, /*committed=*/true);
}

// --------------------------------------------------------------------------
// Registry-enumerated matrix: every registered fail point must either have
// an expectation below (and is then crash-tested against the standard 2PC
// workload) or an entry in the skip list naming the dedicated test that
// covers it.  Adding a new fail point anywhere in the codebase makes this
// test fail until the point is covered one way or the other.
// --------------------------------------------------------------------------

TEST_F(CrashMatrixTest, RegistryEnumeratedCrashMatrix) {
  struct MatrixCase {
    enum Target { kHost, kDlfm1 };
    Target target;
    bool committed;  // expected outcome of the crashed transaction
    size_t checkpoint_threshold = 0;  // 0 = engine default
  };
  constexpr size_t kTinyCheckpoint = 64;  // every commit auto-checkpoints

  // Expected outcomes.  2PC points follow the presumed-abort protocol: the
  // outcome is "committed" iff the decision record was durably forced at
  // the host before the crash.  Engine ("sqldb.*") points crash inside
  // whichever process's database they are armed on:
  //  - a WAL force/torn-tail crash on the host kills the decision commit
  //    itself, so the decision never becomes durable -> abort; on a DLFM it
  //    kills prepare-time hardening -> prepare fails -> abort;
  //  - checkpoint points fire AFTER the commit force (auto-checkpoint runs
  //    at the end of Database::Commit; the image write happens after
  //    ForceAll), so on the host the decision is already durable -> commit,
  //    while on a DLFM the host still sees the prepare ack fail (the
  //    latched injector kills the post-harden probe) -> presumed abort.
  const std::map<std::string, std::vector<MatrixCase>> expectations = {
      {"host.commit.after_prepare", {{MatrixCase::kHost, false}}},
      {"host.commit.after_decision_write", {{MatrixCase::kHost, false}}},
      {"host.commit.before_phase2", {{MatrixCase::kHost, true}}},
      {"host.commit.between_phase2", {{MatrixCase::kHost, true}}},
      {"dlfm.prepare.before_harden", {{MatrixCase::kDlfm1, false}}},
      {"dlfm.prepare.after_harden", {{MatrixCase::kDlfm1, false}}},
      {"dlfm.commit.attempt", {{MatrixCase::kDlfm1, true}}},
      {"dlfm.commit.before_harden", {{MatrixCase::kDlfm1, true}}},
      {"dlfm.commit.after_harden", {{MatrixCase::kDlfm1, true}}},
      {"sqldb.wal.force", {{MatrixCase::kHost, false}, {MatrixCase::kDlfm1, false}}},
      {"sqldb.wal.torn_tail", {{MatrixCase::kHost, false}, {MatrixCase::kDlfm1, false}}},
      // Group-harden leader crashes before forcing the batch: the prepare
      // never hardens, the host sees the ack fail -> presumed abort.
      {"dlfm.harden.group", {{MatrixCase::kDlfm1, false}}},
      {"sqldb.checkpoint.write",
       {{MatrixCase::kHost, true, kTinyCheckpoint},
        {MatrixCase::kDlfm1, false, kTinyCheckpoint}}},
      {"sqldb.checkpoint.auto",
       {{MatrixCase::kHost, true, kTinyCheckpoint},
        {MatrixCase::kDlfm1, false, kTinyCheckpoint}}},
      // Page-flush points fire inside the checkpoint's dirty-page writeback,
      // which (like the image write) runs after the commit's ForceAll: the
      // host decision is already durable -> commit, while a DLFM dies before
      // acking prepare -> presumed abort.  The partial-write variant leaves a
      // torn slot behind; the CRC'd ping-pong layout must fall back to the
      // surviving copy, so the recovered outcome is identical.
      {"sqldb.page.flush",
       {{MatrixCase::kHost, true, kTinyCheckpoint},
        {MatrixCase::kDlfm1, false, kTinyCheckpoint}}},
      {"sqldb.page.partial_write",
       {{MatrixCase::kHost, true, kTinyCheckpoint},
        {MatrixCase::kDlfm1, false, kTinyCheckpoint}}},
  };

  // Points with dedicated tests (workloads the standard 2PC case cannot
  // express).  Every entry must say where the coverage lives.
  const std::map<std::string, std::string> skip_list = {
      {"dlfm.abort.attempt",
       "compound arming (peer prepare error + local crash); covered by "
       "CrashMatrixTest.DlfmCrashDuringAbort"},
      {"dlfm.copy.store",
       "archive-store error path; covered by "
       "DlfmTest.CopyDaemonRetriesFailedArchiveStore in dlfm_server_test"},
      {"dlfm.copy.after_store",
       "covered by CrashMatrixTest.CopyDaemonCrashBetweenStoreAndDelete"},
      {"dlfm.dg.round",
       "covered by CrashMatrixTest.DeleteGroupDaemonCrashMidGroup"},
      {"sqldb.btree.split",
       "needs a bulk-link workload to overflow an index node; covered by "
       "CrashMatrixTest.SqldbBtreeSplitCrashDuringBulkLink"},
  };

  for (const std::string& point : failpoints::Registry()) {
    if (skip_list.count(point) != 0) continue;
    auto it = expectations.find(point);
    ASSERT_NE(it, expectations.end())
        << "fail point '" << point << "' is neither matrix-covered nor "
        << "skip-listed: add an expectation to RegistryEnumeratedCrashMatrix "
        << "or a skip_list entry naming its dedicated test";
    for (const MatrixCase& c : it->second) {
      SCOPED_TRACE(point + (c.target == MatrixCase::kHost ? " @host" : " @dlfm1"));
      checkpoint_threshold_ = c.checkpoint_threshold;
      ResetWorld();
      checkpoint_threshold_ = 0;
      if (::testing::Test::HasFatalFailure()) return;
      FaultInjector* inj =
          c.target == MatrixCase::kHost ? fault_host_.get() : fault1_.get();
      RunTwoPcCrashCase([&] { ArmCrash(inj, point); }, c.committed);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST_F(CrashMatrixTest, SqldbBtreeSplitCrashDuringBulkLink) {
  // Host user tables have no secondary indexes, so the split point is only
  // reachable inside a DLFM's local database.  Link enough files on srv1 in
  // one transaction to overflow a File-table index node (fanout 32); the
  // armed crash abandons the split mid-operation and latches the injector,
  // so the transaction aborts and restart recovery must leave physically
  // consistent structures behind.
  CreateMediaTable();
  CommitBaseline();
  constexpr int kFiles = 40;
  for (int i = 0; i < kFiles; ++i) {
    MakeFile(fs1_.get(), "bulk_" + std::to_string(i));
  }
  ArmCrash(fault1_.get(), failpoints::kSqldbBtreeSplit);
  {
    auto s = host_->OpenSession();
    ASSERT_TRUE(s->Begin().ok());
    for (int i = 0; i < kFiles; ++i) {
      if (!s->Insert(media_, MediaRow(10 + i, "dlfs://srv1/bulk_" + std::to_string(i)))
               .ok()) {
        break;  // the latched crash makes srv1 unavailable mid-bulk
      }
    }
    (void)s->Commit();
  }
  EXPECT_TRUE(fault1_->crashed()) << "bulk link never split an index node";

  RestartAll();
  ASSERT_TRUE(host_->ResolveIndoubts().ok());
  ASSERT_TRUE(dlfm1_->WaitGroupWorkDrained(kWait).ok());
  ASSERT_TRUE(dlfm2_->WaitGroupWorkDrained(kWait).ok());

  // The bulk transaction aborted atomically; the baseline link survives.
  EXPECT_EQ(MediaIds(), (std::vector<int64_t>{1}));
  EXPECT_TRUE(dlfm1_->UpcallIsLinked("pre_a"));
  for (int i = 0; i < kFiles; ++i) {
    const std::string name = "bulk_" + std::to_string(i);
    EXPECT_FALSE(dlfm1_->UpcallIsLinked(name)) << name;
    EXPECT_EQ(fs1_->Stat(name)->owner, "alice") << name;
  }
  auto report = host_->Reconcile(media_, /*use_temp_table=*/true);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->cleared_urls.empty());
  EXPECT_TRUE(report->dlfm_unlinked.empty());
  // Physical B-tree/heap consistency after recovering past an abandoned
  // split (invariant I7).
  EXPECT_TRUE(dlfm1_->local_db()->CheckIntegrity().ok());
  EXPECT_TRUE(host_->db()->CheckIntegrity().ok());
}

TEST_F(CrashMatrixTest, DlfmCrashDuringAbort) {
  // srv2 refuses prepare, so the host aborts everywhere; srv1 (prepared and
  // hardened) dies inside the compensation — presumed abort finishes it.
  RunTwoPcCrashCase(
      [&] {
        FaultInjector::Spec err;  // default action: return an error status
        fault2_->Arm(failpoints::kDlfmPrepareBeforeHarden, err);
        ArmCrash(fault1_.get(), failpoints::kDlfmAbortAttempt);
      },
      /*committed=*/false);
}

// --------------------------------------------------------------------------
// Daemon crash points.
// --------------------------------------------------------------------------

TEST_F(CrashMatrixTest, CopyDaemonCrashBetweenStoreAndDelete) {
  CreateMediaTable();
  ArmCrash(fault1_.get(), failpoints::kDlfmCopyAfterStore);
  MakeFile(fs1_.get(), "c_a");
  auto s = host_->OpenSession();
  ASSERT_TRUE(s->Begin().ok());
  ASSERT_TRUE(s->Insert(media_, MediaRow(1, "dlfs://srv1/c_a")).ok());
  ASSERT_TRUE(s->Commit().ok());
  s.reset();

  ASSERT_TRUE(WaitUntil([&] { return fault1_->crashed(); }));
  // The store happened; the pending entry survived the crash (no delete).
  EXPECT_TRUE(archive_->stats().copies >= 1);
  {
    auto* db = dlfm1_->local_db();
    auto* t = db->Begin();
    auto pend = dlfm1_->repo().PendingArchives(t);
    // Rollback, not Commit: the engine shares the crashed injector, so a
    // commit (WAL force) on the dead process correctly fails now.
    ASSERT_TRUE(db->Rollback(t).ok());
    ASSERT_TRUE(pend.ok());
    EXPECT_EQ(pend->size(), 1u);
  }

  RestartAll();
  ASSERT_TRUE(host_->ResolveIndoubts().ok());
  ASSERT_TRUE(dlfm1_->WaitArchiveDrained(kWait).ok());
  EXPECT_TRUE(dlfm1_->UpcallIsLinked("c_a"));
  CheckArchiveCopies(dlfm1_.get(), "srv1");
  auto report = host_->Reconcile(media_, true);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->cleared_urls.empty());
  EXPECT_TRUE(report->dlfm_unlinked.empty());
}

TEST_F(CrashMatrixTest, DeleteGroupDaemonCrashMidGroup) {
  CreateMediaTable();
  auto bulk = host_->CreateTable(
      "bulk", {ColumnSpec{"id", sqldb::ValueType::kInt, false, false, {}, false},
               ColumnSpec{"doc", sqldb::ValueType::kString, true, true,
                          AccessControl::kNone, false}});
  ASSERT_TRUE(bulk.ok());
  constexpr int kFiles = 10;
  auto s = host_->OpenSession();
  ASSERT_TRUE(s->Begin().ok());
  for (int i = 0; i < kFiles; ++i) {
    const std::string name = "bulk_f" + std::to_string(i);
    MakeFile(fs1_.get(), name);
    ASSERT_TRUE(
        s->Insert(*bulk, Row{Value(int64_t{i}), Value("dlfs://srv1/" + name)}).ok());
  }
  ASSERT_TRUE(s->Commit().ok());

  // Crash in the SECOND unlink round: the first batch of 4 is committed and
  // released, the rest is in-flight when the daemon dies.
  ArmCrash(fault1_.get(), failpoints::kDlfmDeleteGroupRound, /*skip=*/1);
  ASSERT_TRUE(s->Begin().ok());
  ASSERT_TRUE(s->DropTable(*bulk).ok());
  ASSERT_TRUE(s->Commit().ok());
  s.reset();
  ASSERT_TRUE(WaitUntil([&] { return fault1_->crashed(); }));

  RestartAll();
  // Restart processing re-queues the committed transaction for the Delete
  // Group daemon; no host involvement needed beyond indoubt resolution.
  ASSERT_TRUE(host_->ResolveIndoubts().ok());
  ASSERT_TRUE(dlfm1_->WaitGroupWorkDrained(kWait).ok());
  for (int i = 0; i < kFiles; ++i) {
    const std::string name = "bulk_f" + std::to_string(i);
    EXPECT_FALSE(dlfm1_->UpcallIsLinked(name)) << name;
    EXPECT_EQ(fs1_->Stat(name)->owner, "alice") << name;
  }
  EXPECT_TRUE(dlfm1_->ListIndoubt()->empty());
  EXPECT_TRUE(host_->PendingDecisions()->empty());
}

// --------------------------------------------------------------------------
// Asynchronous-commit decision cleanup (the sys_global_txn leak).
// --------------------------------------------------------------------------

TEST_F(CrashMatrixTest, AsyncCommitErasesDecisionsOnceDrained) {
  host_.reset();
  MakeHost(/*sync=*/false);
  CreateMediaTable();
  auto s = host_->OpenSession();
  for (int i = 0; i < 3; ++i) {
    const std::string name = "async_f" + std::to_string(i);
    MakeFile(fs1_.get(), name);
    ASSERT_TRUE(s->Begin().ok());
    ASSERT_TRUE(s->Insert(media_, MediaRow(i, "dlfs://srv1/" + name)).ok());
    ASSERT_TRUE(s->Commit().ok());
  }
  // Closing the session drains the remaining async phase-2 responses; every
  // drained-and-acked decision must be erased from sys_global_txn.
  s.reset();
  auto pending = host_->PendingDecisions();
  ASSERT_TRUE(pending.ok());
  EXPECT_TRUE(pending->empty());
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(dlfm1_->UpcallIsLinked("async_f" + std::to_string(i)));
  }
}

// --------------------------------------------------------------------------
// Fuzzer-found regression (crash_fuzz seed 39): a reconcile session
// abandoned before its run — host-side error, lost connection, or crash —
// leaked its durable "recon_tmp_<n>" scratch table.  The session counter
// that names the tables is volatile, so after a restart it reset and the
// next reconcile collided with the leftover (AlreadyExists).  Restart
// processing must sweep the scratch tables.
// --------------------------------------------------------------------------

TEST_F(CrashMatrixTest, AbandonedReconcileTempTableIsSweptOnRestart) {
  CreateMediaTable();
  CommitBaseline();
  // Abandon a reconcile session mid-flight: the scratch table exists and
  // the session never runs (the host died between begin and run).
  auto session = dlfm1_->ApiReconcileBegin();
  ASSERT_TRUE(session.ok());
  const std::string scratch = "recon_tmp_" + std::to_string(*session);
  ASSERT_TRUE(dlfm1_->local_db()->TableByName(scratch).ok());
  RestartAll();
  if (HasFatalFailure()) return;
  // The leftover scratch table is gone after restart processing...
  EXPECT_FALSE(dlfm1_->local_db()->TableByName(scratch).ok());
  // ...and the post-restart reconcile — whose reset counter re-issues the
  // same session id — succeeds and finds a consistent world.
  ASSERT_TRUE(host_->ResolveIndoubts().ok());
  auto report = host_->Reconcile(media_, /*use_temp_table=*/true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->cleared_urls.empty());
  EXPECT_TRUE(report->dlfm_unlinked.empty());
}

// --------------------------------------------------------------------------
// Orphan-page adoption: recovery's redo universe is the durable store's
// page set, not the checkpoint image's page lists.  Pages allocated and
// flushed after an anchor — whose page-list updates the next checkpoint
// truncated out of the log — must be re-attached to their owning table when
// recovery falls back to that older anchor.
// --------------------------------------------------------------------------

TEST(OrphanPageRecovery, PagesFlushedAfterAnchorSurviveAnchorFallback) {
  sqldb::DatabaseOptions o;
  o.page_size_bytes = 1024;  // small pages: the filler rows allocate fresh ones
  o.lock_timeout_micros = 500 * 1000;
  auto db = std::move(sqldb::Database::Open(o)).value();
  sqldb::TableSchema schema;
  schema.name = "files";
  schema.columns = {{"name", sqldb::ValueType::kString, false},
                    {"state", sqldb::ValueType::kString, false}};
  sqldb::TableId t = *db->CreateTable(schema);

  auto insert = [&](int lo, int hi) {
    sqldb::Transaction* txn = db->Begin();
    for (int i = lo; i < hi; ++i) {
      ASSERT_TRUE(db->Insert(txn, t,
                             {Value("f" + std::to_string(1000 + i)),
                              Value(std::string(100, 'x'))})
                      .ok());
    }
    ASSERT_TRUE(db->Commit(txn).ok());
  };

  insert(0, 5);
  ASSERT_TRUE(db->Checkpoint().ok());  // anchor A lists only the first pages

  // These rows spill onto newly allocated pages anchor A never heard of.
  insert(5, 60);
  // Anchor B: flushes the new pages, lists them, truncates the log — the
  // records that created them are gone from the redo log.
  ASSERT_TRUE(db->Checkpoint().ok());

  auto durable = db->SimulateCrash();
  ASSERT_FALSE(durable->DataPageIds().empty());
  // Media corruption of the active anchor: recovery CRC-rejects B and falls
  // back to anchor A, whose page lists miss every post-A allocation.  The
  // orphan pages still sit in the durable store with their owner stamped.
  durable->CorruptActiveCheckpoint(0);

  auto reopened = sqldb::Database::Open(o, durable);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto db2 = std::move(reopened).value();
  sqldb::Transaction* r = db2->Begin();
  auto rows = db2->Select(r, *db2->TableByName("files"), {});
  ASSERT_TRUE(rows.ok());
  ASSERT_TRUE(db2->Commit(r).ok());
  EXPECT_EQ(rows->size(), 60u) << "orphaned heap pages were not adopted";
  EXPECT_TRUE(db2->CheckIntegrity().ok());
}

// --------------------------------------------------------------------------
// Sharded topology over the socket transport: the 2PC crash invariants hold
// when the host reaches its DLFMs through TCP and places file-server
// prefixes by consistent hash (ISSUE 8 acceptance: matrix invariants in at
// least one sharded configuration).
// --------------------------------------------------------------------------

TEST(ShardedCrashMatrix, HostCrashBeforePhase2OverSocketsStillCommits) {
  constexpr int kShards = 3;
  constexpr int kPrefixes = 6;
  auto archive = std::make_unique<archive::ArchiveServer>();
  std::vector<std::unique_ptr<fsim::FileServer>> fs;
  std::vector<std::unique_ptr<dlfm::DlfmServer>> dlfms;
  for (int i = 0; i < kShards; ++i) {
    const std::string name = "srv" + std::to_string(i);
    fs.push_back(std::make_unique<fsim::FileServer>(name));
    dlfm::DlfmOptions dopts;
    dopts.server_name = name;
    dopts.listen_port = 0;
    auto d = std::make_unique<dlfm::DlfmServer>(dopts, fs.back().get(),
                                                archive.get(), nullptr);
    ASSERT_TRUE(d->Start().ok());
    dlfms.push_back(std::move(d));
  }

  auto fault_host = std::make_shared<FaultInjector>();
  auto make_host = [&](std::shared_ptr<sqldb::DurableStore> durable) {
    hostdb::HostOptions hopts;
    hopts.dbid = 1;
    hopts.shard_placement = true;
    hopts.fault = fault_host;
    auto host = std::make_unique<hostdb::HostDatabase>(hopts, std::move(durable));
    for (int i = 0; i < kShards; ++i) {
      host->RegisterDlfm("srv" + std::to_string(i), dlfms[i]->socket_listener());
    }
    return host;
  };
  auto host = make_host(nullptr);
  auto table = host->CreateTable(
      "media", {ColumnSpec{"id", sqldb::ValueType::kInt, false, false, {}, false},
                ColumnSpec{"clip", sqldb::ValueType::kString, true, true,
                           AccessControl::kFull, false}});
  ASSERT_TRUE(table.ok());

  auto shard_of = [&](const std::string& prefix) {
    const std::string shard = host->ResolveServer(prefix);
    for (int i = 0; i < kShards; ++i) {
      if (shard == "srv" + std::to_string(i)) return i;
    }
    ADD_FAILURE() << prefix << " -> " << shard;
    return 0;
  };
  for (int p = 0; p < kPrefixes; ++p) {
    const std::string prefix = "vol" + std::to_string(p);
    ASSERT_TRUE(fs[shard_of(prefix)]
                    ->CreateFile("f" + std::to_string(p), "alice", 0644, "data")
                    .ok());
  }

  // Crash with the commit decision durable but no shard told: presumed
  // abort does NOT apply — ResolveIndoubts must redeliver commit to every
  // participant named in the decision record.
  {
    FaultInjector::Spec crash;
    crash.action = FaultInjector::Action::kCrash;
    fault_host->Arm(failpoints::kHostCommitBeforePhase2, crash);
    auto s = host->OpenSession();
    ASSERT_TRUE(s->Begin().ok());
    for (int p = 0; p < kPrefixes; ++p) {
      ASSERT_TRUE(s->Insert(*table,
                            Row{Value(int64_t{p}),
                                Value("dlfs://vol" + std::to_string(p) + "/f" +
                                      std::to_string(p))})
                      .ok());
    }
    Status st = s->Commit();
    EXPECT_FALSE(st.ok());  // the "process" died mid-commit
  }
  auto store = host->SimulateCrash();
  host.reset();
  fault_host->Reset();

  // Host restart over the same socket listeners; the DLFMs never died.
  host = make_host(std::move(store));
  auto media = host->db()->TableByName("media");
  ASSERT_TRUE(media.ok());
  ASSERT_TRUE(host->ResolveIndoubts().ok());

  // I1: no indoubt transaction survives anywhere.
  for (auto& d : dlfms) {
    auto in = d->ListIndoubt();
    ASSERT_TRUE(in.ok());
    EXPECT_TRUE(in->empty());
  }
  // I2: the fully delivered decision record is erased.
  auto pending = host->PendingDecisions();
  ASSERT_TRUE(pending.ok());
  EXPECT_TRUE(pending->empty());
  // Outcome: committed — every placement-routed link exists on its shard.
  for (int p = 0; p < kPrefixes; ++p) {
    EXPECT_TRUE(dlfms[shard_of("vol" + std::to_string(p))]->UpcallIsLinked(
        "f" + std::to_string(p)))
        << "vol" << p;
  }
  // I3: host references and File tables agree.
  auto report = host->Reconcile(*media, /*use_temp_table=*/true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->cleared_urls.empty());
  EXPECT_TRUE(report->dlfm_unlinked.empty());

  host.reset();
  for (auto& d : dlfms) d->Stop();
}

}  // namespace
}  // namespace datalinks

// Deterministic named fail points for crash-recovery testing.
//
// The paper's central claim is that DLFM survives a failure at any instant:
// prepare-time hardening, idempotent phase-2 redelivery, presumed-abort
// indoubt resolution, and daemon restart processing (§3.3–§3.5, §4).  To
// test that systematically rather than with hand-picked crashes, production
// code is threaded with named fail points:
//
//   if (auto f = fault_->Hit(failpoints::kDlfmCommitBeforeHarden)) return *f;
//
// An unarmed point is a no-op (nullopt).  Tests arm a point with one of
// three actions:
//
//   kError  — the point returns a scripted Status (deadlocks, I/O errors);
//   kCrash  — the point returns kUnavailable and the injector enters the
//             crashed state: every later Hit() on the SAME injector also
//             fails, modelling a dead process whose threads do no further
//             work.  The test then harvests durable state via
//             SimulateCrash() and restarts the component;
//   kDelay  — the point sleeps on the caller's clock (race-window widening).
//
// One injector instance models one process (host database or one DLFM), so
// crashing a DLFM does not kill its peers.  Firing is deterministic:
// `skip` passes over the first N hits, `hits` bounds how many times the
// point fires (negative = every hit).
//
// Naming scheme: <process>.<operation>.<instant>, e.g.
// "host.commit.after_prepare", "dlfm.prepare.before_harden",
// "dlfm.copy.after_store".  The canonical list lives in `failpoints`; every
// point registers itself so tests (the crash matrix, the fuzzer) can
// enumerate the full set instead of keeping a parallel hardcoded list.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"

namespace datalinks {

namespace failpoints {

/// Register a fail-point name.  Called once per point at static-init time
/// via the inline constant definitions below; returns `name` so a constant
/// can be declared as `inline const char* kX = Register("...")`.  A name
/// that was already registered is not duplicated.
const char* Register(const char* name);

/// All registered fail-point names, sorted.  New points added anywhere in
/// the codebase show up here automatically — the crash matrix asserts that
/// every entry is either covered or explicitly skip-listed, and the fuzzer
/// draws its arming choices from this list.
std::vector<std::string> Registry();

// Host commit path (HostSession::Commit).
inline const char* kHostCommitAfterPrepare = Register("host.commit.after_prepare");
inline const char* kHostCommitAfterDecisionWrite =
    Register("host.commit.after_decision_write");
inline const char* kHostCommitBeforePhase2 = Register("host.commit.before_phase2");
inline const char* kHostCommitBetweenPhase2 = Register("host.commit.between_phase2");
// DLFM 2PC participant (DlfmServer).
inline const char* kDlfmPrepareBeforeHarden = Register("dlfm.prepare.before_harden");
inline const char* kDlfmPrepareAfterHarden = Register("dlfm.prepare.after_harden");
inline const char* kDlfmCommitAttempt = Register("dlfm.commit.attempt");
inline const char* kDlfmCommitBeforeHarden = Register("dlfm.commit.before_harden");
inline const char* kDlfmCommitAfterHarden = Register("dlfm.commit.after_harden");
inline const char* kDlfmAbortAttempt = Register("dlfm.abort.attempt");
// DLFM daemons.
inline const char* kDlfmHardenGroup = Register("dlfm.harden.group");
inline const char* kDlfmCopyStore = Register("dlfm.copy.store");
inline const char* kDlfmCopyAfterStore = Register("dlfm.copy.after_store");
inline const char* kDlfmDeleteGroupRound = Register("dlfm.dg.round");
// Embedded engine (sqldb).  The engine shares its process's injector — a
// "sqldb.*" point armed on a DLFM's injector fires inside that DLFM's local
// database; armed on the host injector it fires inside the host database.
inline const char* kSqldbWalForce = Register("sqldb.wal.force");
inline const char* kSqldbWalTornTail = Register("sqldb.wal.torn_tail");
inline const char* kSqldbCheckpointWrite = Register("sqldb.checkpoint.write");
inline const char* kSqldbCheckpointAuto = Register("sqldb.checkpoint.auto");
inline const char* kSqldbBtreeSplit = Register("sqldb.btree.split");
inline const char* kSqldbPageFlush = Register("sqldb.page.flush");
inline const char* kSqldbPagePartialWrite = Register("sqldb.page.partial_write");
}  // namespace failpoints

class FaultInjector {
 public:
  enum class Action : uint8_t { kError, kCrash, kDelay };

  struct Spec {
    Action action = Action::kError;
    /// kError: the status the fail point returns each time it fires.
    Status error = Status::IOError("injected fault");
    /// kDelay: sleep duration on the caller's clock.
    int64_t delay_micros = 0;
    /// Pass over this many hits before the point starts firing.
    int skip = 0;
    /// Fire this many times, then fall dormant.  Negative = every hit.
    int hits = 1;
  };

  /// Probe from production code.  nullopt = continue normally; a Status =
  /// the scripted failure (crash points return kUnavailable).  `clock` is
  /// only used by delay points.
  std::optional<Status> Hit(const char* point, Clock* clock = nullptr);

  void Arm(const std::string& point, Spec spec);
  void Disarm(const std::string& point);
  /// Disarm everything, clear the crashed state and all hit counts.
  void Reset();

  /// True once a kCrash point fired; every Hit() fails from then on.
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }
  std::string crash_point() const;

  /// Times the point was passed through (armed or not) since Reset().
  uint64_t HitCount(const std::string& point) const;
  /// Times the point actually triggered its armed action since Reset().
  uint64_t FiredCount(const std::string& point) const;

  /// Mirror per-point hit/fired counts into `registry` as
  /// `failpoint.hit.<point>` / `failpoint.fired.<point>` counters, so the
  /// metrics snapshot shows fuzz/fault coverage.  Counts recorded before
  /// binding are not replayed; Reset() clears local counts but registry
  /// counters are monotonic.
  void BindMetrics(std::shared_ptr<metrics::Registry> registry);

 private:
  // Registry counter for `prefix + point`, cached under mu_.
  metrics::Counter* CachedCounter(
      std::map<std::string, metrics::Counter*>* cache, const char* prefix,
      const std::string& point);

  mutable std::mutex mu_;
  std::map<std::string, Spec> armed_;
  std::map<std::string, uint64_t> counts_;
  std::map<std::string, uint64_t> fired_;
  std::shared_ptr<metrics::Registry> metrics_;
  std::map<std::string, metrics::Counter*> hit_counters_;
  std::map<std::string, metrics::Counter*> fired_counters_;
  std::atomic<bool> crashed_{false};
  std::string crash_point_;
};

}  // namespace datalinks

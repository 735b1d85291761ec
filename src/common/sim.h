// Deterministic simulation layer (DESIGN.md §11): a schedulable executor,
// a virtual clock, and simulation-aware blocking primitives.
//
// The FoundationDB-style contract: under a SimExecutor exactly ONE task
// runs at a time, every blocking operation (sleep, condition wait, lock
// contention, join) is a scheduling point, and the next runnable task is
// picked by a PRNG seeded from one uint64 — so the seed fully determines
// the interleaving, and recording the pick sequence makes any run exactly
// replayable.  Virtual time advances only when every task is blocked (the
// "time advances when idle" rule), which compresses second-scale timeouts
// (backup barriers, prepare timeouts, archive-retry backoff) into
// microseconds of wall clock.
//
// Tasks are fibers (user-space contexts) on the OS thread that calls
// SimExecutor::Run(): a scheduling point switches straight from the parking
// task to the picked one, so a pick costs a context switch, not a cross-CPU
// thread wakeup.  Thread-local state the codebase relies on (the current
// sim task, the ambient trace context) is saved and reinstalled per task
// at every switch.
//
// How components opt in:
//  - Code that SPAWNS concurrency takes an injected `Executor*`
//    (DlfmOptions::executor, HostOptions::executor, the fuzz harness).
//    The default RealExecutor spawns plain std::threads — production
//    behaviour is untouched.
//  - Code that BLOCKS does not need plumbing: sim::Mutex, sim::SharedMutex
//    and sim::CondVar discover the simulation through a thread-local
//    "current sim task" pointer.  On a real thread they delegate straight
//    to the std primitives (one TLS load + branch of overhead); on a sim
//    task they park the task in the scheduler instead of blocking the OS
//    thread.
//
// Soundness rule enforced by construction: a sim task must never block in
// the KERNEL on a lock whose holder has yielded to the scheduler — the
// holder shares the blocked OS thread and could never run again.  Hence
// every mutex that is ever held across a yield point (a WAL force, a
// page-pool I/O wait, an RPC call, a fail-point delay) must be a sim::
// type; leaf mutexes that never cover a yield can never even be contended
// under the one-at-a-time scheduler and may stay std::mutex.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/random.h"

namespace datalinks::sim {

class SimExecutor;

/// The executor the CURRENT thread's sim task belongs to, or nullptr when
/// running on a real (non-simulated) thread.  This is the hook the
/// blocking primitives use to discover the simulation.
SimExecutor* CurrentSimExecutor() noexcept;

// ---------------------------------------------------------------------------
// TaskHandle / Executor
// ---------------------------------------------------------------------------

/// A joinable task: either a real std::thread or a task owned by a
/// SimExecutor.  Join from a sim task parks the joiner in the scheduler.
/// Unlike std::thread, destroying a joinable handle joins (never
/// std::terminate) — every spawner in this codebase joins anyway.
class TaskHandle {
 public:
  TaskHandle() = default;
  explicit TaskHandle(std::thread t) : thread_(std::move(t)) {}
  TaskHandle(SimExecutor* exec, uint64_t task_id)
      : exec_(exec), task_id_(task_id), sim_joinable_(true) {}
  TaskHandle(TaskHandle&& o) noexcept { *this = std::move(o); }
  TaskHandle& operator=(TaskHandle&& o) noexcept;
  TaskHandle(const TaskHandle&) = delete;
  TaskHandle& operator=(const TaskHandle&) = delete;
  ~TaskHandle() {
    if (joinable()) join();
  }

  bool joinable() const { return thread_.joinable() || sim_joinable_; }
  void join();

 private:
  std::thread thread_;
  SimExecutor* exec_ = nullptr;
  uint64_t task_id_ = 0;
  bool sim_joinable_ = false;
};

/// Spawning interface injected into every component that would otherwise
/// create a raw std::thread.
class Executor {
 public:
  virtual ~Executor() = default;
  /// Starts a concurrent task.  `name` labels the task in sim-deadlock
  /// dumps; ignored by the real executor.
  virtual TaskHandle Spawn(std::string name, std::function<void()> fn) = 0;
  /// The clock tasks of this executor should sleep on.
  virtual Clock* clock() = 0;
};

/// Production executor: plain threads on the system clock.
class RealExecutor : public Executor {
 public:
  TaskHandle Spawn(std::string name, std::function<void()> fn) override {
    (void)name;
    return TaskHandle(std::thread(std::move(fn)));
  }
  Clock* clock() override { return SystemClock::Instance().get(); }
  static RealExecutor* Instance();
};

/// Resolves an optionally-injected executor to a usable one.
inline Executor* OrReal(Executor* e) {
  return e != nullptr ? e : static_cast<Executor*>(RealExecutor::Instance());
}

// ---------------------------------------------------------------------------
// SimExecutor
// ---------------------------------------------------------------------------

/// Virtual time owned by a SimExecutor.  NowMicros reads the simulated
/// clock; SleepForMicros parks the calling sim task until the clock
/// reaches the deadline.  On a non-sim thread (setup/teardown outside
/// Run()) a sleep simply advances the clock — nothing else is running.
class VirtualClock : public Clock {
 public:
  explicit VirtualClock(SimExecutor* exec) : exec_(exec) {}
  int64_t NowMicros() const override;
  void SleepForMicros(int64_t micros) override;

 private:
  SimExecutor* exec_;
};

class SimExecutor : public Executor {
 public:
  explicit SimExecutor(uint64_t seed);
  ~SimExecutor() override;
  SimExecutor(const SimExecutor&) = delete;
  SimExecutor& operator=(const SimExecutor&) = delete;

  /// Runs `root` as task 0 and schedules until EVERY task has finished
  /// (the root must stop whatever it spawned).  Callable once.
  void Run(std::function<void()> root);

  // Executor interface.  Spawn from a running sim task is NOT a
  // scheduling point (the spawner keeps running).
  TaskHandle Spawn(std::string name, std::function<void()> fn) override;
  Clock* clock() override { return &vclock_; }

  // ---- scheduling points (called from sim tasks, mostly via the
  //      primitives below) ----

  /// Re-enters the scheduler: the current task goes back to the runnable
  /// set and the PRNG picks the next task (possibly the same one).
  void Yield();
  /// Parks the current task until virtual now >= now + micros.
  void SleepCurrent(int64_t micros);
  /// Parks the current task on `key` until NotifyKey(key) or, when
  /// `deadline_micros` >= 0, until virtual time reaches the deadline.
  /// Returns true when notified, false when the deadline fired first.
  bool WaitOnKey(const void* key, int64_t deadline_micros);
  /// Wakes every task parked on `key` (they become runnable; the caller
  /// keeps running).  Safe to call from non-sim threads (no-op there
  /// unless the simulation is live, which setup code never overlaps).
  void NotifyKey(const void* key);
  /// Parks the current task until task `id` finishes.
  void JoinTask(uint64_t id);

  int64_t NowVirtualMicros() const { return now_.load(std::memory_order_acquire); }
  /// Clock advance for non-sim threads (setup code, VirtualClock fallback).
  void AdvanceVirtual(int64_t micros);

  // ---- schedule recording / replay ----

  /// Every scheduler pick, as an index into the id-sorted runnable set.
  /// Stable once Run() returned.
  const std::vector<uint32_t>& decisions() const { return decisions_; }
  /// Replays a recorded decision sequence: scheduler picks follow
  /// `decisions` until they run out or stop matching the runnable-set
  /// size; from there the seed's PRNG takes over and `replay_diverged()`
  /// turns true.  Call before Run().
  void SetReplay(std::vector<uint32_t> decisions);
  bool replay_diverged() const { return diverged_.load(std::memory_order_acquire); }

 private:
  friend class VirtualClock;

  enum class State { kRunnable, kRunning, kBlocked, kDone };
  enum class BlockKind { kNone, kSleep, kCond, kJoin };

  // A user-space execution context plus the thread-local state it owns
  // (defined in sim.cc).
  struct Fiber;

  struct Task {
    uint64_t id = 0;
    std::string name;
    SimExecutor* owner = nullptr;
    std::function<void()> fn;
    std::unique_ptr<Fiber> fiber;  // freed once the task has finished
    State state = State::kRunnable;
    BlockKind kind = BlockKind::kNone;
    int64_t deadline = -1;  // virtual wake time; -1 = none
    const void* key = nullptr;
    uint64_t join_target = 0;
    bool notified = false;   // cond wake cause: notify vs deadline
  };

  uint64_t SpawnLocked(std::string name, std::function<void()> fn,
                       std::unique_lock<std::mutex>& lk);
  static void FiberEntry(unsigned hi, unsigned lo);
  [[noreturn]] void TaskMain(Task* t);
  /// Picks the next task and marks it running; advances virtual time when
  /// nothing is runnable; aborts with a task dump on simulation deadlock.
  /// Returns nullptr once every task is done.  mu_ held.
  Task* ScheduleNextLocked(std::unique_lock<std::mutex>& lk);
  /// Schedules the next task and, unless it is `self`, switches to it;
  /// returns once `self` is picked again.  mu_ held on entry and exit.
  void ParkLocked(Task* self, std::unique_lock<std::mutex>& lk);
  /// Saves the caller's thread-local state into `from`, switches to `to`,
  /// and returns when `from` is switched back to.  mu_ not held.
  void SwitchTo(Fiber* from, Fiber* to);
  /// Reinstalls `self`'s thread-local state and releases the fiber of the
  /// task that finished just before this switch.  Runs after every switch.
  void OnResume(Fiber* self);
  /// Parks the current task with the given block reason and returns once
  /// it is scheduled again.
  void BlockCurrent(BlockKind kind, int64_t deadline, const void* key,
                    uint64_t join_target);
  [[noreturn]] void DeadlockAbortLocked();

  mutable std::mutex mu_;
  std::deque<std::unique_ptr<Task>> tasks_;  // index == task id
  std::atomic<int64_t> now_{0};
  Random rng_;
  VirtualClock vclock_;

  std::vector<uint32_t> decisions_;
  std::vector<uint32_t> replay_;
  size_t replay_pos_ = 0;
  bool replay_active_ = false;
  std::atomic<bool> diverged_{false};

  std::unique_ptr<Fiber> caller_;  // Run()'s own context while tasks run
  Task* finished_ = nullptr;       // task whose fiber awaits freeing
  std::condition_variable done_cv_;  // non-sim joins
};

// ---------------------------------------------------------------------------
// Simulation-aware blocking primitives
// ---------------------------------------------------------------------------
//
// Drop-in std::mutex / std::shared_mutex / std::condition_variable
// replacements (std-style member names, BasicLockable/SharedLockable, so
// std::lock_guard / unique_lock / shared_lock / scoped_lock all work).
// On a real thread they are the std primitive plus one TLS load; on a sim
// task, lock contention parks the task on the mutex address and unlock
// notifies it — no busy-wait, and virtual time can still advance while
// waiters are parked.

class Mutex {
 public:
  void lock();
  bool try_lock() { return mu_.try_lock(); }
  void unlock();

 private:
  std::mutex mu_;
};

class SharedMutex {
 public:
  void lock();
  bool try_lock() { return mu_.try_lock(); }
  void unlock();
  void lock_shared();
  bool try_lock_shared() { return mu_.try_lock_shared(); }
  void unlock_shared();

 private:
  std::shared_mutex mu_;
};

/// Condition variable usable with any sim or std lock type.  Under
/// simulation notify_one wakes ALL sim waiters (every wait site in this
/// codebase is a predicate loop, so spurious wakeups are already
/// tolerated); this keeps the scheduler's wakeup choice out of the
/// notify path and the decision log small.
class CondVar {
 public:
  template <class Lock>
  void wait(Lock& lk) {
    if (SimExecutor* e = CurrentSimExecutor()) {
      lk.unlock();
      // No lost-wakeup window: between the unlock and the park the
      // current task never yields, so no other task can run a notify.
      e->WaitOnKey(this, -1);
      lk.lock();
    } else {
      cv_.wait(lk);
    }
  }

  template <class Lock, class Pred>
  void wait(Lock& lk, Pred pred) {
    while (!pred()) wait(lk);
  }

  /// Bare timed wait; cv_status::timeout when the deadline fired first.
  /// The sim deadline lives on the executor's VIRTUAL clock.
  template <class Lock, class Rep, class Period>
  std::cv_status wait_for(Lock& lk, const std::chrono::duration<Rep, Period>& d) {
    if (SimExecutor* e = CurrentSimExecutor()) {
      const int64_t micros =
          std::chrono::duration_cast<std::chrono::microseconds>(d).count();
      lk.unlock();
      const bool notified = e->WaitOnKey(this, e->NowVirtualMicros() + micros);
      lk.lock();
      return notified ? std::cv_status::no_timeout : std::cv_status::timeout;
    }
    return cv_.wait_for(lk, d);
  }

  template <class Lock, class Rep, class Period, class Pred>
  bool wait_for(Lock& lk, const std::chrono::duration<Rep, Period>& d, Pred pred) {
    if (SimExecutor* e = CurrentSimExecutor()) {
      const int64_t micros =
          std::chrono::duration_cast<std::chrono::microseconds>(d).count();
      const int64_t deadline = e->NowVirtualMicros() + micros;
      while (!pred()) {
        if (e->NowVirtualMicros() >= deadline) return pred();
        lk.unlock();
        e->WaitOnKey(this, deadline);
        lk.lock();
      }
      return true;
    }
    return cv_.wait_for(lk, d, std::move(pred));
  }

  void notify_one() {
    if (SimExecutor* e = CurrentSimExecutor()) e->NotifyKey(this);
    cv_.notify_one();
  }
  void notify_all() {
    if (SimExecutor* e = CurrentSimExecutor()) e->NotifyKey(this);
    cv_.notify_all();
  }

 private:
  // _any: must wait on sim::Mutex locks, not just std::mutex.
  std::condition_variable_any cv_;
};

}  // namespace datalinks::sim

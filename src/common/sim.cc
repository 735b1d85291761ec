#include "common/sim.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

#include "common/trace.h"

#if defined(__SANITIZE_THREAD__)
#define DLX_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DLX_TSAN_FIBERS 1
#endif
#endif
#ifdef DLX_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace datalinks::sim {

namespace {
// The simulation discovery hook: installed by the fiber switch for the
// running sim task, null on every real thread.  g_task is the
// SimExecutor::Task* of the current task (opaque here; cast inside member
// functions).
thread_local SimExecutor* g_exec = nullptr;
thread_local void* g_task = nullptr;

// Usable stack of every sim task.  The mapping is committed lazily, page by
// page, so only what a task touches costs memory; a thread-sized reserve
// keeps the engine's deepest paths (and their larger TSan frames) clear of
// the guard page.
constexpr size_t kFiberStackBytes = 1 << 20;

size_t PageBytes() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

[[noreturn]] void FiberAbort(const char* what) {
  std::perror(what);
  std::abort();
}

// A task's mapping: one PROT_NONE guard page below the usable stack, so an
// overflow faults at once instead of corrupting a neighbouring mapping.
size_t MappingBytes() { return PageBytes() + kFiberStackBytes; }

// Most stacks a thread keeps for reuse once their tasks have finished.
constexpr size_t kCachedStacks = 64;

// Stacks of finished tasks, kept per OS thread for the next spawn.  A fresh
// mapping costs three syscalls plus a zero-filled page fault for every page
// the task touches, and a soak spawns ~41 tasks per scenario.
class StackCache {
 public:
  StackCache() = default;
  StackCache(const StackCache&) = delete;
  StackCache& operator=(const StackCache&) = delete;
  ~StackCache() {
    for (void* m : free_) munmap(m, MappingBytes());
  }

  void* Take() {
    if (!free_.empty()) {
      void* m = free_.back();
      free_.pop_back();
      return m;
    }
    void* m = mmap(nullptr, MappingBytes(), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (m == MAP_FAILED) FiberAbort("SimExecutor: fiber stack mmap");
    if (mprotect(m, PageBytes(), PROT_NONE) != 0) {
      FiberAbort("SimExecutor: fiber guard page mprotect");
    }
    return m;
  }

  void Give(void* m) {
    if (free_.size() < kCachedStacks) {
      free_.push_back(m);
    } else {
      munmap(m, MappingBytes());
    }
  }

 private:
  std::vector<void*> free_;
};

thread_local StackCache g_stacks;
}  // namespace

// One execution context.  A task fiber owns a guarded stack mapping (see
// StackCache); Run()'s caller gets a stackless Fiber that only records
// where to switch back to.  The thread-local state fields hold this
// context's values while it is switched out.
struct SimExecutor::Fiber {
  Fiber() = default;
  explicit Fiber(Task* t);
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  ucontext_t uc{};
  void* mapping = nullptr;  // guard page + stack; null for Run()'s caller
  void* tsan = nullptr;     // TSan's fiber handle (TSan builds only)
  SimExecutor* exec = nullptr;
  void* task = nullptr;
  trace::TraceContext* trace_ctx = nullptr;
};

SimExecutor::Fiber::Fiber(Task* t) : exec(t->owner), task(t) {
  mapping = g_stacks.Take();
  if (getcontext(&uc) != 0) FiberAbort("SimExecutor: getcontext");
  uc.uc_stack.ss_sp = static_cast<char*>(mapping) + PageBytes();
  uc.uc_stack.ss_size = kFiberStackBytes;
  uc.uc_link = nullptr;  // TaskMain never returns
  // makecontext passes int-sized arguments only: split the Task pointer.
  const auto bits = reinterpret_cast<uintptr_t>(t);
  makecontext(&uc, reinterpret_cast<void (*)()>(&SimExecutor::FiberEntry), 2,
              static_cast<unsigned>(bits >> 32), static_cast<unsigned>(bits));
#ifdef DLX_TSAN_FIBERS
  tsan = __tsan_create_fiber(0);
  __tsan_set_fiber_name(tsan, t->name.c_str());
#endif
}

SimExecutor::Fiber::~Fiber() {
  if (mapping == nullptr) return;  // Run()'s caller: nothing owned
  g_stacks.Give(mapping);
#ifdef DLX_TSAN_FIBERS
  __tsan_destroy_fiber(tsan);
#endif
}

SimExecutor* CurrentSimExecutor() noexcept { return g_exec; }

// ---------------------------------------------------------------------------
// TaskHandle
// ---------------------------------------------------------------------------

TaskHandle& TaskHandle::operator=(TaskHandle&& o) noexcept {
  if (this != &o) {
    if (joinable()) join();
    thread_ = std::move(o.thread_);
    exec_ = o.exec_;
    task_id_ = o.task_id_;
    sim_joinable_ = o.sim_joinable_;
    o.exec_ = nullptr;
    o.sim_joinable_ = false;
  }
  return *this;
}

void TaskHandle::join() {
  if (thread_.joinable()) {
    thread_.join();
    return;
  }
  if (sim_joinable_) {
    sim_joinable_ = false;
    exec_->JoinTask(task_id_);
  }
}

RealExecutor* RealExecutor::Instance() {
  static RealExecutor instance;
  return &instance;
}

// ---------------------------------------------------------------------------
// VirtualClock
// ---------------------------------------------------------------------------

int64_t VirtualClock::NowMicros() const { return exec_->NowVirtualMicros(); }

void VirtualClock::SleepForMicros(int64_t micros) {
  if (micros <= 0) return;
  if (g_exec == exec_) {
    exec_->SleepCurrent(micros);
  } else {
    // Setup/teardown code outside Run(): nothing else is scheduled, so a
    // sleep is just a clock advance (the pre-fix SimClock behaviour).
    exec_->AdvanceVirtual(micros);
  }
}

// ---------------------------------------------------------------------------
// SimExecutor
// ---------------------------------------------------------------------------

SimExecutor::SimExecutor(uint64_t seed)
    : rng_(seed * 0x9e3779b97f4a7c15ULL + 0x5eedULL), vclock_(this) {}

SimExecutor::~SimExecutor() = default;

uint64_t SimExecutor::SpawnLocked(std::string name, std::function<void()> fn,
                                  std::unique_lock<std::mutex>& lk) {
  (void)lk;
  auto task = std::make_unique<Task>();
  Task* t = task.get();
  t->id = tasks_.size();
  t->name = std::move(name);
  t->owner = this;
  t->fn = std::move(fn);
  t->state = State::kRunnable;
  // The fiber first runs when the scheduler picks it; creating it is not
  // a scheduling point.
  t->fiber = std::make_unique<Fiber>(t);
  tasks_.push_back(std::move(task));
  return t->id;
}

TaskHandle SimExecutor::Spawn(std::string name, std::function<void()> fn) {
  std::unique_lock<std::mutex> lk(mu_);
  const uint64_t id = SpawnLocked(std::move(name), std::move(fn), lk);
  return TaskHandle(this, id);
}

void SimExecutor::FiberEntry(unsigned hi, unsigned lo) {
  Task* t = reinterpret_cast<Task*>((static_cast<uintptr_t>(hi) << 32) | lo);
  t->owner->TaskMain(t);
}

void SimExecutor::TaskMain(Task* t) {
  OnResume(t->fiber.get());
  t->fn();
  t->fn = nullptr;
  std::unique_lock<std::mutex> lk(mu_);
  t->state = State::kDone;
  for (auto& o : tasks_) {
    if (o->state == State::kBlocked && o->kind == BlockKind::kJoin &&
        o->join_target == t->id) {
      o->state = State::kRunnable;
      o->kind = BlockKind::kNone;
    }
  }
  done_cv_.notify_all();  // non-sim joiners poll per-task completion
  // A fiber cannot free the stack it runs on: the next context does.
  finished_ = t;
  Task* next = ScheduleNextLocked(lk);
  lk.unlock();
  SwitchTo(t->fiber.get(), next != nullptr ? next->fiber.get() : caller_.get());
  std::abort();  // a finished task is never switched back to
}

void SimExecutor::SwitchTo(Fiber* from, Fiber* to) {
  from->exec = g_exec;
  from->task = g_task;
  from->trace_ctx = trace::CurrentTraceContext();
#ifdef DLX_TSAN_FIBERS
  __tsan_switch_to_fiber(to->tsan, 0);
#endif
  if (swapcontext(&from->uc, &to->uc) != 0) {
    FiberAbort("SimExecutor: swapcontext");
  }
  OnResume(from);
}

void SimExecutor::OnResume(Fiber* self) {
  g_exec = self->exec;
  g_task = self->task;
  trace::SetCurrentTraceContext(self->trace_ctx);
  if (finished_ != nullptr) {
    finished_->fiber.reset();
    finished_ = nullptr;
  }
}

void SimExecutor::ParkLocked(Task* self, std::unique_lock<std::mutex>& lk) {
  // Never null: `self` is not done, so the run is not over either.
  Task* next = ScheduleNextLocked(lk);
  if (next == self) return;
  lk.unlock();
  SwitchTo(self->fiber.get(), next->fiber.get());
  lk.lock();
}

SimExecutor::Task* SimExecutor::ScheduleNextLocked(
    std::unique_lock<std::mutex>& lk) {
  (void)lk;
  for (;;) {
    std::vector<Task*> runnable;
    size_t done = 0;
    for (auto& t : tasks_) {
      if (t->state == State::kRunnable) {
        runnable.push_back(t.get());
      } else if (t->state == State::kDone) {
        ++done;
      }
    }
    if (!runnable.empty()) {
      size_t idx = 0;
      if (replay_active_) {
        if (replay_pos_ < replay_.size() &&
            replay_[replay_pos_] < runnable.size()) {
          idx = replay_[replay_pos_++];
        } else {
          // The recorded schedule stopped matching this binary's behaviour
          // (stale artifact): fall back to the seed's PRNG so the run
          // still terminates, and surface the divergence to the caller.
          diverged_.store(true, std::memory_order_release);
          replay_active_ = false;
          idx = runnable.size() == 1 ? 0 : rng_.Uniform(runnable.size());
        }
      } else {
        idx = runnable.size() == 1 ? 0 : rng_.Uniform(runnable.size());
      }
      decisions_.push_back(static_cast<uint32_t>(idx));
      Task* next = runnable[idx];
      next->state = State::kRunning;
      return next;
    }
    if (done == tasks_.size()) {
      if (replay_active_ && replay_pos_ < replay_.size()) {
        diverged_.store(true, std::memory_order_release);  // leftover decisions
      }
      return nullptr;
    }
    // Nobody is runnable: time advances when idle.  Jump the virtual
    // clock to the nearest deadline and wake everything due.
    int64_t min_deadline = -1;
    for (auto& t : tasks_) {
      if (t->state == State::kBlocked && t->deadline >= 0 &&
          (min_deadline < 0 || t->deadline < min_deadline)) {
        min_deadline = t->deadline;
      }
    }
    if (min_deadline < 0) DeadlockAbortLocked();
    if (min_deadline > now_.load(std::memory_order_acquire)) {
      now_.store(min_deadline, std::memory_order_release);
    }
    for (auto& t : tasks_) {
      if (t->state == State::kBlocked && t->deadline >= 0 &&
          t->deadline <= now_.load(std::memory_order_acquire)) {
        t->state = State::kRunnable;
        t->kind = BlockKind::kNone;
        t->notified = false;  // deadline wake, not a notify
      }
    }
  }
}

void SimExecutor::DeadlockAbortLocked() {
  std::fprintf(stderr,
               "SimExecutor: simulation deadlock — every task is blocked and "
               "no deadline is pending (virtual now=%lld)\n",
               static_cast<long long>(now_.load()));
  for (const auto& t : tasks_) {
    const char* state = t->state == State::kDone      ? "done"
                        : t->state == State::kBlocked ? "blocked"
                        : t->state == State::kRunning ? "running"
                                                      : "runnable";
    const char* kind = t->kind == BlockKind::kSleep  ? "sleep"
                       : t->kind == BlockKind::kCond ? "cond"
                       : t->kind == BlockKind::kJoin ? "join"
                                                     : "-";
    std::fprintf(stderr,
                 "  task %llu '%s': %s/%s deadline=%lld key=%p join=%llu\n",
                 static_cast<unsigned long long>(t->id), t->name.c_str(), state,
                 kind, static_cast<long long>(t->deadline), t->key,
                 static_cast<unsigned long long>(t->join_target));
  }
  std::abort();
}

void SimExecutor::BlockCurrent(BlockKind kind, int64_t deadline,
                               const void* key, uint64_t join_target) {
  Task* t = static_cast<Task*>(g_task);
  std::unique_lock<std::mutex> lk(mu_);
  t->state = State::kBlocked;
  t->kind = kind;
  t->deadline = deadline;
  t->key = key;
  t->join_target = join_target;
  t->notified = false;
  ParkLocked(t, lk);
  t->kind = BlockKind::kNone;
  t->deadline = -1;
  t->key = nullptr;
}

void SimExecutor::Yield() {
  Task* t = static_cast<Task*>(g_task);
  std::unique_lock<std::mutex> lk(mu_);
  t->state = State::kRunnable;
  ParkLocked(t, lk);
}

void SimExecutor::SleepCurrent(int64_t micros) {
  if (micros <= 0) {
    Yield();
    return;
  }
  BlockCurrent(BlockKind::kSleep,
               now_.load(std::memory_order_acquire) + micros, nullptr, 0);
}

bool SimExecutor::WaitOnKey(const void* key, int64_t deadline_micros) {
  Task* t = static_cast<Task*>(g_task);
  BlockCurrent(BlockKind::kCond, deadline_micros, key, 0);
  return t->notified;
}

void SimExecutor::NotifyKey(const void* key) {
  std::unique_lock<std::mutex> lk(mu_);
  for (auto& t : tasks_) {
    if (t->state == State::kBlocked && t->kind == BlockKind::kCond &&
        t->key == key) {
      t->state = State::kRunnable;
      t->kind = BlockKind::kNone;
      t->deadline = -1;
      t->key = nullptr;
      t->notified = true;
    }
  }
}

void SimExecutor::JoinTask(uint64_t id) {
  if (g_exec == this) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (tasks_[id]->state == State::kDone) return;
    }
    // No race: no other task runs between the check and the park, so the
    // target cannot finish in between.
    BlockCurrent(BlockKind::kJoin, -1, nullptr, id);
    return;
  }
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return tasks_[id]->state == State::kDone; });
}

void SimExecutor::AdvanceVirtual(int64_t micros) {
  now_.fetch_add(micros, std::memory_order_acq_rel);
}

void SimExecutor::SetReplay(std::vector<uint32_t> decisions) {
  replay_ = std::move(decisions);
  replay_pos_ = 0;
  replay_active_ = true;
}

void SimExecutor::Run(std::function<void()> root) {
  std::unique_lock<std::mutex> lk(mu_);
  SpawnLocked("root", std::move(root), lk);
  Task* first = ScheduleNextLocked(lk);
  lk.unlock();
  caller_ = std::make_unique<Fiber>();
#ifdef DLX_TSAN_FIBERS
  caller_->tsan = __tsan_get_current_fiber();
#endif
  // Returns once the last task has finished and switched back here.
  SwitchTo(caller_.get(), first->fiber.get());
}

// ---------------------------------------------------------------------------
// Blocking primitives
// ---------------------------------------------------------------------------

void Mutex::lock() {
  SimExecutor* e = g_exec;
  if (e == nullptr) {
    mu_.lock();
    return;
  }
  // Park on the mutex address; the holder's unlock() notifies it.  The
  // retry loop (rather than a handoff) keeps real and sim semantics
  // identical: whoever is scheduled first after the wake wins the lock.
  while (!mu_.try_lock()) e->WaitOnKey(this, -1);
}

void Mutex::unlock() {
  mu_.unlock();
  if (SimExecutor* e = g_exec) e->NotifyKey(this);
}

void SharedMutex::lock() {
  SimExecutor* e = g_exec;
  if (e == nullptr) {
    mu_.lock();
    return;
  }
  while (!mu_.try_lock()) e->WaitOnKey(this, -1);
}

void SharedMutex::unlock() {
  mu_.unlock();
  if (SimExecutor* e = g_exec) e->NotifyKey(this);
}

void SharedMutex::lock_shared() {
  SimExecutor* e = g_exec;
  if (e == nullptr) {
    mu_.lock_shared();
    return;
  }
  while (!mu_.try_lock_shared()) e->WaitOnKey(this, -1);
}

void SharedMutex::unlock_shared() {
  mu_.unlock_shared();
  if (SimExecutor* e = g_exec) e->NotifyKey(this);
}

}  // namespace datalinks::sim

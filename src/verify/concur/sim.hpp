// Deterministic concurrency model checker: controlled scheduler + shim
// primitives (sim::mutex / sim::condvar / sim::atomic / sim::var /
// sim::thread) exploring every inequivalent interleaving of a bounded
// program via stateless DFS with dynamic partial-order reduction.
//
// Semantics: executions are sequentially consistent interleavings of the
// *visible* operations (atomic ops, mutex ops, condvar ops, joins), and a
// FastTrack-style vector-clock race detector checks every sim::var access
// against the happens-before order induced by
//   - mutex release -> subsequent acquire of the same mutex,
//   - atomic release-store -> acquire-load that reads the release sequence
//     (relaxed RMWs continue a release sequence; a relaxed store resets
//     it, exactly the C++ rule the kRelaxedCompletion mutation trips),
//   - thread spawn -> child start, child end -> join.
// Relaxed operations create NO happens-before edge.  By the data-race
// -freedom theorem, a program whose SC executions are all race-free and
// assertion-clean has only SC behaviours under the full C++ model — so SC
// exploration plus race detection is a sound check for the protocol,
// without simulating weak-memory value speculation (DESIGN.md §14).
//
// Scheduling: each simulated thread is a ucontext fiber.  A thread runs
// until it *declares* a visible operation, then control returns to the
// scheduler, which picks the next thread among the enabled ones (DFS
// order, or the DPOR backtrack choice on re-execution).  Classic
// Flanagan–Godefroid backtrack sets prune interleavings that only reorder
// independent operations.  Deadlocks (no enabled thread, unfinished
// threads) and lost wakeups are detected structurally.
//
// Not thread-safe: one exploration at a time, on one OS thread.  Under
// ThreadSanitizer the fiber switches confuse the runtime's shadow stack,
// so exploration reports `supported() == false` and callers skip (the
// production backend is what TSan builds exercise).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"

namespace flymon::verify::concur {

/// Exploration limits and knobs.
struct ExploreOptions {
  /// Stop after this many executions (0 = unlimited).  A hit is reported
  /// as `complete == false`, never as silent success.
  std::uint64_t max_executions = 1'000'000;
  /// Per-execution step bound; exceeding it is an error (livelock guard).
  std::uint64_t max_steps = 100'000;
  /// Keep at most this many trailing transitions in the error trace.
  std::size_t trace_tail = 64;
};

/// Outcome of one bounded exploration.
struct ExploreResult {
  bool failed = false;     ///< an execution hit a race/assertion/deadlock
  bool complete = false;   ///< every inequivalent interleaving was explored
  std::uint64_t executions = 0;  ///< executions actually run
  std::uint64_t steps = 0;       ///< visible transitions across all of them
  std::string error;             ///< first failure, empty when !failed
  std::vector<std::string> trace;  ///< trailing schedule of the failing run

  /// Clean pass: explored everything, found nothing.
  bool ok() const noexcept { return complete && !failed; }
};

/// True when the checker can run in this build (ucontext fibers are
/// incompatible with ThreadSanitizer's shadow stack).
bool checker_supported() noexcept;

/// Explore every inequivalent interleaving of `body`.  `body` is re-run
/// from scratch once per execution, so it must rebuild its state each call
/// and synchronise exclusively through the sim:: primitives; it executes
/// as simulated thread 0 and may spawn sim::thread workers.
ExploreResult explore(const ExploreOptions& opts,
                      const std::function<void()>& body);

namespace sim {

/// Maximum simultaneously-live simulated threads per execution.
inline constexpr std::size_t kMaxThreads = 12;

namespace detail {

/// Happens-before clock: one component per simulated thread.
struct VectorClock {
  std::uint32_t c[kMaxThreads] = {};
  void join(const VectorClock& o) noexcept {
    for (std::size_t i = 0; i < kMaxThreads; ++i) {
      if (o.c[i] > c[i]) c[i] = o.c[i];
    }
  }
  /// this ⊑ o (every component ordered before).
  bool le(const VectorClock& o) const noexcept {
    for (std::size_t i = 0; i < kMaxThreads; ++i) {
      if (c[i] > o.c[i]) return false;
    }
    return true;
  }
  void clear() noexcept {
    for (std::size_t i = 0; i < kMaxThreads; ++i) c[i] = 0;
  }
};

/// Per-atomic-object synchronization state shared with the scheduler.
struct AtomicState {
  const char* name;
  VectorClock msg;  ///< release-sequence clock readers acquire from
};

/// Per-mutex state.
struct MutexState {
  const char* name;
  int owner = -1;   ///< simulated tid, -1 = free
  VectorClock clock;  ///< released-with clock, acquired by the next owner
};

/// Per-condvar state.
struct CondVarState {
  const char* name;
};

/// Per-plain-location race-detector state.
struct VarState {
  const char* name;
  VectorClock last_write;  ///< clock of the last writer at write time
  VectorClock reads;       ///< component t = thread t's clock at its last read
  int last_writer = -1;
};

// Scheduler entry points used by the primitive wrappers below.  They
// declare the operation, yield to the scheduler, and (once granted) apply
// the happens-before bookkeeping; the caller then performs the value
// operation — safe because nothing else runs between grant and the next
// declaration (cooperative scheduling).
enum class AtomicOp : std::uint8_t { kLoad, kStore, kRmw };
void atomic_step(AtomicState& st, AtomicOp op, std::memory_order mo);
void mutex_lock(MutexState& st);
bool mutex_try_lock(MutexState& st);
void mutex_unlock(MutexState& st);
void condvar_wait(CondVarState& cv, MutexState& mu);
void condvar_notify(CondVarState& cv, bool all);
void var_read(VarState& st);
void var_write(VarState& st);
int thread_spawn(std::function<void()> fn);
void thread_join(int tid);
void check_failed(const char* msg);

}  // namespace detail

/// Model invariant.  A failing check aborts the execution and reports the
/// message (with the failing schedule) through ExploreResult.
inline void check(bool cond, const char* msg) {
  if (!cond) detail::check_failed(msg);
}

/// Simulated std::atomic<T>.  Memory orders shape the happens-before
/// edges exactly as in the C++ model (see file header); values follow the
/// explored SC interleaving.
template <class T>
class atomic {
 public:
  atomic() = default;
  explicit atomic(T v) : value_(v) {}
  atomic(const atomic&) = delete;
  atomic& operator=(const atomic&) = delete;

  void set_name(const char* name) noexcept { st_.name = name; }

  T load(std::memory_order mo = std::memory_order_seq_cst) const {
    detail::atomic_step(st_, detail::AtomicOp::kLoad, mo);
    return value_;
  }
  void store(T v, std::memory_order mo = std::memory_order_seq_cst) {
    detail::atomic_step(st_, detail::AtomicOp::kStore, mo);
    value_ = v;
  }
  T exchange(T v, std::memory_order mo = std::memory_order_seq_cst) {
    detail::atomic_step(st_, detail::AtomicOp::kRmw, mo);
    T old = value_;
    value_ = v;
    return old;
  }
  T fetch_add(T v, std::memory_order mo = std::memory_order_seq_cst) {
    detail::atomic_step(st_, detail::AtomicOp::kRmw, mo);
    T old = value_;
    value_ = static_cast<T>(value_ + v);
    return old;
  }
  T fetch_sub(T v, std::memory_order mo = std::memory_order_seq_cst) {
    detail::atomic_step(st_, detail::AtomicOp::kRmw, mo);
    T old = value_;
    value_ = static_cast<T>(value_ - v);
    return old;
  }

 private:
  T value_{};
  mutable detail::AtomicState st_{"atomic", {}};
};

/// Simulated mutex.  The optional name labels the mutex in deadlock and
/// misuse reports ("T1 mutex_lock('exec.submit_mu')").
class FLYMON_CAPABILITY("mutex") mutex {
 public:
  mutex() : st_{nullptr, -1, {}} {}
  explicit mutex(const char* name) : st_{name, -1, {}} {}
  mutex(const mutex&) = delete;
  mutex& operator=(const mutex&) = delete;

  void lock() FLYMON_ACQUIRE() { detail::mutex_lock(st_); }
  bool try_lock() FLYMON_TRY_ACQUIRE(true) {
    return detail::mutex_try_lock(st_);
  }
  void unlock() FLYMON_RELEASE() { detail::mutex_unlock(st_); }
  const char* name() const noexcept { return st_.name; }

 private:
  friend class condvar;
  detail::MutexState st_;
};

/// Scoped sim::mutex lock (the SimSync::Lock type).
class FLYMON_SCOPED_CAPABILITY lock_guard {
 public:
  explicit lock_guard(mutex& mu) FLYMON_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  /// noexcept(false): the unlock yields to the scheduler, and a fiber
  /// parked in that yield is unwound with an exception when its execution
  /// is aborted (failure elsewhere, sleep-set prune, teardown).  A default
  /// noexcept destructor would turn that unwind into std::terminate.
  ~lock_guard() noexcept(false) FLYMON_RELEASE() { mu_.unlock(); }
  lock_guard(const lock_guard&) = delete;
  lock_guard& operator=(const lock_guard&) = delete;

 private:
  mutex& mu_;
};

/// Simulated condition variable with exact lost-wakeup semantics (no
/// spurious wakeups: a waiter resumes only after a notify, so a model
/// whose waits depend on a dropped notify deadlocks — detectably).
class condvar {
 public:
  condvar() : st_{nullptr} {}
  explicit condvar(const char* name) : st_{name} {}
  condvar(const condvar&) = delete;
  condvar& operator=(const condvar&) = delete;

  /// Caller must hold `mu`; atomically releases it and blocks, then
  /// reacquires before returning (the reacquire is its own transition).
  void wait(mutex& mu) FLYMON_REQUIRES(mu) {
    detail::condvar_wait(st_, mu.st_);
  }
  void notify_one() { detail::condvar_notify(st_, false); }
  void notify_all() { detail::condvar_notify(st_, true); }

 private:
  detail::CondVarState st_;
};

/// Plain (non-atomic) shared location, checked for data races on every
/// access against the happens-before order.  Unsynchronised concurrent
/// access — at least one side a write — fails the execution.
template <class T>
class var {
 public:
  var() = default;
  explicit var(const char* name, T v = T{}) : value_(v) { st_.name = name; }
  var(const var&) = delete;
  var& operator=(const var&) = delete;

  T read() const {
    detail::var_read(st_);
    return value_;
  }
  void write(T v) {
    detail::var_write(st_);
    value_ = v;
  }

 private:
  T value_{};
  mutable detail::VarState st_{"var", {}, {}, -1};
};

/// Simulated thread.  Join is mandatory before destruction (checked).
class thread {
 public:
  template <class F>
  explicit thread(F&& fn) : tid_(detail::thread_spawn(std::forward<F>(fn))) {}
  thread(const thread&) = delete;
  thread& operator=(const thread&) = delete;
  /// noexcept(false): the missing-join check may abort the execution (see
  /// lock_guard::~lock_guard).
  ~thread() noexcept(false) {
    sim::check(tid_ < 0, "sim::thread destroyed without join");
  }

  void join() {
    detail::thread_join(tid_);
    tid_ = -1;
  }

 private:
  int tid_;
};

}  // namespace sim

/// The model-checker sync backend for the exec protocol templates
/// (exec::BasicPlanCell, exec::JobControl): same code, controlled
/// primitives.
struct SimSync {
  using Mutex = sim::mutex;
  using Lock = sim::lock_guard;
  template <class T>
  using Atomic = sim::atomic<T>;
  template <class T>
  using Cell = sim::var<T>;
};

}  // namespace flymon::verify::concur

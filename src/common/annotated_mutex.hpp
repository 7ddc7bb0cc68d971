// std::mutex wrapped as a Clang thread-safety `capability`, plus the
// matching scoped lock and a condition-variable wrapper the analysis can
// follow.  libstdc++'s std::mutex carries no capability attribute, so
// FLYMON_GUARDED_BY(some_std_mutex) would be inert; guarding against this
// wrapper makes `clang++ -Wthread-safety` actually prove the lock
// discipline (see thread_annotations.hpp for the CI wiring).
//
// CondVar pairs with Mutex without surrendering the annotation: wait()
// requires the capability and re-holds it on return.  Internally it adopts
// the already-locked std::mutex, so the thread-safety analysis never sees
// an unannotated unlock (the classic reason cv mutexes used to stay
// std::mutex — see the §13 history in DESIGN.md).
#pragma once

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.hpp"

namespace flymon::common {

class FLYMON_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() FLYMON_ACQUIRE() { mu_.lock(); }
  void unlock() FLYMON_RELEASE() { mu_.unlock(); }
  bool try_lock() FLYMON_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// std::lock_guard for Mutex, visible to the thread-safety analysis.
class FLYMON_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) FLYMON_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() FLYMON_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable for Mutex.  wait() must be called with `mu` held
/// (enforced by FLYMON_REQUIRES); the capability is conceptually held
/// across the wait — the internal release/re-acquire is invisible to the
/// thread-safety analysis, which is exactly the semantics a condition wait
/// has for lock-order purposes (nothing new is acquired while asleep).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) FLYMON_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // caller still owns the capability
  }

  template <class Predicate>
  void wait(Mutex& mu, Predicate pred) FLYMON_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk, std::move(pred));
    lk.release();
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace flymon::common

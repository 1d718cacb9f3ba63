// Annotated synchronization primitives: the only lock types genlink
// code outside common/ is allowed to own.
//
// The standard library's std::mutex / std::shared_mutex carry no
// thread-safety attributes on libstdc++, so state they guard is
// invisible to `clang -Wthread-safety` — and tools/genlink_lint.py
// therefore rejects raw standard mutex members outside common/. These
// wrappers restore the checking:
//
//   * Mutex / MutexLock       — std::mutex as an annotated capability
//     with an RAII guard. CondVar pairs with MutexLock for waits; the
//     predicate is written as a plain while-loop in the caller so the
//     analysis sees every guarded read under the lock.
//   * PhaseRole / PhaseGuard  — a zero-cost "role" capability (clang's
//     role-based discipline pattern) for state that is protected by
//     *phase structure* rather than by a lock: the evaluation engine's
//     caches are touched only in the serial phases between parallel
//     sections, and marking them GENLINK_GUARDED_BY(serial_phase_)
//     turns a cache access from inside a worker task into a compile
//     error instead of a data race.
//
// There is no reader/writer lock: state that many threads read while
// one thread replaces it is published as an immutable snapshot behind
// an atomic shared_ptr (MatcherIndex generations, LiveCorpus epochs),
// so readers take no lock at all.
//
// Lock hierarchy and which state each capability guards:
// docs/CONCURRENCY.md.

#ifndef GENLINK_COMMON_MUTEX_H_
#define GENLINK_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace genlink {

/// std::mutex as an annotated capability.
class GENLINK_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() GENLINK_ACQUIRE() { mutex_.lock(); }
  void Unlock() GENLINK_RELEASE() { mutex_.unlock(); }
  bool TryLock() GENLINK_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mutex_;
};

/// RAII guard over Mutex; the annotated stand-in for std::lock_guard.
class GENLINK_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) GENLINK_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.Lock();
  }
  ~MutexLock() GENLINK_RELEASE() { mutex_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  Mutex& mutex_;
};

/// Condition variable paired with Mutex/MutexLock. No predicate
/// overload on purpose: a predicate lambda is analyzed as a separate
/// function that does not hold the lock, so guarded reads inside it
/// would (rightly) fail -Wthread-safety. Callers spell the loop out:
///
///   MutexLock lock(mutex_);
///   while (!condition_over_guarded_state) cv_.Wait(lock);
class CondVar {
 public:
  /// Atomically releases `lock`'s mutex, waits, and reacquires it
  /// before returning. The capability is held again on return, which
  /// is what the (lack of an) annotation says: from the analysis's
  /// point of view the lock never left this scope.
  void Wait(MutexLock& lock) {
    std::unique_lock<std::mutex> native(lock.mutex_.mutex_, std::adopt_lock);
    cv_.wait(native);
    native.release();  // ownership returns to `lock`
  }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// A zero-cost capability for phase-structured code (clang's
/// role-based discipline pattern): Acquire/Release move no bits, they
/// only tell the analysis which stretches of a function are "the
/// serial phase". State marked GENLINK_GUARDED_BY(role) can then only
/// be touched where the role is held — a worker-task lambda, analyzed
/// as its own function, does not hold it, so a cache or counter access
/// from inside a parallel section becomes a -Wthread-safety error.
/// This encodes (not replaces) the engine's determinism discipline:
/// caches are read/written only between parallel sections, never from
/// them.
class GENLINK_CAPABILITY("role") PhaseRole {
 public:
  PhaseRole() = default;
  PhaseRole(const PhaseRole&) = delete;
  PhaseRole& operator=(const PhaseRole&) = delete;

  void Acquire() GENLINK_ACQUIRE() {}
  void Release() GENLINK_RELEASE() {}
};

/// RAII scope of a PhaseRole (one serial stretch).
class GENLINK_SCOPED_CAPABILITY PhaseGuard {
 public:
  explicit PhaseGuard(PhaseRole& role) GENLINK_ACQUIRE(role) : role_(role) {
    role_.Acquire();
  }
  ~PhaseGuard() GENLINK_RELEASE() { role_.Release(); }

  PhaseGuard(const PhaseGuard&) = delete;
  PhaseGuard& operator=(const PhaseGuard&) = delete;

 private:
  PhaseRole& role_;
};

}  // namespace genlink

#endif  // GENLINK_COMMON_MUTEX_H_

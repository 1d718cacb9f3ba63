// A small fixed-size thread pool with a parallel-for helper.
//
// GenLink evaluates the fitness of every rule in a population each
// generation; those evaluations are independent and dominate runtime, so
// they are dispatched through this pool (the paper notes tournament
// selection was chosen partly because it is easy to parallelize).
//
// Thread-safety: ParallelFor may be called from any number of threads
// at once on one pool — every serve worker's MatchBatch and a WithRule
// compile share a corpus's pool. Each call keeps its completion and
// error state on its own stack, so concurrent calls only interleave
// their tasks in the shared queue
// (tests/thread_pool_test.cc). A task must not call back into its own
// pool: it would block a worker waiting for tasks queued behind it.
// The task queue and the shutdown flag are guarded by `mutex_` and
// annotated for clang -Wthread-safety (common/thread_annotations.h);
// see docs/CONCURRENCY.md for the lock hierarchy.
//
// Exceptions: a task that throws does not kill the worker or poison
// the pool. ParallelFor runs *every* index regardless of failures,
// records the exception thrown by the smallest failing index, and
// rethrows it after the whole range has been processed — the same
// exception for any thread count, keeping error paths as deterministic
// as success paths. The pool stays usable afterwards
// (tests/thread_pool_test.cc).

#ifndef GENLINK_COMMON_THREAD_POOL_H_
#define GENLINK_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace genlink {

/// Fixed-size worker pool. Tasks are `void()` closures; `ParallelFor`
/// blocks until the whole index range has been processed.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (0 means
  /// hardware_concurrency, minimum 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Runs `fn(i)` for every i in [0, count), distributing chunks over the
  /// workers, and returns when all indices are done. Runs inline when the
  /// pool has a single worker or `count` is small. If any `fn(i)` throws,
  /// every other index still runs and the smallest failing index's
  /// exception is rethrown here.
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn);

 private:
  void Submit(std::function<void()> task);
  void WorkerLoop();

  std::vector<std::thread> threads_;
  Mutex mutex_;
  CondVar task_available_;
  std::queue<std::function<void()>> tasks_ GENLINK_GUARDED_BY(mutex_);
  bool shutting_down_ GENLINK_GUARDED_BY(mutex_) = false;
};

}  // namespace genlink

#endif  // GENLINK_COMMON_THREAD_POOL_H_

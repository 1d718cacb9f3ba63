#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>

namespace genlink {
namespace {

/// Collects the exception of the smallest failing index across the
/// tasks of one parallel call, so the exception rethrown to the caller
/// is the same no matter how the indices were scheduled.
class FirstErrorCollector {
 public:
  /// Records std::current_exception() for index `i`; keeps the one
  /// with the smallest index.
  void Record(size_t i) noexcept {
    std::exception_ptr error = std::current_exception();
    MutexLock lock(mutex_);
    if (i < index_) {
      index_ = i;
      error_ = error;
    }
  }

  /// Rethrows the recorded exception, if any. Call after every task of
  /// the parallel call has finished.
  void Rethrow() {
    MutexLock lock(mutex_);
    if (error_ != nullptr) std::rethrow_exception(error_);
  }

 private:
  Mutex mutex_;
  size_t index_ GENLINK_GUARDED_BY(mutex_) =
      std::numeric_limits<size_t>::max();
  std::exception_ptr error_ GENLINK_GUARDED_BY(mutex_);
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.NotifyAll();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    tasks_.push(std::move(task));
  }
  task_available_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!shutting_down_ && tasks_.empty()) task_available_.Wait(lock);
      if (tasks_.empty()) return;  // shutting down
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    // Tasks are exception-free by construction: the parallel helpers
    // wrap user code in a try/catch (FirstErrorCollector), so nothing
    // can escape here and kill the worker.
    task();
  }
}

void ThreadPool::ParallelFor(size_t count, const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  FirstErrorCollector errors;
  auto run_index = [&](size_t i) {
    try {
      fn(i);
    } catch (...) {
      errors.Record(i);
    }
  };
  const size_t workers = threads_.size();
  if (workers <= 1 || count < 2 * workers) {
    for (size_t i = 0; i < count; ++i) run_index(i);
    errors.Rethrow();
    return;
  }
  // Static chunking: each worker claims a contiguous slice. Fitness costs
  // are roughly uniform across a population, so static split is adequate
  // and avoids per-index synchronization.
  const size_t num_chunks = workers;
  const size_t chunk = (count + num_chunks - 1) / num_chunks;
  std::atomic<size_t> remaining(num_chunks);
  Mutex done_mutex;
  CondVar done_cv;
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t begin = c * chunk;
    const size_t end = std::min(count, begin + chunk);
    Submit([&, begin, end] {
      for (size_t i = begin; i < end; ++i) run_index(i);
      // Count down under done_mutex: the caller can only see zero (and
      // return, destroying done_mutex and done_cv) once the last task
      // has released the mutex.
      MutexLock lock(done_mutex);
      if (remaining.fetch_sub(1) == 1) done_cv.NotifyOne();
    });
  }
  {
    MutexLock lock(done_mutex);
    while (remaining.load() != 0) done_cv.Wait(lock);
  }
  errors.Rethrow();
}

void ThreadPool::ParallelForEach(size_t count,
                                 const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  FirstErrorCollector errors;
  auto run_index = [&](size_t i) {
    try {
      fn(i);
    } catch (...) {
      errors.Record(i);
    }
  };
  if (threads_.size() <= 1 || count == 1) {
    for (size_t i = 0; i < count; ++i) run_index(i);
    errors.Rethrow();
    return;
  }
  std::atomic<size_t> remaining(count);
  Mutex done_mutex;
  CondVar done_cv;
  for (size_t i = 0; i < count; ++i) {
    Submit([&, i] {
      run_index(i);
      // Under done_mutex for the same reason as in ParallelFor.
      MutexLock lock(done_mutex);
      if (remaining.fetch_sub(1) == 1) done_cv.NotifyOne();
    });
  }
  {
    MutexLock lock(done_mutex);
    while (remaining.load() != 0) done_cv.Wait(lock);
  }
  errors.Rethrow();
}

}  // namespace genlink

// Edge cases of the worker pool (common/thread_pool.h): empty ranges,
// the deterministic exception contract (every index runs, the smallest
// failing index's exception is rethrown, identical for any thread
// count), oversubscribed ParallelForEach, and pool reuse after a batch
// that threw. The happy paths are exercised constantly by the engine
// and island tests; these are the paths only error handling reaches.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace genlink {
namespace {

TEST(ThreadPoolTest, ZeroTasksReturnImmediately) {
  ThreadPool pool(4);
  std::atomic<size_t> calls{0};
  pool.ParallelFor(0, [&](size_t) { calls.fetch_add(1); });
  pool.ParallelForEach(0, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0u);
}

TEST(ThreadPoolTest, SingleTaskRunsInline) {
  ThreadPool pool(4);
  std::atomic<size_t> calls{0};
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    calls.fetch_add(1);
  });
  pool.ParallelForEach(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 2u);
}

TEST(ThreadPoolTest, ExceptionFromTaskPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [&](size_t i) {
                         if (i == 37) throw std::runtime_error("task 37");
                       }),
      std::runtime_error);
}

// The contract that makes error paths as reproducible as success
// paths: whichever worker fails first in wall time, the exception the
// caller sees is the one thrown by the SMALLEST failing index, and
// every non-throwing index still runs.
TEST(ThreadPoolTest, SmallestFailingIndexWinsForAnyThreadCount) {
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    std::atomic<size_t> ran{0};
    std::string caught;
    try {
      pool.ParallelFor(64, [&](size_t i) {
        ran.fetch_add(1);
        // Three failures, the larger indices likely to be *reached*
        // first under chunked scheduling.
        if (i == 11 || i == 40 || i == 63) {
          throw std::runtime_error("index " + std::to_string(i));
        }
      });
      FAIL() << "expected a throw with " << threads << " thread(s)";
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    EXPECT_EQ(caught, "index 11") << threads << " thread(s)";
    EXPECT_EQ(ran.load(), 64u) << "every index must run despite failures";
  }
}

TEST(ThreadPoolTest, ParallelForEachSmallestFailingIndexWins) {
  ThreadPool pool(4);
  std::string caught;
  try {
    pool.ParallelForEach(16, [&](size_t i) {
      if (i % 5 == 2) {  // fails at 2, 7, 12
        throw std::invalid_argument("each " + std::to_string(i));
      }
    });
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    caught = e.what();
  }
  EXPECT_EQ(caught, "each 2");
}

TEST(ThreadPoolTest, NonExceptionThrowTypesPropagate) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(8,
                                [&](size_t i) {
                                  if (i == 3) throw 42;  // not std::exception
                                }),
               int);
}

TEST(ThreadPoolTest, ParallelForEachManyMoreTasksThanThreads) {
  ThreadPool pool(2);
  constexpr size_t kCount = 500;  // 250x oversubscribed
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelForEach(kCount, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// A batch that threw must not poison the pool: no worker died, no
// task queue residue, and the next batches (throwing and clean) behave
// exactly like the first.
TEST(ThreadPoolTest, PoolIsReusableAfterThrowingBatch) {
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    std::atomic<size_t> ran{0};
    std::string caught;
    try {
      pool.ParallelFor(32, [&](size_t i) {
        ran.fetch_add(1);
        if (i == 5) throw std::runtime_error("round " + std::to_string(round));
      });
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    EXPECT_EQ(caught, "round " + std::to_string(round));
    EXPECT_EQ(ran.load(), 32u);
  }
  // Clean batch after three throwing ones: full coverage, no throw.
  std::atomic<size_t> clean{0};
  pool.ParallelForEach(64, [&](size_t) { clean.fetch_add(1); });
  EXPECT_EQ(clean.load(), 64u);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelFor(kCount, [&](size_t i) { hits[i].fetch_add(1); });
  std::set<size_t> missed, duplicated;
  for (size_t i = 0; i < kCount; ++i) {
    if (hits[i].load() == 0) missed.insert(i);
    if (hits[i].load() > 1) duplicated.insert(i);
  }
  EXPECT_TRUE(missed.empty());
  EXPECT_TRUE(duplicated.empty());
}

// Back-to-back calls with near-empty tasks: a call returns as soon as
// its last task counts down, and the next call reuses the same stack
// slots for its own completion state, so a task that still touched the
// finished call's mutex after counting down would race with (or lock)
// the next call's. The TSan leg catches that race here.
TEST(ThreadPoolTest, BackToBackCallsDoNotTouchFinishedCallState) {
  ThreadPool pool(4);
  std::atomic<size_t> calls{0};
  for (int round = 0; round < 2000; ++round) {
    pool.ParallelFor(8, [&](size_t) { calls.fetch_add(1); });
    pool.ParallelForEach(3, [&](size_t) { calls.fetch_add(1); });
  }
  EXPECT_EQ(calls.load(), 2000u * 11u);
}

TEST(ThreadPoolTest, ZeroRequestedThreadsFallsBackToHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
  std::atomic<size_t> calls{0};
  pool.ParallelFor(10, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 10u);
}

}  // namespace
}  // namespace genlink

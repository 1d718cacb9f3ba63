// Regression coverage for concurrent BlockingIndex::Candidates on a
// single shared index. The probe (ProbeCandidates) dedups through one
// epoch-stamped thread_local scratch shared by the in-memory and mapped
// indexes; before the epoch stamps, two threads probing the same index
// (or two indexes from one thread interleaved across tasks) could
// observe each other's seen-marks and drop candidates. Runs under the
// `concurrency` label so the TSan CI leg picks it up.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "datasets/restaurant.h"
#include "datasets/synthetic.h"
#include "io/corpus_artifact.h"
#include "matcher/blocking.h"
#include "rule/builder.h"
#include "test_tmpdir.h"

namespace genlink {
namespace {

// Every thread probes every source entity against the same index and
// must reproduce the serial reference exactly — same candidates, same
// order, no drops and no duplicates.
void HammerSharedIndex(const MatchingTask& task, const BlockingIndex& index,
                       size_t num_threads, size_t rounds) {
  const Dataset& source = task.Source();
  std::vector<std::vector<size_t>> reference(source.size());
  for (size_t i = 0; i < source.size(); ++i) {
    reference[i] = index.Candidates(source.entity(i), source.schema());
  }
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < rounds; ++round) {
        // Stagger the start offset per thread and round so threads are
        // probing different entities at the same instant.
        const size_t offset = (t * 131 + round * 17) % source.size();
        for (size_t step = 0; step < source.size(); ++step) {
          const size_t i = (offset + step) % source.size();
          if (index.Candidates(source.entity(i), source.schema()) !=
              reference[i]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(BlockingConcurrencyTest, ConcurrentCandidatesOnSharedTokenIndex) {
  const MatchingTask task = GenerateRestaurant(RestaurantConfig{});
  const TokenBlockingIndex index(task.Target());
  HammerSharedIndex(task, index, /*num_threads=*/8, /*rounds=*/3);
}

TEST(BlockingConcurrencyTest, TwoIndexesProbedByTheSamePool) {
  // The scratch is shared per thread across index instances and across
  // the two index kinds; probing an in-memory and a mapped index from
  // the same threads must not cross-talk.
  SyntheticConfig config;
  config.num_entities = 1500;
  const MatchingTask synthetic = GenerateSynthetic(config);
  const MatchingTask restaurant = GenerateRestaurant(RestaurantConfig{});
  const TokenBlockingIndex synthetic_index(synthetic.Target());

  auto rule = RuleBuilder()
                  .Compare("jaccard", 0.8, Prop("name").Lower().Tokenize(),
                           Prop("name").Lower().Tokenize())
                  .Build();
  ASSERT_TRUE(rule.ok());
  const std::string path = TestTempPath("restaurant.glidx");
  ASSERT_TRUE(WriteCorpusArtifact(path, restaurant.Target(), *rule,
                                  MatchOptions())
                  .ok());
  auto mapped = MappedCorpus::Load(path);
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE((*mapped)->has_blocking());
  const BlockingIndex& restaurant_index = *(*mapped)->blocking();

  std::vector<std::vector<size_t>> synthetic_reference(synthetic.a.size());
  for (size_t i = 0; i < synthetic.a.size(); ++i) {
    synthetic_reference[i] = synthetic_index.Candidates(
        synthetic.Source().entity(i), synthetic.Source().schema());
  }
  std::vector<std::vector<size_t>> restaurant_reference(
      restaurant.Source().size());
  for (size_t i = 0; i < restaurant.Source().size(); ++i) {
    restaurant_reference[i] = restaurant_index.Candidates(
        restaurant.Source().entity(i), restaurant.Source().schema());
  }

  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      // Alternate between the two indexes on every probe so each
      // thread's scratch is reused across instances back-to-back.
      const size_t n = std::max(synthetic.a.size(), restaurant.Source().size());
      for (size_t step = 0; step < 2 * n; ++step) {
        if ((step + t) % 2 == 0) {
          const size_t i = (step + t * 131) % synthetic.a.size();
          if (synthetic_index.Candidates(synthetic.Source().entity(i),
                                         synthetic.Source().schema()) !=
              synthetic_reference[i]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          const size_t i = (step + t * 131) % restaurant.Source().size();
          if (restaurant_index.Candidates(restaurant.Source().entity(i),
                                          restaurant.Source().schema()) !=
              restaurant_reference[i]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace genlink

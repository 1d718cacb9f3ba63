// Concurrency stress for the serving path, written for
// ThreadSanitizer: reader threads drive every query surface
// (MatchEntity, MatchBatch, stats) against a published
// shared_ptr<const MatcherIndex> while a writer thread keeps
// hot-swapping rules with WithRule and republishing. Under
// -DGENLINK_SANITIZE=thread this exercises lock-free queries against
// immutable per-generation value stores, store forks that share plans
// and pooled strings with published stores, the blocking-index cache,
// and the atomic publish pattern the API header documents; under a
// plain build it is a fast smoke test of the same paths (it stays in
// tier-1 so the schedule keeps being exercised).
//
// tests/api_test.cc checks the *answers* under swaps; this test's job
// is purely to put every cross-thread access pattern in front of TSan,
// so assertions are minimal by design.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/matcher_index.h"
#include "io/artifact.h"
#include "io/csv.h"
#include "io/link_io.h"
#include "matcher/matcher.h"
#include "model/dataset.h"
#include "rule/builder.h"
#include "serve/serving_state.h"
#include "test_tmpdir.h"

namespace genlink {
namespace {

// A synthetic corpus with enough token overlap that queries produce
// candidates and links (empty candidate sets would leave the scoring
// paths cold).
Dataset MakeCorpus(size_t n) {
  Dataset dataset("corpus");
  PropertyId name = dataset.schema().AddProperty("name");
  PropertyId city = dataset.schema().AddProperty("city");
  const char* cities[] = {"berlin", "mannheim", "leipzig"};
  for (size_t i = 0; i < n; ++i) {
    std::string id = "e";
    id += std::to_string(i);
    std::string record = "record number ";
    record += std::to_string(i / 2);
    Entity entity(id);
    entity.AddValue(name, record);
    entity.AddValue(city, cities[i % 3]);
    EXPECT_TRUE(dataset.AddEntity(std::move(entity)).ok());
  }
  return dataset;
}

LinkageRule NameRule() {
  auto rule = RuleBuilder()
                  .Compare("jaccard", 0.5, Prop("name").Lower().Tokenize(),
                           Prop("name").Lower().Tokenize())
                  .Build();
  EXPECT_TRUE(rule.ok());
  return std::move(rule).value();
}

LinkageRule NameCityRule() {
  auto rule = RuleBuilder()
                  .Aggregate("min")
                  .Compare("jaccard", 0.5, Prop("name").Lower().Tokenize(),
                           Prop("name").Lower().Tokenize())
                  .Compare("levenshtein", 2.0, Prop("city").Lower(),
                           Prop("city").Lower())
                  .End()
                  .Build();
  EXPECT_TRUE(rule.ok());
  return std::move(rule).value();
}

TEST(StressSwapTsanTest, QueriesRaceHotSwapsCleanly) {
  Dataset corpus = MakeCorpus(60);
  LinkageRule rules[] = {NameRule(), NameCityRule()};

  MatchOptions options;
  options.num_threads = 2;  // the corpus pool MatchBatch dispatches on
  auto serving = std::make_shared<
      std::shared_ptr<const MatcherIndex>>(
      MatcherIndex::Build(corpus, corpus, rules[0], options));

  constexpr int kReaders = 4;
  constexpr int kSwaps = 24;
  std::atomic<bool> stop{false};
  std::atomic<size_t> queries{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      size_t i = static_cast<size_t>(r);
      while (!stop.load(std::memory_order_acquire)) {
        // Grab the currently published generation, exactly as a
        // request handler would.
        std::shared_ptr<const MatcherIndex> index =
            std::atomic_load(serving.get());
        const Entity& entity = corpus.entity(i % corpus.size());
        switch (r % 3) {
          case 0:
            (void)index->MatchEntity(entity, corpus.schema());
            break;
          case 1: {
            auto span = std::span<const Entity>(
                &corpus.entity((i * 3) % (corpus.size() - 8)), 8);
            (void)index->MatchBatch(span, corpus.schema());
            break;
          }
          default:
            (void)index->stats();
            break;
        }
        queries.fetch_add(1, std::memory_order_relaxed);
        i += 13;
      }
    });
  }

  // Writer: alternate rules; every WithRule resolves or forks the
  // SHARED corpus's newest store while readers query published
  // generations, then the new generation is published with an atomic
  // store.
  for (int swap = 1; swap <= kSwaps; ++swap) {
    std::shared_ptr<const MatcherIndex> current = std::atomic_load(serving.get());
    std::atomic_store(serving.get(), current->WithRule(rules[swap % 2]));
    // Compiling against the warm shared store is fast; make sure the
    // swaps actually overlap query traffic instead of finishing before
    // the readers get scheduled.
    const size_t target = static_cast<size_t>(swap) * kReaders;
    while (queries.load(std::memory_order_relaxed) < target) {
      std::this_thread::yield();
    }
  }

  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_GE(queries.load(), static_cast<size_t>(kSwaps) * kReaders);
  // The last published generation still answers.
  std::shared_ptr<const MatcherIndex> last = std::atomic_load(serving.get());
  auto links = last->MatchEntity(corpus.entity(0), corpus.schema());
  EXPECT_FALSE(links.empty());  // "record number 0" matches e1
}

// Same shape against a serving-only index (no bound source dataset):
// the `genlink query` deployment, where the query side is evaluated
// per request instead of read from the store.
TEST(StressSwapTsanTest, ServingOnlyIndexSurvivesSwapHammer) {
  Dataset corpus = MakeCorpus(40);
  LinkageRule rules[] = {NameRule(), NameCityRule()};

  auto serving = std::make_shared<std::shared_ptr<const MatcherIndex>>(
      MatcherIndex::Build(corpus, rules[0], MatchOptions{}));

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      size_t i = static_cast<size_t>(r);
      while (!stop.load(std::memory_order_acquire)) {
        std::shared_ptr<const MatcherIndex> index =
            std::atomic_load(serving.get());
        (void)index->MatchEntity(corpus.entity(i % corpus.size()),
                                 corpus.schema());
        i += 5;
      }
    });
  }
  for (int swap = 1; swap <= 16; ++swap) {
    std::shared_ptr<const MatcherIndex> current = std::atomic_load(serving.get());
    std::atomic_store(serving.get(), current->WithRule(rules[swap % 2]));
  }
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  std::shared_ptr<const MatcherIndex> last = std::atomic_load(serving.get());
  EXPECT_GE(last->stats().target_entities, 40u);
}

// The serve daemon's degradation contract under concurrency: reader
// threads hammer ServingState::index() while a writer alternates GOOD
// and CORRUPT artifact files through ReloadFromFile. Failed reloads
// must never interrupt serving — every reader answer for a pinned
// query is byte-identical to the baseline the good rule produced
// before the hammering started (the corrupt artifact carries a
// different rule, so any leak of a half-applied reload would change
// the bytes).
TEST(StressSwapTsanTest, FailingReloadNeverInterruptsServing) {
  Dataset corpus = MakeCorpus(40);
  const std::string good_path = TestTempPath("good.artifact");
  const std::string bad_path = TestTempPath("bad.artifact");
  {
    RuleArtifact artifact;
    artifact.name = "stress-good";
    artifact.rule = NameRule();
    ASSERT_TRUE(SaveArtifact(good_path, artifact).ok());
  }
  ASSERT_TRUE(
      WriteStringToFile(bad_path, "genlink-artifact v99\ncorrupt\n").ok());

  ServingState state(corpus, /*num_threads=*/2);
  ASSERT_TRUE(state.ReloadFromFile(good_path).ok());
  const std::string baseline = WriteGeneratedLinksCsv(
      state.index()->MatchEntity(corpus.entity(0), corpus.schema()));
  ASSERT_NE(baseline.find("e1"), std::string::npos);  // query has a twin

  constexpr int kReaders = 3;
  constexpr int kReloads = 24;
  std::atomic<bool> stop{false};
  std::atomic<size_t> queries{0};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::shared_ptr<const MatcherIndex> index = state.index();
        const std::string answer = WriteGeneratedLinksCsv(
            index->MatchEntity(corpus.entity(0), corpus.schema()));
        if (answer != baseline) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Writer: every odd push is the corrupt artifact and must fail
  // without touching the live index; every even push re-deploys the
  // same good rule (a real swap racing the readers).
  uint64_t failed_pushes = 0;
  for (int reload = 1; reload <= kReloads; ++reload) {
    if (reload % 2 == 1) {
      EXPECT_FALSE(state.ReloadFromFile(bad_path).ok());
      ++failed_pushes;
      EXPECT_TRUE(state.snapshot().stale);
    } else {
      EXPECT_TRUE(state.ReloadFromFile(good_path).ok());
      EXPECT_FALSE(state.snapshot().stale);
    }
    // Make the reloads overlap query traffic instead of finishing
    // before the readers get scheduled.
    const size_t target = static_cast<size_t>(reload) * kReaders;
    while (queries.load(std::memory_order_relaxed) < target) {
      std::this_thread::yield();
    }
  }

  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(state.snapshot().failed_reloads, failed_pushes);
  EXPECT_GE(queries.load(), static_cast<size_t>(kReloads) * kReaders);
  // The state is healthy after the last good push and still answers
  // the baseline bytes.
  EXPECT_FALSE(state.snapshot().stale);
  EXPECT_EQ(WriteGeneratedLinksCsv(
                state.index()->MatchEntity(corpus.entity(0), corpus.schema())),
            baseline);
}

}  // namespace
}  // namespace genlink

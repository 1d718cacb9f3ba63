// The weighted blocking layer (matcher/blocking.h):
//
//   * weighted (rare-token) candidates are always a subset of the
//     unweighted candidates, for any k and min-df;
//   * recall floors: 1.0 on the Restaurant reference links, equal to
//     the unweighted ceiling on Cora, >= 0.98 on the synthetic corpus
//     at 100k entities;
//   * at those budgets, weighted links are bit-identical to the
//     default path's for query threads in {1,4}, doubles included.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "datasets/cora.h"
#include "datasets/restaurant.h"
#include "datasets/synthetic.h"
#include "eval/blocking_stats.h"
#include "matcher/matcher.h"
#include "rule/builder.h"

namespace genlink {
namespace {

// Weighted-key budgets under which blocking keeps every link of the
// default path on the reference datasets (the floors the scale bench
// gates as well). Restaurant records carry ~10 tokens, Cora citations
// several dozen — hence the larger k.
constexpr size_t kRestaurantTopTokens = 6;
constexpr size_t kCoraTopTokens = 12;
constexpr double kSyntheticRecallFloor = 0.98;

LinkageRule RestaurantRule() {
  auto rule = RuleBuilder()
                  .Aggregate("wmean")
                  .Compare("levenshtein", 3.0, Prop("name").Lower(),
                           Prop("name").Lower())
                  .Compare("jaccard", 0.6, Prop("address").Lower().Tokenize(),
                           Prop("address").Lower().Tokenize())
                  .Compare("levenshtein", 2.0, Prop("phone"), Prop("phone"))
                  .End()
                  .Build();
  EXPECT_TRUE(rule.ok()) << rule.status().ToString();
  return rule.ok() ? std::move(*rule) : LinkageRule();
}

LinkageRule CoraRule() {
  auto rule = RuleBuilder()
                  .Aggregate("min")
                  .Compare("jaccard", 0.7, Prop("title").Lower().Tokenize(),
                           Prop("title").Lower().Tokenize())
                  .Compare("dice", 0.8, Prop("author").Lower().Tokenize(),
                           Prop("author").Lower().Tokenize())
                  .End()
                  .Build();
  EXPECT_TRUE(rule.ok()) << rule.status().ToString();
  return rule.ok() ? std::move(*rule) : LinkageRule();
}

void ExpectSameLinks(const std::vector<GeneratedLink>& actual,
                     const std::vector<GeneratedLink>& expected,
                     const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].id_a, expected[i].id_a) << label << " link " << i;
    EXPECT_EQ(actual[i].id_b, expected[i].id_b) << label << " link " << i;
    // Bit-identical doubles, not just nearly equal.
    EXPECT_EQ(actual[i].score, expected[i].score) << label << " link " << i;
  }
}

TEST(BlockingScaleTest, WeightedCandidatesAreSubsetOfUnweighted) {
  SyntheticConfig synthetic_config;
  synthetic_config.num_entities = 3000;
  const MatchingTask tasks[] = {GenerateRestaurant(RestaurantConfig{}),
                                GenerateSynthetic(synthetic_config)};
  for (const MatchingTask& task : tasks) {
    const TokenBlockingIndex unweighted(task.Target());
    for (const size_t k : {1ul, 2ul, 4ul}) {
      for (const size_t min_df : {1ul, 2ul}) {
        TokenBlockingOptions options;
        options.max_tokens_per_entity = k;
        options.min_token_df = min_df;
        const TokenBlockingIndex weighted(task.Target(), {}, options);
        EXPECT_LE(weighted.NumPostings(), unweighted.NumPostings());
        for (const Entity& entity : task.Source().entities()) {
          const auto full =
              unweighted.Candidates(entity, task.Source().schema());
          const auto pruned =
              weighted.Candidates(entity, task.Source().schema());
          // Both are sorted, so subset is std::includes.
          EXPECT_TRUE(std::includes(full.begin(), full.end(), pruned.begin(),
                                    pruned.end()))
              << task.name << " k=" << k << " min_df=" << min_df
              << " entity=" << entity.id();
        }
      }
    }
  }
}

TEST(BlockingScaleTest, WeightedRecallIsOneOnRestaurant) {
  const MatchingTask task = GenerateRestaurant(RestaurantConfig{});
  TokenBlockingOptions options;
  options.max_tokens_per_entity = kRestaurantTopTokens;
  const TokenBlockingIndex weighted(task.Target(), {}, options);
  EXPECT_DOUBLE_EQ(MeasureBlockingQuality(weighted, task.Source(),
                                          task.Target(), task.links)
                       .pairs_completeness,
                   1.0);
}

TEST(BlockingScaleTest, WeightedRecallMatchesUnweightedCeilingOnCora) {
  // Cora's unweighted recall is itself slightly below 1.0 (a handful of
  // heavily perturbed editions share no token at all), so the weighted
  // floor is "no worse than the full index", not an absolute 1.0.
  const MatchingTask task = GenerateCora();
  const TokenBlockingIndex unweighted(task.Target());
  TokenBlockingOptions options;
  options.max_tokens_per_entity = kCoraTopTokens;
  const TokenBlockingIndex weighted(task.Target(), {}, options);
  const double ceiling = MeasureBlockingQuality(unweighted, task.Source(),
                                                task.Target(), task.links)
                             .pairs_completeness;
  EXPECT_DOUBLE_EQ(MeasureBlockingQuality(weighted, task.Source(),
                                          task.Target(), task.links)
                       .pairs_completeness,
                   ceiling);
  EXPECT_GE(ceiling, 0.99);
}

TEST(BlockingScaleTest, WeightedRecallOnSynthetic100k) {
  SyntheticConfig config;
  config.num_entities = 100000;
  config.num_threads = 0;
  const MatchingTask task = GenerateSynthetic(config);
  ThreadPool pool(0);
  TokenBlockingOptions options;
  options.max_tokens_per_entity = 6;
  const TokenBlockingIndex weighted(task.Target(), {}, options);
  // Candidate volume from a 1-in-25 query sample; pairs completeness
  // checks every one of the ~35k positive links.
  const BlockingQuality quality = MeasureBlockingQuality(
      weighted, task.Source(), task.Target(), task.links,
      /*sample_every=*/25, &pool);
  EXPECT_GE(quality.pairs_completeness, kSyntheticRecallFloor);
  EXPECT_EQ(quality.positives_total, task.links.positives().size());
  // The weighted index discards the overwhelming share of the cross
  // product (the precise reduction-vs-unweighted factor is the scale
  // bench's gate).
  EXPECT_GE(quality.reduction_ratio, 0.9);
}

TEST(BlockingScaleTest, WeightedLinksBitIdenticalOnRestaurantAndCora) {
  // The acceptance gate: with a weighted-key budget whose recall
  // matches the default index, weighted blocking must produce
  // bit-identical links to the untouched default path — for every
  // thread count.
  struct Case {
    const char* label;
    MatchingTask task;
    LinkageRule rule;
    size_t max_tokens;
  };
  Case cases[] = {
      {"restaurant", GenerateRestaurant(RestaurantConfig{}), RestaurantRule(),
       kRestaurantTopTokens},
      {"cora", GenerateCora(), CoraRule(), kCoraTopTokens},
  };
  for (const Case& c : cases) {
    const std::vector<GeneratedLink> base =
        GenerateLinks(c.rule, c.task.Source(), c.task.Target(), {});
    ASSERT_FALSE(base.empty()) << c.label;
    for (const size_t threads : {1ul, 4ul}) {
      MatchOptions options;
      options.blocking_max_tokens = c.max_tokens;
      options.num_threads = threads;
      ExpectSameLinks(
          GenerateLinks(c.rule, c.task.Source(), c.task.Target(), options),
          base, std::string(c.label) + " threads=" + std::to_string(threads));
    }
  }
}

}  // namespace
}  // namespace genlink

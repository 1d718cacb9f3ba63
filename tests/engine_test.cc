// The evaluation engine's contract (eval/engine.h): results bit-identical
// to the serial FitnessEvaluator, identical learning runs at 1/4/8
// threads, and caches that actually hit.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "datasets/cora.h"
#include "datasets/restaurant.h"
#include "eval/engine.h"
#include "gp/genlink.h"
#include "gp/rule_generator.h"
#include "io/csv.h"
#include "rule/builder.h"
#include "rule/parse.h"
#include "rule/rule_hash.h"
#include "rule/rule_program.h"
#include "rule/serialize.h"

namespace genlink {
namespace {

// ------------------------------------------------------------ rule hash

class RuleHashTest : public ::testing::Test {
 protected:
  RuleHashTest()
      : generator_(MakePairs(), {"title", "date"}, {"name", "released"}) {}

  static std::vector<CompatiblePair> MakePairs() {
    const auto& reg = DistanceRegistry::Default();
    return {{"title", "name", reg.Find("levenshtein"), 5},
            {"date", "released", reg.Find("date"), 3}};
  }

  RuleGenerator generator_;
};

TEST_F(RuleHashTest, CanonicalHashStableAcrossClones) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    LinkageRule rule = generator_.RandomRule(rng);
    LinkageRule clone = rule.Clone();
    EXPECT_EQ(CanonicalRuleHash(rule), CanonicalRuleHash(clone));
    EXPECT_EQ(CanonicalRuleHash(rule), CanonicalRuleHash(rule));
  }
}

TEST_F(RuleHashTest, ThresholdChangesCanonicalButNotSignature) {
  Rng rng(4);
  LinkageRule rule = generator_.RandomRule(rng);
  auto comparisons = CollectComparisons(rule);
  ASSERT_FALSE(comparisons.empty());
  uint64_t canonical_before = CanonicalRuleHash(rule);
  uint64_t signature_before = ComparisonSignature(*comparisons[0]);
  comparisons[0]->set_threshold(comparisons[0]->threshold() + 1.0);
  // The whole-rule hash must see the threshold (fitness depends on it)...
  EXPECT_NE(CanonicalRuleHash(rule), canonical_before);
  // ...but the comparison signature must not: the raw distance it keys
  // is threshold-free, which is what lets offspring with mutated
  // thresholds reuse their parents' distance rows.
  EXPECT_EQ(ComparisonSignature(*comparisons[0]), signature_before);
}

TEST_F(RuleHashTest, AnalyzeCollectsAllComparisons) {
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    LinkageRule rule = generator_.RandomRule(rng);
    RuleHashInfo info = AnalyzeRule(rule);
    EXPECT_EQ(info.comparisons.size(), CollectComparisons(rule).size());
    EXPECT_EQ(info.canonical, CanonicalRuleHash(rule));
  }
}

// A corpus artifact stores ValueOperatorHash in its plan directory and
// CanonicalRuleHash in its header. These are the values earlier builds
// wrote for tests/golden/restaurant.rule, so while they hold, an
// artifact indexed by an earlier build still resolves its plans.
TEST_F(RuleHashTest, HashesMatchWhatEarlierBuildsWroteToDisk) {
  auto text = ReadFileToString(std::string(GENLINK_TEST_GOLDEN_DIR) +
                               "/restaurant.rule");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto rule = ParseRule(*text);
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_EQ(CanonicalRuleHash(*rule), 0x83e38819d357038cULL);

  const std::vector<ComparisonOperator*> comparisons =
      CollectComparisons(*rule);
  ASSERT_EQ(comparisons.size(), 2u);
  // lowerCase(name) on both sides of the first comparison,
  // removeDashes(phone) on both sides of the second.
  EXPECT_EQ(ValueOperatorHash(*comparisons[0]->source()),
            0x42f6ebd3deed0bacULL);
  EXPECT_EQ(ValueOperatorHash(*comparisons[0]->target()),
            0x42f6ebd3deed0bacULL);
  EXPECT_EQ(ValueOperatorHash(*comparisons[1]->source()),
            0x6d8c2db262782ae0ULL);
  EXPECT_EQ(ValueOperatorHash(*comparisons[1]->target()),
            0x6d8c2db262782ae0ULL);
}

// --------------------------------------------------------- fitness cache

TEST(FitnessCacheTest, RoundTrip) {
  FitnessCache cache;
  EXPECT_EQ(cache.Find(123), nullptr);
  FitnessResult result;
  result.fitness = 0.5;
  cache.Insert(123, result);
  const FitnessResult* hit = cache.Find(123);
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->fitness, 0.5);
}

TEST(FitnessCacheTest, EvictsWhenFull) {
  FitnessCache cache(/*max_entries=*/4);
  for (uint64_t i = 0; i < 5; ++i) cache.Insert(i, {});
  EXPECT_LE(cache.size(), 4u);
}

// ------------------------------------------- engine vs serial evaluator

void ExpectSameFitness(const FitnessResult& got, const FitnessResult& want,
                       const std::string& label = "") {
  EXPECT_EQ(got.fitness, want.fitness) << label;
  EXPECT_EQ(got.mcc, want.mcc) << label;
  EXPECT_EQ(got.f_measure, want.f_measure) << label;
  EXPECT_EQ(got.confusion.tp, want.confusion.tp) << label;
  EXPECT_EQ(got.confusion.tn, want.confusion.tn) << label;
  EXPECT_EQ(got.confusion.fp, want.confusion.fp) << label;
  EXPECT_EQ(got.confusion.fn, want.confusion.fn) << label;
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CoraConfig config;
    config.scale = 0.05;
    task_ = GenerateCora(config);
    auto pairs = task_.links.Resolve(task_.Source(), task_.Target());
    ASSERT_TRUE(pairs.ok());
    pairs_ = std::move(*pairs);
  }

  std::vector<LinkageRule> RandomRules(size_t count, uint64_t seed) {
    std::vector<CompatiblePair> seeded;
    const auto& reg = DistanceRegistry::Default();
    seeded.push_back({"title", "title", reg.Find("levenshtein"), 5});
    seeded.push_back({"author", "author", reg.Find("jaccard"), 3});
    RuleGenerator generator(seeded, {"title", "author"}, {"title", "author"});
    Rng rng(seed);
    std::vector<LinkageRule> rules;
    for (size_t i = 0; i < count; ++i) rules.push_back(generator.RandomRule(rng));
    return rules;
  }

  MatchingTask task_;
  std::vector<LabeledPair> pairs_;
};

TEST_F(EngineTest, BitIdenticalToSerialEvaluator) {
  EvaluationEngine engine(pairs_, task_.Source().schema(),
                          task_.Target().schema());
  FitnessEvaluator serial(pairs_, task_.Source().schema(),
                          task_.Target().schema());
  for (const LinkageRule& rule : RandomRules(80, 11)) {
    ExpectSameFitness(engine.Evaluate(rule), serial.Evaluate(rule));
  }
}

TEST_F(EngineTest, BlockTailsMatchSerialEvaluator) {
  // The engine scores its pairs RuleProgram::kBlock at a time. Cut the
  // pairs so the last block is one pair short of full, full, and a
  // single pair. Resolve lists every positive before the negatives, and
  // the fixture holds fewer than kBlock + 1 pairs, so the cut alternates
  // the labels and wraps around each: every block counts both.
  constexpr size_t kBlock = RuleProgram::kBlock;
  std::vector<LabeledPair> positives, negatives;
  for (const LabeledPair& pair : pairs_) {
    (pair.is_match ? positives : negatives).push_back(pair);
  }
  ASSERT_FALSE(positives.empty());
  ASSERT_FALSE(negatives.empty());
  const std::vector<LinkageRule> rules = RandomRules(40, 23);
  std::vector<const LinkageRule*> batch;
  for (const LinkageRule& rule : rules) batch.push_back(&rule);
  for (size_t count : {kBlock - 1, kBlock, kBlock + 1}) {
    std::vector<LabeledPair> pairs;
    for (size_t i = 0; i < count; ++i) {
      const std::vector<LabeledPair>& side = i % 2 == 0 ? positives : negatives;
      pairs.push_back(side[(i / 2) % side.size()]);
    }
    FitnessEvaluator serial(pairs, task_.Source().schema(),
                            task_.Target().schema());
    for (size_t threads : {1, 4}) {
      EngineConfig config;
      config.num_threads = threads;
      EvaluationEngine engine(pairs, task_.Source().schema(),
                              task_.Target().schema(), {}, config);
      std::vector<FitnessResult> results(batch.size());
      engine.EvaluateBatch(batch, results);
      for (size_t k = 0; k < batch.size(); ++k) {
        ExpectSameFitness(results[k], serial.Evaluate(*batch[k]),
                          "rule #" + std::to_string(k) +
                              " pairs=" + std::to_string(count) +
                              " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST_F(EngineTest, ValueStoreDoesNotChangeResults) {
  EvaluationEngine store_engine(pairs_, task_.Source().schema(),
                                task_.Target().schema());
  FitnessEvaluator serial(pairs_, task_.Source().schema(),
                          task_.Target().schema());
  for (const LinkageRule& rule : RandomRules(80, 21)) {
    // Distance rows computed from interned values score bit-identically
    // to the serial evaluator's per-pair operator tree.
    ExpectSameFitness(store_engine.Evaluate(rule), serial.Evaluate(rule));
  }
  // The store actually ran: plans were compiled and values interned.
  EXPECT_GT(store_engine.stats().value_plans_compiled, 0u);
  EXPECT_GT(store_engine.stats().values_interned, 0u);
}

TEST_F(EngineTest, ValueStorePlansSharedAcrossComparisons) {
  EvaluationEngine engine(pairs_, task_.Source().schema(),
                          task_.Target().schema());
  // Two rules with different measures (distinct comparison signatures,
  // so both rows are cold) over the SAME value subtrees: the second
  // rule's plans must all hit the store.
  auto lev = RuleBuilder()
                 .Compare("levenshtein", 2.0, Prop("title").Lower(),
                          Prop("title").Lower())
                 .Build();
  auto jaro = RuleBuilder()
                  .Compare("jaro", 0.3, Prop("title").Lower(),
                           Prop("title").Lower())
                  .Build();
  ASSERT_TRUE(lev.ok());
  ASSERT_TRUE(jaro.ok());
  engine.Evaluate(*lev);
  const uint64_t plans_after_first = engine.stats().value_plans_compiled;
  const uint64_t hits_after_first = engine.stats().value_plan_hits;
  EXPECT_GT(plans_after_first, 0u);
  engine.Evaluate(*jaro);
  EXPECT_EQ(engine.stats().value_plans_compiled, plans_after_first);
  EXPECT_GT(engine.stats().value_plan_hits, hits_after_first);
}

TEST_F(EngineTest, FitnessMemoHitsOnRepeatedRules) {
  EvaluationEngine engine(pairs_, task_.Source().schema(),
                          task_.Target().schema());
  auto rules = RandomRules(10, 13);
  for (const LinkageRule& rule : rules) engine.Evaluate(rule);
  EXPECT_EQ(engine.stats().fitness_hits, 0u);
  for (const LinkageRule& rule : rules) engine.Evaluate(rule);
  EXPECT_EQ(engine.stats().fitness_hits, rules.size());
  EXPECT_EQ(engine.stats().rules_evaluated, 2 * rules.size());
}

TEST_F(EngineTest, BatchInternalDuplicatesEvaluatedOnce) {
  EvaluationEngine engine(pairs_, task_.Source().schema(),
                          task_.Target().schema());
  auto rules = RandomRules(1, 15);
  LinkageRule clone = rules[0].Clone();
  const LinkageRule* batch[] = {&rules[0], &clone};
  FitnessResult results[2];
  engine.EvaluateBatch(batch, results);
  EXPECT_EQ(engine.stats().fitness_misses, 1u);
  EXPECT_EQ(engine.stats().fitness_hits, 1u);
  EXPECT_EQ(results[0].fitness, results[1].fitness);
  EXPECT_EQ(results[0].confusion.tp, results[1].confusion.tp);
}

TEST_F(EngineTest, DistanceRowsSharedAcrossRules) {
  EvaluationEngine engine(pairs_, task_.Source().schema(),
                          task_.Target().schema());
  // Two structurally different rules sharing comparison subtrees: clone
  // one and change only a threshold.
  auto rules = RandomRules(1, 14);
  LinkageRule variant = rules[0].Clone();
  auto comparisons = CollectComparisons(variant);
  ASSERT_FALSE(comparisons.empty());
  comparisons[0]->set_threshold(comparisons[0]->threshold() * 0.5 + 0.1);
  engine.Evaluate(rules[0]);
  uint64_t rows_after_first = engine.stats().distance_rows_computed;
  engine.Evaluate(variant);
  // The variant is a fitness miss but all of its distance rows hit.
  EXPECT_EQ(engine.stats().fitness_misses, 2u);
  EXPECT_EQ(engine.stats().distance_rows_computed, rows_after_first);
  EXPECT_GT(engine.stats().distance_row_hits, 0u);
}

// --------------------------------------------- learning-run invariants

class EngineLearnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RestaurantConfig config;
    config.scale = 0.3;
    task_ = GenerateRestaurant(config);
  }

  LearnResult Learn(size_t threads) {
    GenLinkConfig config;
    config.population_size = 50;
    config.max_iterations = 5;
    config.stop_f_measure = 1.1;  // never stop early: exercise all 5
    config.num_threads = threads;
    GenLink learner(task_.Source(), task_.Target(), config);
    Rng rng(2024);
    auto result = learner.Learn(task_.links, nullptr, rng);
    EXPECT_TRUE(result.ok());
    return result.ok() ? std::move(*result) : LearnResult{};
  }

  MatchingTask task_;
};

TEST_F(EngineLearnTest, SameSeedSameTrajectoryAt148Threads) {
  LearnResult r1 = Learn(1);
  LearnResult r4 = Learn(4);
  LearnResult r8 = Learn(8);

  // Identical best rule...
  EXPECT_EQ(ToSexpr(r1.best_rule), ToSexpr(r4.best_rule));
  EXPECT_EQ(ToSexpr(r1.best_rule), ToSexpr(r8.best_rule));

  // ...and an identical fitness trajectory, iteration by iteration.
  ASSERT_EQ(r1.trajectory.iterations.size(), r4.trajectory.iterations.size());
  ASSERT_EQ(r1.trajectory.iterations.size(), r8.trajectory.iterations.size());
  for (size_t i = 0; i < r1.trajectory.iterations.size(); ++i) {
    EXPECT_EQ(r1.trajectory.iterations[i].train_f1,
              r4.trajectory.iterations[i].train_f1) << i;
    EXPECT_EQ(r1.trajectory.iterations[i].train_f1,
              r8.trajectory.iterations[i].train_f1) << i;
    EXPECT_EQ(r1.trajectory.iterations[i].train_mcc,
              r8.trajectory.iterations[i].train_mcc) << i;
  }
}

TEST_F(EngineLearnTest, CacheHitRatePositiveAfterGenerationTwo) {
  LearnResult result = Learn(1);
  const EngineStats& stats = result.eval_stats;
  // >= 3 generations ran; the distance cache must have been hit: every
  // generation after the first reuses comparison subtrees bred from the
  // previous one.
  ASSERT_GE(result.trajectory.iterations.size(), 3u);
  EXPECT_GT(stats.distance_row_hits, 0u);
  EXPECT_GT(stats.DistanceRowHitRate(), 0.0);
  // The counters are consistent.
  EXPECT_EQ(stats.fitness_hits + stats.fitness_misses, stats.rules_evaluated);
  // Cold rows came from the value store, whose plans offspring reuse.
  EXPECT_GT(stats.value_plans_compiled, 0u);
  EXPECT_GT(stats.value_plan_hits, 0u);
}

}  // namespace
}  // namespace genlink

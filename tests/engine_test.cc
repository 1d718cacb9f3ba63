// The evaluation engine's contract (eval/engine.h): results bit-identical
// to the serial FitnessEvaluator, identical learning runs at 1/4/8
// threads, and caches that actually hit.

#include <gtest/gtest.h>

#include "datasets/cora.h"
#include "datasets/restaurant.h"
#include "eval/engine.h"
#include "gp/genlink.h"
#include "gp/rule_generator.h"
#include "rule/builder.h"
#include "rule/rule_hash.h"
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

TEST_F(RuleHashTest, HasherInternsSharedSubtrees) {
  Rng rng(6);
  RuleHasher hasher;
  LinkageRule rule = generator_.RandomRule(rng);
  hasher.Analyze(rule);
  uint64_t hits_after_first = hasher.subtree_hits();
  // Re-analyzing the same structure interns nothing new: every probe
  // hits (this is the consing a crossover offspring benefits from).
  hasher.Analyze(rule);
  EXPECT_GT(hasher.subtree_hits(), hits_after_first);
  EXPECT_EQ(hasher.subtree_probes(), 2 * hasher.distinct_subtrees());
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
    FitnessResult cached = engine.Evaluate(rule);
    FitnessResult reference = serial.Evaluate(rule);
    EXPECT_EQ(cached.fitness, reference.fitness);
    EXPECT_EQ(cached.mcc, reference.mcc);
    EXPECT_EQ(cached.f_measure, reference.f_measure);
    EXPECT_EQ(cached.confusion.tp, reference.confusion.tp);
    EXPECT_EQ(cached.confusion.tn, reference.confusion.tn);
    EXPECT_EQ(cached.confusion.fp, reference.confusion.fp);
    EXPECT_EQ(cached.confusion.fn, reference.confusion.fn);
  }
}

TEST_F(EngineTest, ValueStoreDoesNotChangeResults) {
  EvaluationEngine store_engine(pairs_, task_.Source().schema(),
                                task_.Target().schema());
  FitnessEvaluator serial(pairs_, task_.Source().schema(),
                          task_.Target().schema());
  for (const LinkageRule& rule : RandomRules(80, 21)) {
    FitnessResult via_store = store_engine.Evaluate(rule);
    FitnessResult reference = serial.Evaluate(rule);
    // Distance rows computed from interned values score bit-identically
    // to the serial evaluator's per-pair operator tree.
    EXPECT_EQ(via_store.fitness, reference.fitness);
    EXPECT_EQ(via_store.mcc, reference.mcc);
    EXPECT_EQ(via_store.f_measure, reference.f_measure);
    EXPECT_EQ(via_store.confusion.tp, reference.confusion.tp);
    EXPECT_EQ(via_store.confusion.tn, reference.confusion.tn);
    EXPECT_EQ(via_store.confusion.fp, reference.confusion.fp);
    EXPECT_EQ(via_store.confusion.fn, reference.confusion.fn);
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
  EXPECT_GT(stats.subtree_hits, 0u);
  // Cold rows came from the value store, whose plans offspring reuse.
  EXPECT_GT(stats.value_plans_compiled, 0u);
  EXPECT_GT(stats.value_plan_hits, 0u);
}

}  // namespace
}  // namespace genlink

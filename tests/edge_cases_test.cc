// Edge-case and failure-injection tests across modules: degenerate
// configurations, empty inputs, extreme values and the structural
// invariants added around the GP loop.

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "datasets/restaurant.h"
#include "gp/crossover.h"
#include "gp/genlink.h"
#include "matcher/matcher.h"
#include "rule/builder.h"
#include "rule/rule_hash.h"
#include "rule/serialize.h"

namespace genlink {
namespace {

// ------------------------------------------------ EnsureAggregationRoot

TEST(EnsureAggregationRootTest, WrapsBareComparison) {
  auto rule = RuleBuilder()
                  .Compare("levenshtein", 1.0, Prop("a"), Prop("b"))
                  .Build();
  ASSERT_TRUE(rule.ok());
  ASSERT_EQ(rule->root()->kind(), OperatorKind::kComparison);
  const AggregationFunction* min_fn = AggregationRegistry::Default().Find("min");
  EnsureAggregationRoot(*rule, min_fn);
  ASSERT_EQ(rule->root()->kind(), OperatorKind::kAggregation);
  EXPECT_TRUE(rule->Validate().ok());
  EXPECT_EQ(CollectComparisons(*rule).size(), 1u);
}

TEST(EnsureAggregationRootTest, LeavesAggregationUntouched) {
  auto rule = RuleBuilder()
                  .Aggregate("max")
                  .Compare("levenshtein", 1.0, Prop("a"), Prop("b"))
                  .End()
                  .Build();
  ASSERT_TRUE(rule.ok());
  uint64_t before = CanonicalRuleHash(*rule);
  EnsureAggregationRoot(*rule, AggregationRegistry::Default().Find("min"));
  EXPECT_EQ(CanonicalRuleHash(*rule), before);
}

TEST(EnsureAggregationRootTest, WrappingPreservesSemantics) {
  // min/max/wmean over a single operand equal the operand's score.
  Dataset a("a"), b("b");
  PropertyId pa = a.schema().AddProperty("x");
  PropertyId pb = b.schema().AddProperty("x");
  Entity ea("e1");
  ea.AddValue(pa, "hello");
  ASSERT_TRUE(a.AddEntity(std::move(ea)).ok());
  Entity eb("e2");
  eb.AddValue(pb, "hallo");
  ASSERT_TRUE(b.AddEntity(std::move(eb)).ok());

  for (const char* fn : {"min", "max", "wmean"}) {
    auto rule = RuleBuilder()
                    .Compare("levenshtein", 2.0, Prop("x"), Prop("x"))
                    .Build();
    ASSERT_TRUE(rule.ok());
    double bare = rule->Evaluate(*a.FindEntity("e1"), *b.FindEntity("e2"),
                                 a.schema(), b.schema());
    EnsureAggregationRoot(*rule, AggregationRegistry::Default().Find(fn));
    double wrapped = rule->Evaluate(*a.FindEntity("e1"), *b.FindEntity("e2"),
                                    a.schema(), b.schema());
    EXPECT_DOUBLE_EQ(bare, wrapped) << fn;
  }
}

// ------------------------------------------------------- GenLink corners

class GenLinkEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PropertyId pa = a_.schema().AddProperty("v");
    PropertyId pb = b_.schema().AddProperty("v");
    for (int i = 0; i < 6; ++i) {
      Entity ea("a" + std::to_string(i));
      ea.AddValue(pa, "value" + std::to_string(i));
      ASSERT_TRUE(a_.AddEntity(std::move(ea)).ok());
      Entity eb("b" + std::to_string(i));
      eb.AddValue(pb, "value" + std::to_string(i));
      ASSERT_TRUE(b_.AddEntity(std::move(eb)).ok());
      links_.AddPositive("a" + std::to_string(i), "b" + std::to_string(i));
    }
    Rng rng(1);
    links_.GenerateNegativesFromPositives(rng);
  }

  Dataset a_{"a"}, b_{"b"};
  ReferenceLinkSet links_;
};

TEST_F(GenLinkEdgeTest, ZeroIterationsReturnsInitialBest) {
  GenLinkConfig config;
  config.population_size = 20;
  config.max_iterations = 0;
  config.num_threads = 1;
  GenLink learner(a_, b_, config);
  Rng rng(2);
  auto result = learner.Learn(links_, nullptr, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->trajectory.iterations.size(), 1u);  // iteration 0 only
  EXPECT_FALSE(result->best_rule.empty());
}

// An empty population has no best rule to report: Learn must refuse it
// by name instead of indexing into nothing.
TEST_F(GenLinkEdgeTest, ZeroPopulationIsInvalidArgument) {
  GenLinkConfig config;
  config.population_size = 0;
  config.num_threads = 1;
  GenLink learner(a_, b_, config);
  Rng rng(2);
  auto result = learner.Learn(links_, nullptr, rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("population_size"),
            std::string::npos)
      << result.status().ToString();
}

// Learn evolves exactly one population: any other island count is
// refused by name rather than silently run as one.
TEST_F(GenLinkEdgeTest, IslandCountOtherThanOneIsInvalidArgument) {
  for (size_t islands : {0u, 2u}) {
    GenLinkConfig config;
    config.population_size = 20;
    config.num_islands = islands;
    config.num_threads = 1;
    GenLink learner(a_, b_, config);
    Rng rng(2);
    auto result = learner.Learn(links_, nullptr, rng);
    ASSERT_FALSE(result.ok()) << islands << " islands";
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("num_islands"),
              std::string::npos)
        << result.status().ToString();
  }
}

TEST_F(GenLinkEdgeTest, PopulationOfOneStillWorks) {
  GenLinkConfig config;
  config.population_size = 1;
  config.max_iterations = 3;
  config.elitism = 0;
  config.num_threads = 1;
  GenLink learner(a_, b_, config);
  Rng rng(3);
  auto result = learner.Learn(links_, nullptr, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->best_rule.Validate().ok());
}

TEST_F(GenLinkEdgeTest, ElitismLargerThanPopulationIsClamped) {
  GenLinkConfig config;
  config.population_size = 4;
  config.max_iterations = 2;
  config.elitism = 100;
  config.num_threads = 1;
  GenLink learner(a_, b_, config);
  Rng rng(4);
  auto result = learner.Learn(links_, nullptr, rng);
  ASSERT_TRUE(result.ok());
}

TEST_F(GenLinkEdgeTest, NoElitismStillLearns) {
  GenLinkConfig config;
  config.population_size = 30;
  config.max_iterations = 10;
  config.elitism = 0;  // the paper's verbatim Algorithm 1
  config.num_threads = 1;
  GenLink learner(a_, b_, config);
  Rng rng(5);
  auto result = learner.Learn(links_, nullptr, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->trajectory.iterations.back().train_f1, 0.8);
}

TEST_F(GenLinkEdgeTest, EmptyTrainingLinksFail) {
  ReferenceLinkSet empty;
  GenLinkConfig config;
  config.population_size = 10;
  config.num_threads = 1;
  GenLink learner(a_, b_, config);
  Rng rng(6);
  // No links: learning still runs (fitness all zero) but must not crash;
  // the result is a valid (if useless) rule.
  auto result = learner.Learn(empty, nullptr, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->best_rule.Validate().ok());
}

TEST_F(GenLinkEdgeTest, PopulationStaysDiverse) {
  // Duplicate suppression: a generation never consists of structurally
  // identical rules only.
  GenLinkConfig config;
  config.population_size = 40;
  config.max_iterations = 8;
  config.num_threads = 1;
  GenLink learner(a_, b_, config);
  Rng rng(7);
  size_t min_distinct = config.population_size;
  IterationCallback callback = [&](const IterationStats& stats,
                                   const Population& population) {
    if (stats.iteration == 0) return;  // initial population may collide
    std::set<uint64_t> hashes;
    for (const auto& ind : population.individuals()) {
      hashes.insert(CanonicalRuleHash(ind.rule));
    }
    min_distinct = std::min(min_distinct, hashes.size());
  };
  ASSERT_TRUE(learner.Learn(links_, nullptr, rng, callback).ok());
  EXPECT_GT(min_distinct, config.population_size / 2);
}

// --------------------------------------------------------- matcher corners

TEST(MatcherEdgeTest, BestMatchOnlyKeepsHighestScore) {
  Dataset a("a"), b("b");
  PropertyId pa = a.schema().AddProperty("t");
  PropertyId pb = b.schema().AddProperty("t");
  Entity ea("a0");
  ea.AddValue(pa, "alpha beta");
  ASSERT_TRUE(a.AddEntity(std::move(ea)).ok());
  Entity eb1("b0");
  eb1.AddValue(pb, "alpha beta");  // exact
  ASSERT_TRUE(b.AddEntity(std::move(eb1)).ok());
  Entity eb2("b1");
  eb2.AddValue(pb, "alpha betx");  // near
  ASSERT_TRUE(b.AddEntity(std::move(eb2)).ok());

  auto rule = RuleBuilder()
                  .Compare("levenshtein", 2.0, Prop("t"), Prop("t"))
                  .Build();
  ASSERT_TRUE(rule.ok());

  MatchOptions all;
  EXPECT_EQ(GenerateLinks(*rule, a, b, all).size(), 2u);

  MatchOptions best;
  best.best_match_only = true;
  auto links = GenerateLinks(*rule, a, b, best);
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links[0].id_b, "b0");
}

TEST(MatcherEdgeTest, EmptyDatasetsYieldNoLinks) {
  Dataset a("a"), b("b");
  auto rule = RuleBuilder()
                  .Compare("levenshtein", 1.0, Prop("x"), Prop("x"))
                  .Build();
  ASSERT_TRUE(rule.ok());
  EXPECT_TRUE(GenerateLinks(*rule, a, b).empty());
}

// ----------------------------------------------------- extreme rule values

TEST(ExtremeValuesTest, HugeThresholdAlwaysMatchesComparables) {
  Dataset a("a"), b("b");
  PropertyId pa = a.schema().AddProperty("x");
  PropertyId pb = b.schema().AddProperty("x");
  Entity ea("e1");
  ea.AddValue(pa, "completely");
  ASSERT_TRUE(a.AddEntity(std::move(ea)).ok());
  Entity eb("e2");
  eb.AddValue(pb, "different");
  ASSERT_TRUE(b.AddEntity(std::move(eb)).ok());

  auto rule = RuleBuilder()
                  .Compare("levenshtein", 1e9, Prop("x"), Prop("x"))
                  .Build();
  ASSERT_TRUE(rule.ok());
  double score = rule->Evaluate(*a.FindEntity("e1"), *b.FindEntity("e2"),
                                a.schema(), b.schema());
  EXPECT_GT(score, 0.99);  // 1 - d/1e9
}

TEST(ExtremeValuesTest, RuleOnEntityWithManyValues) {
  Dataset a("a"), b("b");
  PropertyId pa = a.schema().AddProperty("x");
  PropertyId pb = b.schema().AddProperty("x");
  Entity ea("e1");
  for (int i = 0; i < 500; ++i) ea.AddValue(pa, "v" + std::to_string(i));
  ASSERT_TRUE(a.AddEntity(std::move(ea)).ok());
  Entity eb("e2");
  eb.AddValue(pb, "v499");
  ASSERT_TRUE(b.AddEntity(std::move(eb)).ok());

  auto rule = RuleBuilder()
                  .Compare("equality", 0.5, Prop("x"), Prop("x"))
                  .Build();
  ASSERT_TRUE(rule.ok());
  // Min-over-pairs lift finds the one equal value.
  EXPECT_DOUBLE_EQ(rule->Evaluate(*a.FindEntity("e1"), *b.FindEntity("e2"),
                                  a.schema(), b.schema()),
                   1.0);
}

}  // namespace
}  // namespace genlink

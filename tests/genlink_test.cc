// End-to-end tests of the GenLink learner (Algorithm 1): learning a
// separable toy task perfectly, monotone best-fitness under elitism,
// determinism, early stopping, restriction modes and the population /
// selection building blocks.

#include <gtest/gtest.h>

#include "gp/genlink.h"
#include "gp/selection.h"
#include "rule/builder.h"
#include "rule/rule_hash.h"
#include "rule/serialize.h"

namespace genlink {
namespace {

// A toy matching task that is perfectly separable by comparing the
// "name" properties: positives share the name, negatives do not.
class GenLinkToyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PropertyId a_name = a_.schema().AddProperty("name");
    PropertyId a_extra = a_.schema().AddProperty("extra");
    PropertyId b_name = b_.schema().AddProperty("title");  // different schema
    PropertyId b_extra = b_.schema().AddProperty("other");

    const char* names[] = {"alpha", "bravo",  "charlie", "delta", "echo",
                           "foxtrot", "golf", "hotel",   "india", "juliet",
                           "kilo",  "lima",   "mike",    "november", "oscar",
                           "papa",  "quebec", "romeo",   "sierra", "tango"};
    for (int i = 0; i < 20; ++i) {
      Entity ea("a" + std::to_string(i));
      ea.AddValue(a_name, names[i]);
      ea.AddValue(a_extra, "x" + std::to_string(i % 3));
      ASSERT_TRUE(a_.AddEntity(std::move(ea)).ok());

      Entity eb("b" + std::to_string(i));
      eb.AddValue(b_name, names[i]);
      eb.AddValue(b_extra, "y" + std::to_string(i % 5));
      ASSERT_TRUE(b_.AddEntity(std::move(eb)).ok());

      links_.AddPositive("a" + std::to_string(i), "b" + std::to_string(i));
    }
    Rng rng(17);
    links_.GenerateNegativesFromPositives(rng);
  }

  GenLinkConfig SmallConfig() {
    GenLinkConfig config;
    config.population_size = 40;
    config.max_iterations = 15;
    config.num_threads = 1;
    return config;
  }

  Dataset a_{"a"}, b_{"b"};
  ReferenceLinkSet links_;
};

TEST_F(GenLinkToyTest, LearnsSeparableTaskToFullFMeasure) {
  GenLink learner(a_, b_, SmallConfig());
  Rng rng(1);
  auto result = learner.Learn(links_, nullptr, rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->trajectory.iterations.empty());
  EXPECT_DOUBLE_EQ(result->trajectory.iterations.back().train_f1, 1.0);
  EXPECT_TRUE(result->best_rule.Validate().ok());
}

TEST_F(GenLinkToyTest, EarlyStopOnFullFMeasure) {
  GenLinkConfig config = SmallConfig();
  config.max_iterations = 50;
  GenLink learner(a_, b_, config);
  Rng rng(2);
  auto result = learner.Learn(links_, nullptr, rng);
  ASSERT_TRUE(result.ok());
  // The toy task is learned long before 50 iterations; the stop
  // condition must have fired.
  EXPECT_LT(result->trajectory.iterations.size(), 51u);
  EXPECT_DOUBLE_EQ(result->trajectory.iterations.back().train_f1, 1.0);
}

TEST_F(GenLinkToyTest, ElitismKeepsBestFitnessMonotone) {
  GenLink learner(a_, b_, SmallConfig());
  Rng rng(3);
  auto result = learner.Learn(links_, nullptr, rng);
  ASSERT_TRUE(result.ok());
  double previous = -1.0;
  for (const auto& stats : result->trajectory.iterations) {
    EXPECT_GE(stats.train_f1 + 1e-9, previous);
    previous = stats.train_f1;
  }
}

TEST_F(GenLinkToyTest, DeterministicForSameSeed) {
  GenLink learner(a_, b_, SmallConfig());
  Rng rng1(42), rng2(42);
  auto r1 = learner.Learn(links_, nullptr, rng1);
  auto r2 = learner.Learn(links_, nullptr, rng2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(CanonicalRuleHash(r1->best_rule), CanonicalRuleHash(r2->best_rule));
  ASSERT_EQ(r1->trajectory.iterations.size(), r2->trajectory.iterations.size());
  for (size_t i = 0; i < r1->trajectory.iterations.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1->trajectory.iterations[i].train_f1,
                     r2->trajectory.iterations[i].train_f1);
  }
}

TEST_F(GenLinkToyTest, ValidationScoresAreRecorded) {
  Rng split_rng(5);
  auto folds = links_.SplitFolds(2, split_rng);
  GenLink learner(a_, b_, SmallConfig());
  Rng rng(7);
  auto result = learner.Learn(folds[0], &folds[1], rng);
  ASSERT_TRUE(result.ok());
  // Validation F1 must be populated and high for this separable task.
  EXPECT_GT(result->trajectory.iterations.back().val_f1, 0.8);
}

TEST_F(GenLinkToyTest, SeedingFindsTheCrossSchemaPair) {
  GenLink learner(a_, b_, SmallConfig());
  Rng rng(9);
  auto result = learner.Learn(links_, nullptr, rng);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->compatible_pairs.empty());
  EXPECT_EQ(result->compatible_pairs[0].property_a, "name");
  EXPECT_EQ(result->compatible_pairs[0].property_b, "title");
}

TEST_F(GenLinkToyTest, AllRepresentationModesLearnTheToyTask) {
  for (RepresentationMode mode :
       {RepresentationMode::kBoolean, RepresentationMode::kLinear,
        RepresentationMode::kNonlinear, RepresentationMode::kFull}) {
    GenLinkConfig config = SmallConfig();
    config.mode = mode;
    GenLink learner(a_, b_, config);
    Rng rng(11);
    auto result = learner.Learn(links_, nullptr, rng);
    ASSERT_TRUE(result.ok()) << RepresentationModeName(mode);
    EXPECT_GT(result->trajectory.iterations.back().train_f1, 0.9)
        << RepresentationModeName(mode);
    // Restricted modes must respect their representation.
    if (mode != RepresentationMode::kFull) {
      EXPECT_TRUE(CollectTransforms(result->best_rule).empty())
          << RepresentationModeName(mode);
    }
  }
}

TEST_F(GenLinkToyTest, SubtreeCrossoverOnlyAlsoLearns) {
  GenLinkConfig config = SmallConfig();
  config.subtree_crossover_only = true;
  GenLink learner(a_, b_, config);
  Rng rng(13);
  auto result = learner.Learn(links_, nullptr, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->trajectory.iterations.back().train_f1, 0.9);
}

TEST_F(GenLinkToyTest, UnseededPopulationAlsoRuns) {
  GenLinkConfig config = SmallConfig();
  config.seeded_population = false;
  GenLink learner(a_, b_, config);
  Rng rng(15);
  auto result = learner.Learn(links_, nullptr, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->compatible_pairs.empty());
  EXPECT_GE(result->initial_population_mean_f1, 0.0);
}

TEST_F(GenLinkToyTest, MaxOperatorBoundIsRespected) {
  GenLinkConfig config = SmallConfig();
  config.max_operators = 12;
  GenLink learner(a_, b_, config);
  Rng rng(19);
  IterationCallback callback = [&](const IterationStats&,
                                   const Population& population) {
    for (const auto& individual : population.individuals()) {
      EXPECT_LE(individual.rule.OperatorCount(), 12u);
    }
  };
  ASSERT_TRUE(learner.Learn(links_, nullptr, rng, callback).ok());
}

TEST_F(GenLinkToyTest, LearnFailsCleanlyOnUnresolvableLinks) {
  ReferenceLinkSet bad;
  bad.AddPositive("a0", "no-such-entity");
  GenLink learner(a_, b_, SmallConfig());
  Rng rng(1);
  auto result = learner.Learn(bad, nullptr, rng);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------- population + selection

TEST(PopulationTest, BestIndexByFitness) {
  Population population;
  for (int i = 0; i < 5; ++i) {
    Individual ind;
    ind.fitness.fitness = 0.1 * i;
    ind.fitness.f_measure = 1.0 - 0.1 * i;
    ind.evaluated = true;
    population.Add(std::move(ind));
  }
  // By fitness, not by training F-measure (which peaks at index 0).
  EXPECT_EQ(population.BestIndex(), 4u);
}

TEST(SelectionTest, TournamentPrefersFitter) {
  Population population;
  for (int i = 0; i < 50; ++i) {
    Individual ind;
    ind.fitness.fitness = (i == 42) ? 1.0 : 0.0;
    ind.evaluated = true;
    population.Add(std::move(ind));
  }
  Rng rng(23);
  // With tournament size 50 the single best is practically always found.
  size_t wins = 0;
  for (int i = 0; i < 50; ++i) {
    if (TournamentSelect(population, 50, rng) == 42) ++wins;
  }
  EXPECT_GT(wins, 30u);
}

TEST(SelectionTest, TournamentSizeOneIsUniform) {
  Population population;
  for (int i = 0; i < 10; ++i) {
    Individual ind;
    ind.fitness.fitness = i;
    ind.evaluated = true;
    population.Add(std::move(ind));
  }
  Rng rng(29);
  std::vector<int> histogram(10, 0);
  for (int i = 0; i < 2000; ++i) {
    ++histogram[TournamentSelect(population, 1, rng)];
  }
  for (int count : histogram) EXPECT_GT(count, 100);
}

}  // namespace
}  // namespace genlink

// Determinism guarantees: identical seeds reproduce identical results
// regardless of thread count; genetic operators never mutate their
// parents; generators are stable across invocations. These back the
// reproducibility claims of the README.

#include <gtest/gtest.h>

#include "datasets/cora.h"
#include "datasets/sider_drugbank.h"
#include "gp/crossover.h"
#include "gp/genlink.h"
#include "rule/rule_hash.h"
#include "rule/serialize.h"

namespace genlink {
namespace {

// ----------------------------------------------- thread-count invariance

class ThreadInvarianceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CoraConfig config;
    config.scale = 0.05;
    task_ = GenerateCora(config);
  }

  MatchingTask task_;
};

TEST_F(ThreadInvarianceTest, LearnResultIndependentOfThreadCount) {
  auto run = [&](size_t threads) {
    GenLinkConfig config;
    config.population_size = 40;
    config.max_iterations = 6;
    config.num_threads = threads;
    GenLink learner(task_.Source(), task_.Target(), config);
    Rng rng(77);
    auto result = learner.Learn(task_.links, nullptr, rng);
    EXPECT_TRUE(result.ok());
    return result.ok() ? CanonicalRuleHash(result->best_rule) : 0;
  };
  uint64_t single = run(1);
  uint64_t quad = run(4);
  EXPECT_EQ(single, quad);
}

TEST_F(ThreadInvarianceTest, PopulationEvaluationIndependentOfThreadCount) {
  auto pairs = task_.links.Resolve(task_.Source(), task_.Target());
  ASSERT_TRUE(pairs.ok());
  FitnessEvaluator evaluator(*pairs, task_.Source().schema(),
                             task_.Target().schema());

  auto build_population = [&] {
    std::vector<CompatiblePair> seeded;
    seeded.push_back(
        {"title", "title", DistanceRegistry::Default().Find("levenshtein"), 5});
    RuleGenerator generator(seeded, {"title"}, {"title"});
    Rng rng(5);
    Population population;
    for (int i = 0; i < 64; ++i) {
      population.Add(Individual{generator.RandomRule(rng), {}, false});
    }
    return population;
  };

  // One engine batch over the whole population, as the learner does.
  auto evaluate = [&](Population& population, size_t threads) {
    EngineConfig config;
    config.num_threads = threads;
    EvaluationEngine engine(*pairs, task_.Source().schema(),
                            task_.Target().schema(), {}, config);
    std::vector<const LinkageRule*> rules;
    for (const Individual& individual : population.individuals()) {
      rules.push_back(&individual.rule);
    }
    std::vector<FitnessResult> results(rules.size());
    engine.EvaluateBatch(rules, results);
    for (size_t i = 0; i < population.size(); ++i) {
      population[i].fitness = results[i];
    }
  };

  Population p1 = build_population();
  Population p4 = build_population();
  evaluate(p1, 1);
  evaluate(p4, 4);
  ASSERT_EQ(p1.size(), p4.size());
  for (size_t i = 0; i < p1.size(); ++i) {
    EXPECT_DOUBLE_EQ(p1[i].fitness.fitness, p4[i].fitness.fitness) << i;
  }
  // And both match the serial reference evaluator bit for bit.
  for (size_t i = 0; i < p1.size(); ++i) {
    FitnessResult serial = evaluator.Evaluate(p1[i].rule);
    EXPECT_EQ(p1[i].fitness.fitness, serial.fitness) << i;
    EXPECT_EQ(p1[i].fitness.mcc, serial.mcc) << i;
  }
}

// ------------------------------------------------- parent immutability

TEST(ParentImmutabilityTest, CrossoverNeverMutatesParents) {
  Rng rng(13);
  std::vector<CompatiblePair> pairs;
  const auto& reg = DistanceRegistry::Default();
  pairs.push_back({"title", "name", reg.Find("levenshtein"), 5});
  pairs.push_back({"date", "released", reg.Find("date"), 3});
  RuleGenerator generator(pairs, {"title", "date"}, {"name", "released"});
  auto operators = MakeCrossoverSet(RepresentationMode::kFull);
  operators.push_back(std::make_unique<SubtreeCrossover>());

  for (int i = 0; i < 200; ++i) {
    LinkageRule r1 = generator.RandomRule(rng);
    LinkageRule r2 = generator.RandomRule(rng);
    uint64_t h1 = CanonicalRuleHash(r1);
    uint64_t h2 = CanonicalRuleHash(r2);
    const CrossoverOperator& op = *operators[rng.PickIndex(operators.size())];
    auto child = op.Cross(r1, r2, rng);
    EXPECT_EQ(CanonicalRuleHash(r1), h1)
        << op.name() << " mutated its first parent";
    EXPECT_EQ(CanonicalRuleHash(r2), h2)
        << op.name() << " mutated its second parent";
    if (child.has_value()) {
      // And the child is detached: mutating it leaves the parents alone.
      auto comparisons = CollectComparisons(*child);
      if (!comparisons.empty()) {
        comparisons[0]->set_threshold(12345.0);
        EXPECT_EQ(CanonicalRuleHash(r1), h1);
        EXPECT_EQ(CanonicalRuleHash(r2), h2);
      }
    }
  }
}

// ------------------------------------------------- generator determinism

TEST(GeneratorDeterminismTest, IdenticalConfigIdenticalData) {
  SiderDrugbankConfig config;
  config.scale = 0.05;
  MatchingTask t1 = GenerateSiderDrugbank(config);
  MatchingTask t2 = GenerateSiderDrugbank(config);
  ASSERT_EQ(t1.a.size(), t2.a.size());
  ASSERT_EQ(t1.b.size(), t2.b.size());
  for (size_t i = 0; i < t1.a.size(); ++i) {
    EXPECT_EQ(t1.a.entity(i).id(), t2.a.entity(i).id());
    for (PropertyId p = 0; p < t1.a.schema().NumProperties(); ++p) {
      EXPECT_EQ(t1.a.entity(i).Values(p), t2.a.entity(i).Values(p));
    }
  }
  ASSERT_EQ(t1.links.positives().size(), t2.links.positives().size());
  for (size_t i = 0; i < t1.links.positives().size(); ++i) {
    EXPECT_EQ(t1.links.positives()[i], t2.links.positives()[i]);
  }
}

TEST(GeneratorDeterminismTest, DifferentSeedsDifferentData) {
  SiderDrugbankConfig c1, c2;
  c1.scale = c2.scale = 0.05;
  c2.seed = c1.seed + 1;
  MatchingTask t1 = GenerateSiderDrugbank(c1);
  MatchingTask t2 = GenerateSiderDrugbank(c2);
  auto name = t1.a.schema().FindProperty("drugName");
  ASSERT_TRUE(name.has_value());
  bool any_diff = false;
  for (size_t i = 0; i < std::min(t1.a.size(), t2.a.size()); ++i) {
    if (t1.a.entity(i).Values(*name) != t2.a.entity(i).Values(*name)) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

// Serialization is deterministic: the same rule always renders to the
// same bytes (a requirement for reproducible rule files).
TEST(SerializationDeterminismTest, StableBytes) {
  Rng rng(99);
  std::vector<CompatiblePair> pairs;
  pairs.push_back(
      {"x", "y", DistanceRegistry::Default().Find("levenshtein"), 1});
  RuleGenerator generator(pairs, {"x"}, {"y"});
  for (int i = 0; i < 30; ++i) {
    LinkageRule rule = generator.RandomRule(rng);
    EXPECT_EQ(ToSexpr(rule), ToSexpr(rule));
    EXPECT_EQ(ToPrettySexpr(rule), ToPrettySexpr(rule));
    LinkageRule clone = rule.Clone();
    EXPECT_EQ(ToSexpr(rule), ToSexpr(clone));
  }
}

}  // namespace
}  // namespace genlink

// Determinism guarantees: identical seeds reproduce identical results
// regardless of thread count; genetic operators never mutate their
// parents; generators are stable across invocations. These back the
// reproducibility claims of the README.

#include <gtest/gtest.h>

#include "datasets/cora.h"
#include "datasets/sider_drugbank.h"
#include "gp/crossover.h"
#include "gp/genlink.h"
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
    return result.ok() ? result->best_rule.StructuralHash() : 0;
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

// ------------------------------------------------ island-model invariance

// A process-stable fingerprint of a LearnResult: the best rule's
// structural hash plus every deterministic number of the merged and
// per-island trajectories. Two runs with equal fingerprints learned the
// same rules along the same path (wall-clock seconds excluded).
struct LearnFingerprint {
  uint64_t rule_hash = 0;
  double initial_mean_f1 = 0.0;
  std::string best_rule_sexpr;
  std::vector<double> numbers;

  bool operator==(const LearnFingerprint&) const = default;
};

LearnFingerprint Fingerprint(const LearnResult& result) {
  LearnFingerprint fp;
  fp.rule_hash = result.best_rule.StructuralHash();
  fp.initial_mean_f1 = result.initial_population_mean_f1;
  fp.best_rule_sexpr = result.trajectory.best_rule_sexpr;
  auto add_trajectory = [&](const RunTrajectory& trajectory) {
    for (const IterationStats& stats : trajectory.iterations) {
      fp.numbers.push_back(static_cast<double>(stats.iteration));
      fp.numbers.push_back(stats.train_f1);
      fp.numbers.push_back(stats.val_f1);
      fp.numbers.push_back(stats.train_mcc);
      fp.numbers.push_back(stats.val_mcc);
      fp.numbers.push_back(stats.mean_operators);
      fp.numbers.push_back(stats.best_operators);
    }
  };
  add_trajectory(result.trajectory);
  for (const RunTrajectory& island : result.island_trajectories) {
    add_trajectory(island);
  }
  return fp;
}

class IslandDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CoraConfig config;
    config.scale = 0.05;
    task_ = GenerateCora(config);
  }

  // One learning run with a fixed master seed: train on fold 0,
  // validate on fold 1 (so val_* numbers are part of the fingerprint).
  LearnFingerprint Run(size_t islands, size_t threads,
                       size_t migration_interval) {
    GenLinkConfig config;
    config.population_size = 32;
    config.max_iterations = 5;
    config.num_threads = threads;
    config.num_islands = islands;
    config.migration_interval = migration_interval;
    config.migration_size = 2;
    Rng rng(2024);
    auto folds = task_.links.SplitFolds(2, rng);
    GenLink learner(task_.Source(), task_.Target(), config);
    auto result = learner.Learn(folds[0], &folds[1], rng);
    EXPECT_TRUE(result.ok());
    return result.ok() ? Fingerprint(*result) : LearnFingerprint{};
  }

  MatchingTask task_;
};

// Same master seed => identical best rule and identical merged AND
// per-island trajectories at any thread count, for one, two and four
// islands. With migration every 2 generations of a 5-generation run,
// this also proves migration (which replaces concrete individuals) is
// independent of how breeding tasks were scheduled across threads.
TEST_F(IslandDeterminismTest, ResultIndependentOfThreadCount) {
  for (size_t islands : {1u, 2u, 4u}) {
    LearnFingerprint single = Run(islands, 1, /*migration_interval=*/2);
    EXPECT_FALSE(single.numbers.empty());
    EXPECT_EQ(single, Run(islands, 4, 2)) << islands << " islands, 4 threads";
    EXPECT_EQ(single, Run(islands, 8, 2)) << islands << " islands, 8 threads";
  }
}

// Migration every generation (the most scheduling-sensitive setting):
// the whole ring still replays identically across thread counts.
TEST_F(IslandDeterminismTest, PerGenerationMigrationIsDeterministic) {
  LearnFingerprint single = Run(4, 1, /*migration_interval=*/1);
  EXPECT_EQ(single, Run(4, 8, 1));
}

// Multiple islands explore genuinely different populations: with
// distinct per-island RNG streams the islands must not all evolve the
// same trajectory (they may still converge to the same best rule).
TEST_F(IslandDeterminismTest, IslandsEvolveIndependentPopulations) {
  GenLinkConfig config;
  config.population_size = 32;
  config.max_iterations = 3;
  config.num_islands = 3;
  config.migration_interval = 0;  // isolation: no mixing at all
  GenLink learner(task_.Source(), task_.Target(), config);
  Rng rng(5);
  auto result = learner.Learn(task_.links, nullptr, rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->island_trajectories.size(), 3u);
  bool any_difference = false;
  for (size_t i = 1; i < result->island_trajectories.size(); ++i) {
    if (result->island_trajectories[i].best_rule_sexpr !=
        result->island_trajectories[0].best_rule_sexpr) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference)
      << "all islands evolved identical best rules from distinct streams";
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
    uint64_t h1 = r1.StructuralHash();
    uint64_t h2 = r2.StructuralHash();
    const CrossoverOperator& op = *operators[rng.PickIndex(operators.size())];
    auto child = op.Cross(r1, r2, rng);
    EXPECT_EQ(r1.StructuralHash(), h1)
        << op.name() << " mutated its first parent";
    EXPECT_EQ(r2.StructuralHash(), h2)
        << op.name() << " mutated its second parent";
    if (child.has_value()) {
      // And the child is detached: mutating it leaves the parents alone.
      auto comparisons = CollectComparisons(*child);
      if (!comparisons.empty()) {
        comparisons[0]->set_threshold(12345.0);
        EXPECT_EQ(r1.StructuralHash(), h1);
        EXPECT_EQ(r2.StructuralHash(), h2);
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

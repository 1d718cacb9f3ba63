// Golden-file tests for generated link output: a fixed rule over the
// deterministic Restaurant generator must produce byte-identical CSV
// and owl:sameAs N-Triples through GenerateLinks + io/link_io, covering
// the threshold and best_match_only matcher options (which previously
// had no direct output test). The matcher sorts links by (score desc,
// id_a, id_b) — a total order — and the writers format scores with a
// fixed precision, so the bytes are stable across platforms and thread
// counts.
//
// The same directory pins the learner: GoldenLearnTest records the
// whole GenLink trajectory (initial mean F1, per-iteration train and
// validation F1/MCC and operator counts as exact hex floats, and the
// best rule) for a fixed seed on Restaurant and Cora. Any change to
// the search's draw order, breeding or fitness shows up as a byte diff.
//
// The golden files live in tests/golden/ (path baked in via the
// GENLINK_TEST_GOLDEN_DIR compile definition). To regenerate after an
// intentional output change:
//   GENLINK_REGEN_GOLDEN=1 ./golden_links_test

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "datasets/cora.h"
#include "datasets/restaurant.h"
#include "gp/genlink.h"
#include "io/link_io.h"
#include "matcher/matcher.h"
#include "rule/parse.h"

namespace genlink {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(GENLINK_TEST_GOLDEN_DIR) + "/" + name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with GENLINK_REGEN_GOLDEN=1)";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool RegenRequested() {
  const char* regen = std::getenv("GENLINK_REGEN_GOLDEN");
  return regen != nullptr && regen[0] != '\0' && regen[0] != '0';
}

// Compares `actual` against the golden file byte for byte; in regen
// mode rewrites the file instead.
void ExpectMatchesGolden(const std::string& actual, const std::string& name) {
  const std::string path = GoldenPath(name);
  if (RegenRequested()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::string expected = ReadFileOrDie(path);
  EXPECT_EQ(actual, expected) << "output differs from golden " << path;
}

class GoldenLinksTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RestaurantConfig config;
    config.scale = 0.3;  // 259 records, seconds-fast, still ~30 links
    task_ = GenerateRestaurant(config);

    std::string rule_text = ReadFileOrDie(GoldenPath("restaurant.rule"));
    ASSERT_FALSE(rule_text.empty());
    auto rule = ParseRule(rule_text);
    ASSERT_TRUE(rule.ok()) << rule.status().ToString();
    rule_ = std::move(*rule);
  }

  std::vector<GeneratedLink> Generate(const MatchOptions& options) {
    return GenerateLinks(rule_, task_.Source(), task_.Target(), options);
  }

  MatchingTask task_;
  LinkageRule rule_;
};

TEST_F(GoldenLinksTest, DefaultThresholdCsvAndNt) {
  MatchOptions options;
  auto links = Generate(options);
  EXPECT_GT(links.size(), 10u);
  ExpectMatchesGolden(WriteGeneratedLinksCsv(links), "restaurant_links.csv");
  ExpectMatchesGolden(WriteGeneratedLinksNt(links), "restaurant_links.nt");
}

TEST_F(GoldenLinksTest, HighThresholdVariant) {
  MatchOptions options;
  options.threshold = 0.75;
  auto links = Generate(options);
  ExpectMatchesGolden(WriteGeneratedLinksCsv(links),
                      "restaurant_links_t075.csv");
}

// Golden regenerated when best_match_only gained its deterministic
// tie-break (score desc, then id_b asc — see MatchOptions): two
// Restaurant sources have several exact-1.0 duplicates, and the old
// code kept whichever came first in candidate-enumeration order.
TEST_F(GoldenLinksTest, BestMatchOnlyVariant) {
  MatchOptions options;
  options.best_match_only = true;
  auto links = Generate(options);
  ExpectMatchesGolden(WriteGeneratedLinksCsv(links),
                      "restaurant_links_best.csv");
}

// The golden bytes must not depend on the execution strategy: blocking
// vs cross product and 1 vs 4 threads all serialize to the same files.
// (The spec-vs-compiled reference lives in tests/rule_oracle_test.cc.)
TEST_F(GoldenLinksTest, OutputIndependentOfExecutionStrategy) {
  MatchOptions base;
  std::string golden = WriteGeneratedLinksCsv(Generate(base));

  MatchOptions cross = base;
  cross.use_blocking = false;
  EXPECT_EQ(WriteGeneratedLinksCsv(Generate(cross)), golden);

  MatchOptions threads = base;
  threads.num_threads = 4;
  EXPECT_EQ(WriteGeneratedLinksCsv(Generate(threads)), golden);
}

// ------------------------------------------------ learner trajectory

std::string HexFloat(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

// Every deterministic number of a learning run, as exact hex floats
// (wall-clock seconds excluded), followed by the best rule.
std::string TrajectoryText(const LearnResult& result) {
  std::string text = "initial_population_mean_f1 ";
  text += HexFloat(result.initial_population_mean_f1);
  text +=
      "\n# iteration train_f1 val_f1 train_mcc val_mcc mean_operators "
      "best_operators\n";
  for (const IterationStats& stats : result.trajectory.iterations) {
    text += std::to_string(stats.iteration);
    for (double value : {stats.train_f1, stats.val_f1, stats.train_mcc,
                         stats.val_mcc, stats.mean_operators,
                         stats.best_operators}) {
      text += ' ';
      text += HexFloat(value);
    }
    text += '\n';
  }
  text += result.trajectory.best_rule_sexpr;
  text += '\n';
  return text;
}

// Population 32, 5 iterations, never stopping early; the links split
// 2-fold from the master seed, training on fold 0 and validating on
// fold 1 (so the validation numbers are pinned too).
std::string LearnTrajectory(const MatchingTask& task, size_t threads) {
  GenLinkConfig config;
  config.population_size = 32;
  config.max_iterations = 5;
  config.stop_f_measure = 1.1;
  config.num_threads = threads;
  Rng rng(2024);
  auto folds = task.links.SplitFolds(2, rng);
  auto result = GenLink(task.Source(), task.Target(), config)
                    .Learn(folds[0], &folds[1], rng);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? TrajectoryText(*result) : std::string();
}

void ExpectTrajectoryGolden(const MatchingTask& task, const std::string& name) {
  const std::string reference = LearnTrajectory(task, 1);
  ExpectMatchesGolden(reference, name);
  EXPECT_EQ(LearnTrajectory(task, 4), reference) << "at 4 threads";
}

TEST(GoldenLearnTest, RestaurantTrajectory) {
  RestaurantConfig config;
  config.scale = 0.3;
  ExpectTrajectoryGolden(GenerateRestaurant(config), "learn_restaurant.txt");
}

TEST(GoldenLearnTest, CoraTrajectory) {
  CoraConfig config;
  config.scale = 0.05;
  ExpectTrajectoryGolden(GenerateCora(config), "learn_cora.txt");
}

}  // namespace
}  // namespace genlink

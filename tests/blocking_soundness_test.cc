// Soundness of token blocking on the Restaurant data set: the candidate
// sets produced by TokenBlockingIndex must be a superset of the true
// matches found by exhaustive cross-product execution, i.e. blocking may
// only ever *add* work, never lose a link (blocking recall = 1.0).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "common/random.h"
#include "datasets/noise.h"
#include "datasets/restaurant.h"
#include "distance/string_distances.h"
#include "eval/blocking_stats.h"
#include "matcher/matcher.h"
#include "rule/builder.h"

namespace genlink {
namespace {

class BlockingSoundnessTest : public ::testing::Test {
 protected:
  void SetUp() override { task_ = GenerateRestaurant(RestaurantConfig{}); }

  // A realistic learned-style rule over the properties the paper's
  // Restaurant runs converge to (name + address + phone).
  LinkageRule MakeRule() {
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

  static std::set<std::pair<std::string, std::string>> ToPairs(
      const std::vector<GeneratedLink>& links) {
    std::set<std::pair<std::string, std::string>> pairs;
    for (const auto& link : links) pairs.insert({link.id_a, link.id_b});
    return pairs;
  }

  MatchingTask task_;
};

TEST_F(BlockingSoundnessTest, CandidatesSupersetOfCrossProductMatches) {
  LinkageRule rule = MakeRule();
  MatchOptions exhaustive;
  exhaustive.use_blocking = false;
  MatchOptions blocked;
  blocked.use_blocking = true;

  auto full = ToPairs(GenerateLinks(rule, task_.Source(), task_.Target(),
                                    exhaustive));
  auto with_blocking =
      ToPairs(GenerateLinks(rule, task_.Source(), task_.Target(), blocked));

  // Every link the exhaustive cross product finds must survive blocking.
  ASSERT_FALSE(full.empty());
  for (const auto& link : full) {
    EXPECT_TRUE(with_blocking.count(link))
        << "blocking dropped " << link.first << " - " << link.second;
  }
  // And blocking cannot invent links either: the sets are equal.
  EXPECT_EQ(full, with_blocking);
}

TEST_F(BlockingSoundnessTest, CandidateSetsContainReferenceMatches) {
  // Index the target over the rule's target-side properties, exactly as
  // the matcher does, and probe with every positive reference link.
  LinkageRule rule = MakeRule();
  TokenBlockingIndex index(task_.Target(), TargetProperties(rule));
  for (const ReferenceLink& link : task_.links.positives()) {
    const Entity* a = task_.Source().FindEntity(link.id_a);
    ASSERT_NE(a, nullptr);
    bool found = false;
    for (size_t j : index.Candidates(*a, task_.Source().schema())) {
      if (task_.Target().entity(j).id() == link.id_b) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "blocking lost reference match " << link.id_a
                       << " - " << link.id_b;
  }
}

TEST_F(BlockingSoundnessTest, BlockingRecallIsOneOnReferenceLinks) {
  LinkageRule rule = MakeRule();
  TokenBlockingIndex index(task_.Target(), TargetProperties(rule));
  EXPECT_DOUBLE_EQ(MeasureBlockingQuality(index, task_.Source(),
                                          task_.Target(), task_.links)
                       .pairs_completeness,
                   1.0);
}

// An all-properties index (what `match` uses before a rule is known to
// read specific properties) is at least as complete.
TEST_F(BlockingSoundnessTest, AllPropertyIndexRecallIsOne) {
  TokenBlockingIndex index(task_.Target());
  EXPECT_DOUBLE_EQ(MeasureBlockingQuality(index, task_.Source(),
                                          task_.Target(), task_.links)
                       .pairs_completeness,
                   1.0);
}

// ---------------------------------------------------------------------------
// The Levenshtein prefilters (length + prefix masks) run before the
// kernels inside the candidate loop. Soundness means: a rejected pair's
// true edit distance always exceeds the bound, so skipping it is
// indistinguishable from scoring it — ThresholdedScore maps every
// distance > bound to similarity 0 either way.

TEST(LevenshteinPrefilterTest, FuzzNeverDropsAPairWithinBound) {
  Rng rng(20260807);
  const double bounds[] = {0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 7.5};
  for (int iter = 0; iter < 10000; ++iter) {
    // A base word and a mutated partner: typos keep many pairs near the
    // bound boundary, fresh words and prefix/suffix chops exercise the
    // far side and length mismatches.
    std::string a = RandomWord(1 + rng.PickIndex(16), rng);
    std::string b;
    switch (rng.PickIndex(4)) {
      case 0:
        b = InjectTypos(a, 1 + rng.PickIndex(4), rng);
        break;
      case 1:
        b = RandomWord(1 + rng.PickIndex(16), rng);
        break;
      case 2:
        b = a.substr(rng.PickIndex(a.size() + 1));
        break;
      default:
        b = a + RandomWord(1 + rng.PickIndex(6), rng);
        break;
    }
    const int distance = LevenshteinEditDistanceReference(a, b);
    for (const double bound : bounds) {
      if (!PassesLevenshteinLengthFilter(a, b, bound)) {
        EXPECT_GT(static_cast<double>(distance), bound)
            << "length filter dropped \"" << a << "\" / \"" << b << "\"";
      }
      if (!PassesLevenshteinPrefixFilter(a, b, bound)) {
        EXPECT_GT(static_cast<double>(distance), bound)
            << "prefix filter dropped \"" << a << "\" / \"" << b << "\"";
      }
    }
  }
}

TEST(LevenshteinPrefilterTest, FuzzBoundedDistanceStaysBitIdentical) {
  // End-to-end through the measure: the filtered BoundedValueDistance
  // must give the same thresholded similarity as the reference kernel
  // for every pair and bound.
  Rng rng(777);
  LevenshteinDistance measure;
  const double bounds[] = {0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 7.5};
  for (int iter = 0; iter < 10000; ++iter) {
    std::string a = RandomWord(1 + rng.PickIndex(14), rng);
    std::string b = rng.Bernoulli(0.5)
                        ? InjectTypos(a, 1 + rng.PickIndex(5), rng)
                        : RandomWord(1 + rng.PickIndex(14), rng);
    const double distance =
        static_cast<double>(LevenshteinEditDistanceReference(a, b));
    for (const double bound : bounds) {
      const double bounded = measure.BoundedValueDistance(a, b, bound);
      if (distance <= bound) {
        // Within the bound the exact distance must come back.
        EXPECT_EQ(bounded, distance)
            << "\"" << a << "\" / \"" << b << "\" bound " << bound;
      } else {
        // Beyond it, any value > bound is allowed (the contract
        // ThresholdedScore relies on), but it must exceed the bound.
        EXPECT_GT(bounded, bound)
            << "\"" << a << "\" / \"" << b << "\" bound " << bound;
      }
    }
  }
}

}  // namespace
}  // namespace genlink

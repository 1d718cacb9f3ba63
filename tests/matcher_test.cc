// Tests for the execution engine: token blocking recall and agreement of
// blocked execution with the exhaustive cross product.

#include <gtest/gtest.h>

#include <algorithm>

#include "datasets/linkedmdb.h"
#include "datasets/restaurant.h"
#include "matcher/blocking.h"
#include "matcher/matcher.h"
#include "rule/builder.h"

namespace genlink {
namespace {

class MatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PropertyId a_name = a_.schema().AddProperty("name");
    PropertyId b_label = b_.schema().AddProperty("label");
    const char* names[] = {"alpha one", "bravo two",  "charlie three",
                           "delta four", "echo five", "foxtrot six"};
    for (int i = 0; i < 6; ++i) {
      Entity ea("a" + std::to_string(i));
      ea.AddValue(a_name, names[i]);
      ASSERT_TRUE(a_.AddEntity(std::move(ea)).ok());
      Entity eb("b" + std::to_string(i));
      eb.AddValue(b_label, names[i]);
      ASSERT_TRUE(b_.AddEntity(std::move(eb)).ok());
    }
  }

  LinkageRule NameRule() {
    auto rule = RuleBuilder()
                    .Compare("levenshtein", 1.0, Prop("name").Lower(),
                             Prop("label").Lower())
                    .Build();
    EXPECT_TRUE(rule.ok());
    return std::move(rule).value();
  }

  Dataset a_{"a"}, b_{"b"};
};

TEST_F(MatcherTest, BlockingIndexFindsSharedTokenCandidates) {
  TokenBlockingIndex index(b_, {"label"});
  EXPECT_GT(index.NumTokens(), 0u);
  auto candidates = index.Candidates(*a_.FindEntity("a0"), a_.schema());
  // "alpha one" shares tokens only with b0.
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(b_.entity(candidates[0]).id(), "b0");
}

TEST_F(MatcherTest, GenerateLinksFindsAllTruePairs) {
  auto links = GenerateLinks(NameRule(), a_, b_);
  ASSERT_EQ(links.size(), 6u);
  for (const auto& link : links) {
    EXPECT_EQ(link.id_a.substr(1), link.id_b.substr(1));
    EXPECT_DOUBLE_EQ(link.score, 1.0);
  }
}

TEST_F(MatcherTest, BlockedAndExhaustiveExecutionAgree) {
  MatchOptions blocked;
  blocked.use_blocking = true;
  MatchOptions exhaustive;
  exhaustive.use_blocking = false;
  auto l1 = GenerateLinks(NameRule(), a_, b_, blocked);
  auto l2 = GenerateLinks(NameRule(), a_, b_, exhaustive);
  ASSERT_EQ(l1.size(), l2.size());
  for (size_t i = 0; i < l1.size(); ++i) {
    EXPECT_EQ(l1[i].id_a, l2[i].id_a);
    EXPECT_EQ(l1[i].id_b, l2[i].id_b);
    EXPECT_DOUBLE_EQ(l1[i].score, l2[i].score);
  }
}

TEST_F(MatcherTest, ThresholdFiltersWeakMatches) {
  MatchOptions options;
  options.threshold = 1.01;  // above the max score
  EXPECT_TRUE(GenerateLinks(NameRule(), a_, b_, options).empty());
}

TEST_F(MatcherTest, DedupSelfMatchEmitsEachPairOnce) {
  auto rule = RuleBuilder()
                  .Compare("levenshtein", 1.0, Prop("name"), Prop("name"))
                  .Build();
  ASSERT_TRUE(rule.ok());
  auto links = GenerateLinks(*rule, a_, a_);
  // Every entity matches itself, but self-pairs and reversed pairs are
  // suppressed for dedup, so only distinct-name collisions remain: none.
  EXPECT_TRUE(links.empty());
}

// best_match_only's documented tie-break: highest score first, then
// the lexicographically smallest id_b — independent of candidate
// enumeration order (matcher/matcher.h).
TEST_F(MatcherTest, BestMatchTieBreakPrefersSmallestIdOnExactTies) {
  // Two targets carry the SAME value as source "a0", so both score an
  // exact 1.0; ids chosen so candidate-index order ("b9..." inserted
  // before "b10...") disagrees with lexicographic order.
  Dataset source("tie_a"), targets("tie_b");
  PropertyId s_name = source.schema().AddProperty("name");
  PropertyId t_label = targets.schema().AddProperty("label");
  Entity query("a0");
  query.AddValue(s_name, "golf seven");
  ASSERT_TRUE(source.AddEntity(std::move(query)).ok());
  for (const char* id : {"b9", "b10"}) {
    Entity eb(id);
    eb.AddValue(t_label, "golf seven");
    ASSERT_TRUE(targets.AddEntity(std::move(eb)).ok());
  }

  auto rule = RuleBuilder()
                  .Compare("levenshtein", 1.0, Prop("name").Lower(),
                           Prop("label").Lower())
                  .Build();
  ASSERT_TRUE(rule.ok());
  MatchOptions options;
  options.best_match_only = true;
  for (bool use_blocking : {true, false}) {
    options.use_blocking = use_blocking;
    auto links = GenerateLinks(*rule, source, targets, options);
    ASSERT_EQ(links.size(), 1u) << "blocking=" << use_blocking;
    // Exact tie at score 1.0: "b10" < "b9" lexicographically wins,
    // although b9 enumerates first.
    EXPECT_DOUBLE_EQ(links[0].score, 1.0);
    EXPECT_EQ(links[0].id_b, "b10");
  }
}

TEST_F(MatcherTest, BestMatchKeepsHigherScoreOverSmallerId) {
  // No tie: the higher score must win even when its id_b is larger.
  Dataset source("score_a"), targets("score_b");
  PropertyId s_name = source.schema().AddProperty("name");
  PropertyId t_label = targets.schema().AddProperty("label");
  Entity query("a0");
  query.AddValue(s_name, "hotel india");
  ASSERT_TRUE(source.AddEntity(std::move(query)).ok());
  Entity close_but_not_exact("b1");
  close_but_not_exact.AddValue(t_label, "hotel indiax");  // distance 1
  ASSERT_TRUE(targets.AddEntity(std::move(close_but_not_exact)).ok());
  Entity exact("b2");
  exact.AddValue(t_label, "hotel india");  // distance 0
  ASSERT_TRUE(targets.AddEntity(std::move(exact)).ok());

  auto rule = RuleBuilder()
                  .Compare("levenshtein", 2.0, Prop("name").Lower(),
                           Prop("label").Lower())
                  .Build();
  ASSERT_TRUE(rule.ok());
  MatchOptions options;
  options.best_match_only = true;
  auto links = GenerateLinks(*rule, source, targets, options);
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links[0].id_b, "b2");
  EXPECT_DOUBLE_EQ(links[0].score, 1.0);
}

TEST_F(MatcherTest, SourcePropertyExtraction) {
  LinkageRule rule = NameRule();
  EXPECT_EQ(SourceProperties(rule), (std::vector<std::string>{"name"}));
  EXPECT_EQ(TargetProperties(rule), (std::vector<std::string>{"label"}));
}

// The self-join reference: LinkageRule::Evaluate (the spec) over the
// same candidates GenerateLinks considers — the token-blocking
// candidates or the cross product — each unordered pair once, in
// GenerateLinks' order (score desc, id_a, id_b).
std::vector<GeneratedLink> SpecSelfJoin(const LinkageRule& rule,
                                        const Dataset& data,
                                        bool use_blocking) {
  TokenBlockingIndex index(data, TargetProperties(rule));
  std::vector<GeneratedLink> links;
  for (const Entity& a : data.entities()) {
    std::vector<size_t> candidates;
    if (use_blocking) {
      candidates = index.Candidates(a, data.schema());
    } else {
      for (size_t j = 0; j < data.size(); ++j) candidates.push_back(j);
    }
    for (size_t j : candidates) {
      const Entity& b = data.entity(j);
      if (a.id() >= b.id()) continue;
      const double score = rule.Evaluate(a, b, data.schema(), data.schema());
      if (score >= kMatchThreshold) links.push_back({a.id(), b.id(), score});
    }
  }
  std::sort(links.begin(), links.end(), [](const auto& x, const auto& y) {
    if (x.score != y.score) return x.score > y.score;
    if (x.id_a != y.id_a) return x.id_a < y.id_a;
    return x.id_b < y.id_b;
  });
  return links;
}

// The value-store matcher path must generate links bit-identical to the
// spec evaluated per pair: same pairs, same doubles, same order.
TEST(MatcherIntegrationTest, ValueStorePathBitIdenticalOnRestaurant) {
  RestaurantConfig config;
  config.scale = 0.4;
  MatchingTask task = GenerateRestaurant(config);
  auto rule = RuleBuilder()
                  .Aggregate("min")
                  .Compare("jaccard", 0.8, Prop("name").Lower().Tokenize(),
                           Prop("name").Lower().Tokenize())
                  .Compare("levenshtein", 3.0, Prop("address").Lower(),
                           Prop("address").Lower())
                  .End()
                  .Build();
  ASSERT_TRUE(rule.ok());

  for (bool use_blocking : {true, false}) {
    MatchOptions options;
    options.use_blocking = use_blocking;
    // Restaurant is a dedup task: source matched against itself
    // (exercises the self-match dedup in the compiled path too).
    auto fast = GenerateLinks(*rule, task.a, task.a, options);
    auto reference = SpecSelfJoin(*rule, task.a, use_blocking);
    ASSERT_EQ(fast.size(), reference.size()) << "blocking=" << use_blocking;
    EXPECT_GT(fast.size(), 0u);
    for (size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].id_a, reference[i].id_a);
      EXPECT_EQ(fast[i].id_b, reference[i].id_b);
      // Bit-identical scores, not just nearly equal.
      EXPECT_EQ(fast[i].score, reference[i].score) << i;
    }
  }
}

TEST(MatcherIntegrationTest, BlockingRecallOnGeneratedMovies) {
  // On the LinkedMDB generator, blocked execution with a title+date rule
  // must recover nearly all reference links.
  LinkedMdbConfig config;
  config.scale = 1.0;
  MatchingTask task = GenerateLinkedMdb(config);
  // Date threshold 800: the sources disagree on exact dates within a
  // year (d <= 364), and the score 1 - d/θ must stay >= 0.5.
  auto rule = RuleBuilder()
                  .Aggregate("min")
                  .Compare("jaccard", 0.6, Prop("label").Lower().Tokenize(),
                           Prop("name").Lower().Tokenize())
                  .Compare("date", 800.0, Prop("initial_release_date"),
                           Prop("releaseDate"))
                  .End()
                  .Build();
  ASSERT_TRUE(rule.ok());

  auto links = GenerateLinks(*rule, task.a, task.b);
  std::set<std::pair<std::string, std::string>> found;
  for (const auto& link : links) found.insert({link.id_a, link.id_b});

  size_t hit = 0;
  for (const auto& ref : task.links.positives()) {
    if (found.count({ref.id_a, ref.id_b})) ++hit;
  }
  double recall =
      static_cast<double>(hit) / static_cast<double>(task.links.positives().size());
  EXPECT_GT(recall, 0.9);
}

}  // namespace
}  // namespace genlink

// Tests for the service facade (api/matcher_index.h): every query
// surface — MatchEntity, MatchBatch, MatchDataset — must be
// bit-identical to the one-shot GenerateLinks on the paper's evaluation
// data (Restaurant and Cora, blocking and cross product, value store on
// and off), artifacts must round-trip save -> load -> query, and
// WithRule hot swaps must serve exactly what a fresh build would.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/matcher_index.h"
#include "datasets/cora.h"
#include "datasets/restaurant.h"
#include "io/artifact.h"
#include "io/csv.h"
#include "matcher/matcher.h"
#include "rule/builder.h"
#include "rule/rule_hash.h"
#include "rule/serialize.h"
#include "test_tmpdir.h"
#include "transform/transformation.h"

namespace genlink {
namespace {

LinkageRule RestaurantRule() {
  auto rule = RuleBuilder()
                  .Aggregate("min")
                  .Compare("jaccard", 0.8, Prop("name").Lower().Tokenize(),
                           Prop("name").Lower().Tokenize())
                  .Compare("levenshtein", 3.0, Prop("address").Lower(),
                           Prop("address").Lower())
                  .End()
                  .Build();
  EXPECT_TRUE(rule.ok());
  return std::move(rule).value();
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
  EXPECT_TRUE(rule.ok());
  return std::move(rule).value();
}

MatchingTask SmallRestaurant() {
  RestaurantConfig config;
  config.scale = 0.4;
  return GenerateRestaurant(config);
}

MatchingTask SmallCora() {
  CoraConfig config;
  config.scale = 0.15;
  return GenerateCora(config);
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

/// The matcher's global link order (matcher/matcher.h contract).
void SortGlobally(std::vector<GeneratedLink>& links) {
  std::sort(links.begin(), links.end(), [](const auto& x, const auto& y) {
    if (x.score != y.score) return x.score > y.score;
    if (x.id_a != y.id_a) return x.id_a < y.id_a;
    return x.id_b < y.id_b;
  });
}

/// Reassembles the one-shot full join from single-entity queries: for a
/// self-indexed corpus MatchEntity serves both orientations, so the
/// join's orientation dedup (id_a < id_b) is applied here.
std::vector<GeneratedLink> JoinFromEntityQueries(const MatcherIndex& index,
                                                 const Dataset& source,
                                                 bool dedup) {
  std::vector<GeneratedLink> links;
  for (const Entity& entity : source.entities()) {
    for (auto& link : index.MatchEntity(entity, source.schema())) {
      if (!dedup || link.id_a < link.id_b) links.push_back(std::move(link));
    }
  }
  SortGlobally(links);
  return links;
}

std::vector<GeneratedLink> JoinFromBatch(const MatcherIndex& index,
                                         const Dataset& source, bool dedup) {
  std::vector<GeneratedLink> links;
  for (auto& link : index.MatchBatch(source.entities(), source.schema())) {
    if (!dedup || link.id_a < link.id_b) links.push_back(std::move(link));
  }
  SortGlobally(links);
  return links;
}

// Every query surface of an index over a dedup task must reproduce
// GenerateLinks bit for bit, with blocking on and off. (Each surface
// against the spec, LinkageRule::Evaluate: tests/rule_oracle_test.cc.)
void CheckAllSurfacesOnDedupTask(const MatchingTask& task,
                                 const LinkageRule& rule) {
  for (bool use_blocking : {true, false}) {
    MatchOptions options;
    options.use_blocking = use_blocking;
    const std::string label = std::string(task.name) +
                              " blocking=" + std::to_string(use_blocking);
    auto expected = GenerateLinks(rule, task.a, task.a, options);
    ASSERT_GT(expected.size(), 0u) << label;

    auto index = MatcherIndex::Build(task.a, task.a, rule, options);
    ExpectSameLinks(index->MatchDataset(), expected, label + " dataset");
    ExpectSameLinks(index->MatchDataset(task.a), expected,
                    label + " dataset(arg)");
    ExpectSameLinks(JoinFromEntityQueries(*index, task.a, /*dedup=*/true),
                    expected, label + " entity");
    ExpectSameLinks(JoinFromBatch(*index, task.a, /*dedup=*/true), expected,
                    label + " batch");
  }
}

TEST(MatcherIndexTest, AllSurfacesBitIdenticalOnRestaurant) {
  MatchingTask task = SmallRestaurant();
  CheckAllSurfacesOnDedupTask(task, RestaurantRule());
}

TEST(MatcherIndexTest, AllSurfacesBitIdenticalOnCora) {
  MatchingTask task = SmallCora();
  CheckAllSurfacesOnDedupTask(task, CoraRule());
}

// A serving-only index (no bound source) answers MatchDataset through
// the query scorer — its links must still be bit-identical to the
// store-compiled path GenerateLinks takes.
TEST(MatcherIndexTest, ServingOnlyFullJoinBitIdentical) {
  MatchingTask task = SmallRestaurant();
  LinkageRule rule = RestaurantRule();
  auto expected = GenerateLinks(rule, task.a, task.a);
  ASSERT_GT(expected.size(), 0u);

  auto index = MatcherIndex::Build(task.a, rule, MatchOptions{});
  EXPECT_FALSE(index->has_source());
  EXPECT_TRUE(index->MatchDataset().empty());  // no bound source
  ExpectSameLinks(index->MatchDataset(task.a), expected, "serving-only join");
}

// A serving-only index must never return the query's own record when
// the query stream happens to be the corpus itself (the `genlink
// query --target corpus --entities corpus` workflow): without the
// own-id skip every record's best match would be itself at score 1.0.
TEST(MatcherIndexTest, ServingOnlyIndexSkipsOwnId) {
  MatchingTask task = SmallRestaurant();
  LinkageRule rule = RestaurantRule();
  MatchOptions best;
  best.best_match_only = true;
  auto index = MatcherIndex::Build(task.a, rule, best);
  size_t matched = 0;
  for (const Entity& entity : task.a.entities()) {
    for (const auto& link : index->MatchEntity(entity, task.a.schema())) {
      EXPECT_NE(link.id_b, entity.id()) << "self link served for " << entity.id();
      ++matched;
    }
  }
  EXPECT_GT(matched, 0u);  // real duplicates still surface
}

// A self-indexed corpus serves BOTH orientations: the query with the
// larger id must also find its smaller-id duplicate (the full join only
// emits id_a < id_b).
TEST(MatcherIndexTest, MatchEntityServesBothOrientations) {
  MatchingTask task = SmallRestaurant();
  LinkageRule rule = RestaurantRule();
  auto index = MatcherIndex::Build(task.a, task.a, rule, MatchOptions{});
  auto joined = index->MatchDataset();
  ASSERT_GT(joined.size(), 0u);

  const GeneratedLink& link = joined.front();
  const Entity* larger = task.a.FindEntity(link.id_b);
  ASSERT_NE(larger, nullptr);
  bool found = false;
  for (const auto& back_link : index->MatchEntity(*larger, task.a.schema())) {
    EXPECT_NE(back_link.id_b, larger->id());  // never links itself
    if (back_link.id_b == link.id_a) {
      found = true;
      EXPECT_EQ(back_link.score, link.score);
    }
  }
  EXPECT_TRUE(found) << link.id_b << " should find " << link.id_a;
}

// MatchEntity answers must be ordered for serving: best first (score
// desc, then id_b asc), and best_match_only keeps exactly that head.
TEST(MatcherIndexTest, MatchEntityOrderAndBestMatch) {
  MatchingTask task = SmallRestaurant();
  LinkageRule rule = RestaurantRule();
  MatchOptions options;
  options.threshold = 0.1;  // widen so queries see several links
  auto index = MatcherIndex::Build(task.a, task.a, rule, options);

  MatchOptions best_options = options;
  best_options.best_match_only = true;
  auto best_index = MatcherIndex::Build(task.a, task.a, rule, best_options);
  for (const Entity& entity : task.a.entities()) {
    auto links = index->MatchEntity(entity, task.a.schema());
    for (size_t i = 1; i < links.size(); ++i) {
      const bool ordered =
          links[i - 1].score > links[i].score ||
          (links[i - 1].score == links[i].score &&
           links[i - 1].id_b < links[i].id_b);
      EXPECT_TRUE(ordered) << entity.id() << " position " << i;
    }
    auto best = best_index->MatchEntity(entity, task.a.schema());
    if (links.empty()) {
      EXPECT_TRUE(best.empty());
    } else {
      ASSERT_EQ(best.size(), 1u);
      EXPECT_EQ(best[0].id_b, links[0].id_b);
      EXPECT_EQ(best[0].score, links[0].score);
    }
  }
}

// MatchBatch is chunk-parallel; its output must not depend on the
// worker count.
TEST(MatcherIndexTest, MatchBatchThreadCountInvariant) {
  MatchingTask task = SmallRestaurant();
  LinkageRule rule = RestaurantRule();
  std::vector<std::vector<GeneratedLink>> runs;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    MatchOptions options;
    options.num_threads = threads;
    auto index = MatcherIndex::Build(task.a, task.a, rule, options);
    runs.push_back(index->MatchBatch(task.a.entities(), task.a.schema()));
  }
  ExpectSameLinks(runs[1], runs[0], "batch threads 4 vs 1");
  ASSERT_GT(runs[0].size(), 0u);
}

// WithRule compiles a new rule against the SAME corpus artifacts; the
// swapped index must serve exactly what a fresh build of that rule
// serves, the old index must keep serving its own rule, and shared
// value subtrees must not be re-materialized.
TEST(MatcherIndexTest, WithRuleHotSwapEquivalence) {
  MatchingTask task = SmallRestaurant();
  LinkageRule first = RestaurantRule();
  // Second rule shares the name-jaccard subtree with the first and adds
  // an unseen phone comparison.
  auto second_or = RuleBuilder()
                       .Aggregate("max")
                       .Compare("jaccard", 0.8, Prop("name").Lower().Tokenize(),
                                Prop("name").Lower().Tokenize())
                       .Compare("levenshtein", 1.0, Prop("phone"), Prop("phone"))
                       .End()
                       .Build();
  ASSERT_TRUE(second_or.ok());
  LinkageRule second = std::move(second_or).value();

  auto index = MatcherIndex::Build(task.a, task.a, first, MatchOptions{});
  const size_t plans_before = index->stats().value_plans;
  auto expected_first = index->MatchDataset();

  auto swapped = index->WithRule(second);
  ExpectSameLinks(swapped->MatchDataset(),
                  GenerateLinks(second, task.a, task.a), "swapped rule");
  // The old generation is untouched by the swap.
  ExpectSameLinks(index->MatchDataset(), expected_first, "old generation");

  // Only the unseen subtree (phone) was materialized: one more plan,
  // not a full recompile (the store holds one plan per distinct
  // target-side subtree).
  const size_t plans_after = swapped->stats().value_plans;
  EXPECT_EQ(plans_after, plans_before + 1);

  // Re-swapping the same rule materializes nothing new.
  auto reswap = swapped->WithRule(second);
  EXPECT_EQ(reswap->stats().value_plans, plans_after);
  ExpectSameLinks(reswap->MatchDataset(), swapped->MatchDataset(), "reswap");
}

// Queries on a published index must stay safe while WithRule
// generations compile against the shared corpus (each generation reads
// only its own immutable store): hammer MatchEntity from several
// threads while the main thread keeps hot-swapping between two rules,
// then check every answer matches one of the two rules' reference
// answers.
TEST(MatcherIndexTest, ConcurrentQueriesDuringHotSwapsAreConsistent) {
  MatchingTask task = SmallRestaurant();
  LinkageRule first = RestaurantRule();
  auto second_or = RuleBuilder()
                       .Compare("levenshtein", 2.0, Prop("name").Lower(),
                                Prop("name").Lower())
                       .Build();
  ASSERT_TRUE(second_or.ok());
  LinkageRule second = std::move(second_or).value();

  auto index = MatcherIndex::Build(task.a, task.a, first, MatchOptions{});
  // Reference answers per rule, computed single-threaded up front.
  auto answers_first = JoinFromEntityQueries(*index, task.a, /*dedup=*/true);
  auto answers_second = JoinFromEntityQueries(
      *MatcherIndex::Build(task.a, task.a, second, MatchOptions{}), task.a,
      /*dedup=*/true);

  std::atomic<bool> stop{false};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      size_t i = static_cast<size_t>(w);
      while (!stop.load(std::memory_order_relaxed)) {
        const Entity& entity = task.a.entity(i % task.a.size());
        auto links = index->MatchEntity(entity, task.a.schema());
        for (const auto& link : links) {
          if (link.id_b == entity.id()) {
            mismatches.fetch_add(1);  // never links itself
          }
        }
        i += 7;
      }
    });
  }
  // Swap back and forth while the workers keep reading. (The workers
  // query the ORIGINAL index object throughout — old generations must
  // stay valid while new ones compile.)
  std::shared_ptr<const MatcherIndex> current = index;
  for (int swap = 0; swap <= 20; ++swap) {
    current = current->WithRule(swap % 2 == 0 ? second : first);
  }
  stop.store(true);
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0u);

  // After the dust settles, the original and final generations still
  // serve their exact rules.
  ExpectSameLinks(JoinFromEntityQueries(*index, task.a, /*dedup=*/true),
                  answers_first, "original generation after swaps");
  ExpectSameLinks(JoinFromEntityQueries(*current, task.a, /*dedup=*/true),
                  answers_second, "final generation (last swap = second)");
}

/// An identity transformation whose first Apply blocks until Release()
/// (for at most 5 s), so a test can hold a WithRule compile open.
class GatedIdentity : public Transformation {
 public:
  std::string_view name() const override { return "gatedIdentity"; }
  ValueSet Apply(std::span<const ValueSet> inputs) const override {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!entered_) {
      entered_ = true;
      changed_.notify_all();
      changed_.wait_for(lock, std::chrono::seconds(5), [&] { return released_; });
    }
    return inputs[0];
  }

  /// True once the first Apply is blocked (waits at most 5 s).
  bool WaitUntilEntered() {
    std::unique_lock<std::mutex> lock(mutex_);
    return changed_.wait_for(lock, std::chrono::seconds(5),
                             [&] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    changed_.notify_all();
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable changed_;
  mutable bool entered_ = false;
  bool released_ = false;
};

// A hot swap must not stall queries: while WithRule compiles a plan for
// the new rule, MatchEntity on the old generation answers at once, with
// the old rule's links. The new rule's target subtree runs a gated
// transformation, so the compile stays open until the query is done.
TEST(MatcherIndexTest, QueriesDoNotWaitForAHotSwapCompile) {
  MatchingTask task = SmallRestaurant();
  auto index =
      MatcherIndex::Build(task.a, task.a, RestaurantRule(), MatchOptions{});
  const Entity& probe = task.a.entity(0);
  const std::vector<GeneratedLink> expected =
      index->MatchEntity(probe, task.a.schema());

  auto second_or = RuleBuilder()
                       .Compare("levenshtein", 1.0, Prop("phone").Lower(),
                                Prop("phone").Lower())
                       .Build();
  ASSERT_TRUE(second_or.ok());
  LinkageRule second = std::move(second_or).value();
  GatedIdentity gate;
  // A distinct function instance hashes to a plan no store holds yet.
  auto& comparison = static_cast<ComparisonOperator&>(*second.mutable_root());
  static_cast<TransformOperator&>(*comparison.mutable_target())
      .set_function(&gate);

  std::shared_ptr<const MatcherIndex> swapped;
  std::thread swapper([&] { swapped = index->WithRule(second); });
  const bool entered = gate.WaitUntilEntered();
  const auto start = std::chrono::steady_clock::now();
  const std::vector<GeneratedLink> during =
      index->MatchEntity(probe, task.a.schema());
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  gate.Release();
  swapper.join();

  ASSERT_TRUE(entered) << "the compile never reached the gated plan";
  EXPECT_LT(waited, 1.0) << "MatchEntity waited for the WithRule compile";
  ExpectSameLinks(during, expected, "old generation during the compile");
  ASSERT_NE(swapped, nullptr);
  ExpectSameLinks(swapped->MatchDataset(),
                  GenerateLinks(second, task.a, task.a), "swapped rule");
}

TEST(MatcherIndexTest, StatsReportArtifactSizes) {
  MatchingTask task = SmallRestaurant();
  auto index =
      MatcherIndex::Build(task.a, task.a, RestaurantRule(), MatchOptions{});
  MatcherIndexStats stats = index->stats();
  EXPECT_EQ(stats.target_entities, task.a.size());
  EXPECT_GT(stats.blocking_tokens, 0u);
  EXPECT_GT(stats.value_plans, 0u);
  EXPECT_GT(stats.store_bytes, 0u);
}

// A two-schema (non-dedup) corpus: MatchEntity rows are exactly the
// full join's rows for that source entity — no orientation filter, no
// self skip.
TEST(MatcherIndexTest, NonDedupMatchEntityEqualsJoinRows) {
  Dataset a("a"), b("b");
  PropertyId a_name = a.schema().AddProperty("name");
  PropertyId b_label = b.schema().AddProperty("label");
  const char* names[] = {"alpha one", "bravo two", "charlie three",
                         "delta four"};
  for (int i = 0; i < 4; ++i) {
    Entity ea("x" + std::to_string(i));
    ea.AddValue(a_name, names[i]);
    ASSERT_TRUE(a.AddEntity(std::move(ea)).ok());
    Entity eb("x" + std::to_string(i));  // same ids on purpose: no self skip
    eb.AddValue(b_label, names[i]);
    ASSERT_TRUE(b.AddEntity(std::move(eb)).ok());
  }
  auto rule_or = RuleBuilder()
                     .Compare("levenshtein", 1.0, Prop("name").Lower(),
                              Prop("label").Lower())
                     .Build();
  ASSERT_TRUE(rule_or.ok());
  LinkageRule rule = std::move(rule_or).value();

  auto expected = GenerateLinks(rule, a, b);
  ASSERT_EQ(expected.size(), 4u);  // every row matches its twin, same id
  auto index = MatcherIndex::Build(a, b, rule, MatchOptions{});
  ExpectSameLinks(JoinFromEntityQueries(*index, a, /*dedup=*/false), expected,
                  "non-dedup entity join");
}

// ---------------------------------------------------------------------------
// Artifacts (io/artifact.h)

TEST(RuleArtifactTest, TextRoundTripBothFormats) {
  for (ArtifactRuleFormat format :
       {ArtifactRuleFormat::kXml, ArtifactRuleFormat::kSexpr}) {
    RuleArtifact artifact;
    artifact.name = "restaurant-dedup";
    artifact.rule = RestaurantRule();
    artifact.options.threshold = 0.75;
    artifact.options.best_match_only = true;
    artifact.options.use_blocking = false;

    auto loaded = ReadRuleArtifact(WriteRuleArtifact(artifact, format));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->name, "restaurant-dedup");
    EXPECT_EQ(loaded->options.threshold, 0.75);
    EXPECT_TRUE(loaded->options.best_match_only);
    EXPECT_FALSE(loaded->options.use_blocking);
    // The rule structure survives byte-exactly (canonical hash covers
    // measures, transforms, thresholds and weights).
    EXPECT_EQ(ToSexpr(loaded->rule), ToSexpr(artifact.rule));
    EXPECT_EQ(CanonicalRuleHash(loaded->rule), CanonicalRuleHash(artifact.rule));
  }
}

TEST(RuleArtifactTest, RejectsMalformedInput) {
  auto missing_magic = ReadRuleArtifact("threshold: 0.5\n---\n");
  EXPECT_FALSE(missing_magic.ok());

  auto bad_version = ReadRuleArtifact("genlink-artifact v99\n---\n");
  ASSERT_FALSE(bad_version.ok());
  EXPECT_NE(bad_version.status().ToString().find("v99"), std::string::npos);

  auto unknown_key =
      ReadRuleArtifact("genlink-artifact v1\nfrobnicate: yes\n---\n");
  ASSERT_FALSE(unknown_key.ok());
  EXPECT_NE(unknown_key.status().ToString().find("frobnicate"),
            std::string::npos);

  auto no_separator = ReadRuleArtifact("genlink-artifact v1\nthreshold: 0.5\n");
  ASSERT_FALSE(no_separator.ok());
  EXPECT_NE(no_separator.status().ToString().find("---"), std::string::npos);

  auto bad_bool =
      ReadRuleArtifact("genlink-artifact v1\nuse-blocking: maybe\n---\n");
  EXPECT_FALSE(bad_bool.ok());

  // A threshold that is not a finite number would match nothing (NaN)
  // or everything (-inf) without an error.
  for (const char* threshold : {"nan", "inf", "-inf"}) {
    auto non_finite = ReadRuleArtifact(
        std::string("genlink-artifact v1\nthreshold: ") + threshold +
        "\nrule-format: sexpr\n---\n(compare levenshtein :t 1 :w 1 "
        "(property \"name\") (property \"name\"))\n");
    ASSERT_FALSE(non_finite.ok()) << threshold;
    EXPECT_NE(non_finite.status().ToString().find("threshold"),
              std::string::npos);
  }

  // The rule payload goes through LinkageRule::Validate.
  auto nan_weight = ReadRuleArtifact(
      "genlink-artifact v1\nthreshold: 0.5\nrule-format: sexpr\n---\n"
      "(compare levenshtein :t 1 :w nan (property \"name\") "
      "(property \"name\"))\n");
  ASSERT_FALSE(nan_weight.ok());
  EXPECT_EQ(nan_weight.status().code(), StatusCode::kInvalidArgument);
}

// Artifacts written by older builds carry `use-value-store:`. The
// writer no longer emits it; 1 still loads, 0 (a per-pair execution
// path that no longer exists) is a named parse error.
TEST(RuleArtifactTest, LegacyUseValueStoreKey) {
  RuleArtifact artifact;
  artifact.rule = RestaurantRule();
  const std::string text =
      WriteRuleArtifact(artifact, ArtifactRuleFormat::kXml);
  EXPECT_EQ(text.find("use-value-store"), std::string::npos);

  const std::string header = "genlink-artifact v1\nthreshold: 0.5\n";
  const std::string payload = text.substr(text.find("---\n"));
  auto legacy_on =
      ReadRuleArtifact(header + "use-value-store: 1\n" + payload);
  ASSERT_TRUE(legacy_on.ok()) << legacy_on.status().ToString();
  EXPECT_EQ(ToSexpr(legacy_on->rule), ToSexpr(artifact.rule));

  auto legacy_off =
      ReadRuleArtifact(header + "use-value-store: 0\n" + payload);
  ASSERT_FALSE(legacy_off.ok());
  EXPECT_EQ(legacy_off.status().code(), StatusCode::kParseError);
  EXPECT_NE(legacy_off.status().ToString().find("use-value-store: 0"),
            std::string::npos);
}

// The deployment loop: save an artifact to disk, load it in (what would
// be) another process, build an index from it, and serve — queries must
// be bit-identical to the pre-save index.
TEST(RuleArtifactTest, SaveLoadQueryRoundTrip) {
  MatchingTask task = SmallRestaurant();
  RuleArtifact artifact;
  artifact.name = "round-trip";
  artifact.rule = RestaurantRule();
  artifact.options.threshold = 0.5;

  const std::string path = TestTempPath("artifact.gla");
  ASSERT_TRUE(SaveArtifact(path, artifact).ok());
  auto loaded = LoadArtifact(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  auto original = MatcherIndex::Build(task.a, artifact.rule, artifact.options);
  auto deployed = MatcherIndex::Build(task.a, loaded->rule, loaded->options);
  for (const Entity& entity : task.a.entities()) {
    ExpectSameLinks(deployed->MatchEntity(entity, task.a.schema()),
                    original->MatchEntity(entity, task.a.schema()),
                    "deployed query " + entity.id());
  }
}

}  // namespace
}  // namespace genlink

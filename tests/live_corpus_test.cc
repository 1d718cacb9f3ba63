// The LiveCorpus correctness gate (live/live_corpus.h): a mutated index
// must produce links BIT-identical — same ids, same doubles, same order
// — to a fresh MatcherIndex::Build over the same logical corpus, for
// random interleavings of upserts, removes and compactions (including
// upsert-after-delete and re-upsert of the same id), on Restaurant,
// Cora and the synthetic corpus, at thread counts {1, 4, 8}. Plus the
// subsystem's failure contracts: whole-batch validation, the
// df-independent blocking requirement, mapped-base limits, and the
// io.write_error sweep proving an interrupted compaction leaves the
// previous snapshot serving and no temp files behind.

#include "live/live_corpus.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <algorithm>

#include "api/matcher_index.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "datasets/cora.h"
#include "datasets/restaurant.h"
#include "datasets/synthetic.h"
#include "io/corpus_artifact.h"
#include "live/delta_csv.h"
#include "rule/builder.h"
#include "test_tmpdir.h"

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

LinkageRule PersonRule() {
  auto rule = RuleBuilder()
                  .Aggregate("max")
                  .Compare("levenshtein", 2.0, Prop("name").Lower(),
                           Prop("name").Lower())
                  .Compare("levenshtein", 1.0, Prop("phone"), Prop("phone"))
                  .End()
                  .Build();
  EXPECT_TRUE(rule.ok());
  return std::move(rule).value();
}

/// Bit-identity: same link count, ids, doubles and order.
void ExpectSameLinks(const std::vector<GeneratedLink>& got,
                     const std::vector<GeneratedLink>& want,
                     const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id_a, want[i].id_a) << context << " link " << i;
    EXPECT_EQ(got[i].id_b, want[i].id_b) << context << " link " << i;
    EXPECT_EQ(got[i].score, want[i].score) << context << " link " << i;
  }
}

/// The test's OWN logical model of the corpus — deliberately not
/// derived from LiveCorpus::MaterializeLogical, so the comparison build
/// is independent of the code under test (and works over a mapped base,
/// which cannot materialize).
class LogicalModel {
 public:
  explicit LogicalModel(const Dataset& base) : name_(base.name()) {
    properties_ = base.schema().property_names();
    for (size_t i = 0; i < base.size(); ++i) {
      live_[base.entity(i).id()] = base.entity(i);
    }
  }

  void Upsert(const Entity& entity) { live_[entity.id()] = entity; }
  void Remove(const std::string& id) { live_.erase(id); }
  bool Alive(const std::string& id) const { return live_.count(id) > 0; }
  size_t size() const { return live_.size(); }
  const std::map<std::string, Entity>& live() const { return live_; }

  /// The logical corpus as a fresh Dataset (id order; link results are
  /// corpus-order independent, so any order works).
  Dataset Build() const {
    Dataset out(name_);
    for (const std::string& name : properties_) out.schema().AddProperty(name);
    for (const auto& [id, entity] : live_) {
      EXPECT_TRUE(out.AddEntity(entity).ok()) << id;
    }
    return out;
  }

 private:
  std::string name_;
  std::vector<std::string> properties_;
  std::map<std::string, Entity> live_;
};

/// An edited copy of `base`: one value perturbed (typo-style) or an
/// extra value appended — enough to move distances around.
Entity EditedCopy(const Entity& base, Rng& rng, std::string new_id = "") {
  Entity out = base;
  if (!new_id.empty()) out.set_id(std::move(new_id));
  for (size_t p = 0; p < out.NumPropertySlots(); ++p) {
    if (out.Values(p).empty() || !rng.Bernoulli(0.6)) continue;
    ValueSet values = out.Values(p);
    values[rng.PickIndex(values.size())] += "x";
    out.SetValues(static_cast<PropertyId>(p), values);
    return out;
  }
  out.AddValue(0, "edited value");
  return out;
}

/// Verifies every query surface of `live` against a fresh serving-only
/// build of the model's logical corpus, under the exact user options.
void CheckBitIdentity(const LiveCorpus& live, const LogicalModel& model,
                      const LinkageRule& rule, const MatchOptions& options,
                      const std::vector<Entity>& queries,
                      const Schema& query_schema, const std::string& context) {
  const Dataset fresh = model.Build();
  const auto index = MatcherIndex::Build(fresh, rule, options);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameLinks(live.MatchEntity(queries[i], query_schema),
                    index->MatchEntity(queries[i], query_schema),
                    context + " query " + std::to_string(i));
  }
  ExpectSameLinks(
      live.MatchBatch(std::span<const Entity>(queries), query_schema),
      index->MatchBatch(std::span<const Entity>(queries), query_schema),
      context + " batch");
}

/// The property/fuzz driver: random interleavings of upserts (new id,
/// existing id, re-upsert of a removed id), removes and compactions,
/// with bit-identity re-verified after every burst of mutations.
void RunInterleaving(const Dataset& base, const LinkageRule& rule,
                     MatchOptions options, const std::vector<Entity>& queries,
                     const Schema& query_schema, uint64_t seed, size_t rounds,
                     size_t ops_per_round) {
  auto live = LiveCorpus::Create(base, rule, options);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  LogicalModel model(base);
  Rng rng(seed);
  std::vector<std::string> removed;  // pool of ids for re-upsert

  CheckBitIdentity(**live, model, rule, options, queries, query_schema,
                   "initial");
  size_t fresh_ids = 0;
  for (size_t round = 0; round < rounds; ++round) {
    for (size_t op = 0; op < ops_per_round; ++op) {
      const double dice = rng.Uniform01();
      std::vector<std::string> ids;
      ids.reserve(model.size());
      for (const auto& [id, entity] : model.live()) ids.push_back(id);
      if (dice < 0.35 && !ids.empty()) {
        // Upsert an existing id with edited values.
        const std::string& id = ids[rng.PickIndex(ids.size())];
        const Entity edited = EditedCopy(model.live().at(id), rng);
        ASSERT_TRUE((*live)->Upsert(edited, (*live)->schema()).ok());
        model.Upsert(edited);
      } else if (dice < 0.55) {
        // Upsert a brand-new id (values borrowed from a live entity).
        const std::string id = "live_new_" + std::to_string(fresh_ids++);
        const Entity& donor =
            ids.empty() ? base.entity(rng.PickIndex(base.size()))
                        : model.live().at(ids[rng.PickIndex(ids.size())]);
        const Entity fresh = EditedCopy(donor, rng, id);
        ASSERT_TRUE((*live)->Upsert(fresh, (*live)->schema()).ok());
        model.Upsert(fresh);
      } else if (dice < 0.7 && !removed.empty()) {
        // Re-upsert a previously removed id.
        const size_t pick = rng.PickIndex(removed.size());
        const std::string id = removed[pick];
        removed.erase(removed.begin() + pick);
        if (model.Alive(id)) continue;  // re-added earlier as "new"
        const Entity& donor = base.entity(rng.PickIndex(base.size()));
        const Entity back = EditedCopy(donor, rng, id);
        ASSERT_TRUE((*live)->Upsert(back, (*live)->schema()).ok());
        model.Upsert(back);
      } else if (dice < 0.9 && !ids.empty()) {
        // Remove a live id (upsert-after-delete feeds from `removed`).
        const std::string id = ids[rng.PickIndex(ids.size())];
        ASSERT_TRUE((*live)->Remove(id).ok());
        model.Remove(id);
        removed.push_back(id);
      } else {
        ASSERT_TRUE((*live)->Compact().ok());
      }
    }
    if (rng.Bernoulli(0.3)) {
      ASSERT_TRUE((*live)->Compact().ok());
    }
    CheckBitIdentity(**live, model, rule, options, queries, query_schema,
                     "round " + std::to_string(round));
  }
  // The subsystem's own materialization agrees with the model.
  auto logical = (*live)->MaterializeLogical();
  ASSERT_TRUE(logical.ok());
  EXPECT_EQ(logical->size(), model.size());
}

std::vector<Entity> SampleQueries(const Dataset& dataset, size_t count) {
  std::vector<Entity> out;
  for (size_t i = 0; i < dataset.size() && out.size() < count;
       i += dataset.size() / count + 1) {
    out.push_back(dataset.entity(i));
  }
  return out;
}

TEST(LiveCorpusTest, RestaurantInterleavingsBitIdenticalAcrossThreads) {
  const MatchingTask task = GenerateRestaurant();
  const LinkageRule rule = RestaurantRule();
  const std::vector<Entity> queries = SampleQueries(task.Target(), 25);
  for (size_t threads : {1u, 4u, 8u}) {
    MatchOptions options;
    options.num_threads = threads;
    RunInterleaving(task.Target(), rule, options, queries,
                    task.Target().schema(), /*seed=*/101 + threads,
                    /*rounds=*/3, /*ops_per_round=*/8);
  }
}

TEST(LiveCorpusTest, CoraInterleavingsBitIdentical) {
  const MatchingTask task = GenerateCora();
  const LinkageRule rule = CoraRule();
  const std::vector<Entity> queries = SampleQueries(task.Target(), 20);
  MatchOptions options;
  options.num_threads = 4;
  RunInterleaving(task.Target(), rule, options, queries,
                  task.Target().schema(), /*seed=*/202, /*rounds=*/3,
                  /*ops_per_round=*/8);
}

TEST(LiveCorpusTest, SyntheticCrossSchemaQueriesWithBestMatch) {
  SyntheticConfig config;
  config.num_entities = 300;
  const MatchingTask task = GenerateSynthetic(config);
  const LinkageRule rule = PersonRule();
  // Queries come from the OTHER side (the paper's A against B) and the
  // best-match reduction runs over the merged base+delta links.
  const std::vector<Entity> queries = SampleQueries(task.a, 20);
  for (size_t threads : {1u, 4u, 8u}) {
    MatchOptions options;
    options.num_threads = threads;
    options.best_match_only = true;
    RunInterleaving(task.b, rule, options, queries, task.a.schema(),
                    /*seed=*/303 + threads, /*rounds=*/2,
                    /*ops_per_round=*/8);
  }
}

TEST(LiveCorpusTest, BlockingOffStillBitIdentical) {
  const MatchingTask task = GenerateRestaurant({.num_entities = 120});
  const LinkageRule rule = RestaurantRule();
  const std::vector<Entity> queries = SampleQueries(task.Target(), 10);
  MatchOptions options;
  options.use_blocking = false;
  options.num_threads = 2;
  RunInterleaving(task.Target(), rule, options, queries,
                  task.Target().schema(), /*seed=*/404, /*rounds=*/2,
                  /*ops_per_round=*/6);
}

TEST(LiveCorpusTest, UpsertAfterDeleteAndReupsertOfSameId) {
  const MatchingTask task = GenerateRestaurant({.num_entities = 100});
  const LinkageRule rule = RestaurantRule();
  MatchOptions options;
  options.num_threads = 2;
  auto live = LiveCorpus::Create(task.Target(), rule, options);
  ASSERT_TRUE(live.ok());
  LogicalModel model(task.Target());
  const std::string id = task.Target().entity(0).id();
  const Entity original = task.Target().entity(0);

  // Remove, then removing again is NotFound.
  ASSERT_TRUE((*live)->Remove(id).ok());
  model.Remove(id);
  const Status twice = (*live)->Remove(id);
  ASSERT_FALSE(twice.ok());
  EXPECT_EQ(twice.code(), StatusCode::kNotFound);

  // Upsert-after-delete resurrects the id with new values.
  Entity revived = original;
  revived.SetValues(0, {"revived name"});
  ASSERT_TRUE((*live)->Upsert(revived, (*live)->schema()).ok());
  model.Upsert(revived);

  // Re-upsert of the same id again (delta-supersedes-delta).
  Entity again = original;
  again.SetValues(0, {"revived name twice"});
  ASSERT_TRUE((*live)->Upsert(again, (*live)->schema()).ok());
  model.Upsert(again);

  // And survive a compaction.
  ASSERT_TRUE((*live)->Compact().ok());
  const std::vector<Entity> queries = SampleQueries(task.Target(), 10);
  CheckBitIdentity(**live, model, rule, options, queries,
                   task.Target().schema(), "after delete/re-upsert");

  const LiveCorpusStats stats = (*live)->stats();
  EXPECT_EQ(stats.live_entities, model.size());
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.delta_log_entries, 0u);  // compaction drained the log
}

TEST(LiveCorpusTest, ApplyBatchRejectsWholeBatchOnAnyBadOp) {
  const MatchingTask task = GenerateRestaurant({.num_entities = 50});
  auto live = LiveCorpus::Create(task.Target(), RestaurantRule());
  ASSERT_TRUE(live.ok());
  const uint64_t epoch_before = (*live)->epoch();
  const LiveCorpusStats before = (*live)->stats();

  // A valid upsert followed by an upsert under an unknown property:
  // NOTHING may be applied.
  Schema foreign;
  foreign.AddProperty("name");
  foreign.AddProperty("no_such_property");
  std::vector<LiveOp> ops(2);
  ops[0].kind = LiveOp::Kind::kUpsert;
  ops[0].entity = Entity("batch_a");
  ops[0].entity.AddValue(0, "valid");
  ops[1].kind = LiveOp::Kind::kUpsert;
  ops[1].entity = Entity("batch_b");
  ops[1].entity.AddValue(1, "lands in the unknown property");
  const Status bad = (*live)->ApplyBatch(ops, foreign);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*live)->epoch(), epoch_before);
  EXPECT_EQ((*live)->stats().upserts, before.upserts);
  EXPECT_EQ((*live)->stats().live_entities, before.live_entities);

  // Remove of an id the batch itself already removed: NotFound, and
  // again nothing applied.
  std::vector<LiveOp> removes(2);
  removes[0].kind = LiveOp::Kind::kRemove;
  removes[0].id = task.Target().entity(0).id();
  removes[1].kind = LiveOp::Kind::kRemove;
  removes[1].id = task.Target().entity(0).id();
  const Status dup = (*live)->ApplyBatch(removes, (*live)->schema());
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), StatusCode::kNotFound);
  EXPECT_EQ((*live)->epoch(), epoch_before);

  // A batch that upserts an id and removes it again is valid and
  // publishes exactly one epoch.
  std::vector<LiveOp> churn(2);
  churn[0].kind = LiveOp::Kind::kUpsert;
  churn[0].entity = Entity("ephemeral");
  churn[0].entity.AddValue(0, "gone by the end of the batch");
  churn[1].kind = LiveOp::Kind::kRemove;
  churn[1].id = "ephemeral";
  Schema name_only;
  name_only.AddProperty("name");
  ASSERT_TRUE((*live)->ApplyBatch(churn, name_only).ok());
  EXPECT_EQ((*live)->epoch(), epoch_before + 1);
  EXPECT_EQ((*live)->stats().live_entities, before.live_entities);
}

TEST(LiveCorpusTest, RejectsDfDependentBlockingAndEmptyRule) {
  const MatchingTask task = GenerateRestaurant({.num_entities = 30});
  MatchOptions weighted;
  weighted.blocking_max_tokens = 4;
  auto a = LiveCorpus::Create(task.Target(), RestaurantRule(), weighted);
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.status().code(), StatusCode::kInvalidArgument);

  MatchOptions min_df;
  min_df.blocking_min_token_df = 2;
  auto b = LiveCorpus::Create(task.Target(), RestaurantRule(), min_df);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kInvalidArgument);

  auto c = LiveCorpus::Create(task.Target(), LinkageRule());
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kInvalidArgument);

  // A mapped base serves the knobs it was indexed with, so a weighted
  // artifact is refused even when the requested options are the
  // defaults: its postings would sit beside unweighted delta keys.
  const std::string path = TestTempPath("live_weighted.glc");
  MatchOptions indexed;
  indexed.blocking_max_tokens = 4;
  ASSERT_TRUE(
      WriteCorpusArtifact(path, task.Target(), RestaurantRule(), indexed).ok());
  auto mapped = MappedCorpus::Load(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  auto d = LiveCorpus::Create(*mapped, RestaurantRule(), MatchOptions());
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument)
      << d.status().ToString();
  std::remove(path.c_str());
}

TEST(LiveCorpusTest, AutoCompactionBoundsTheDeltaLog) {
  const MatchingTask task = GenerateRestaurant({.num_entities = 60});
  const LinkageRule rule = RestaurantRule();
  MatchOptions options;
  options.num_threads = 2;
  LiveCorpusOptions live_options;
  live_options.compact_delta_threshold = 4;
  auto live = LiveCorpus::Create(task.Target(), rule, options, live_options);
  ASSERT_TRUE(live.ok());
  LogicalModel model(task.Target());
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    const Entity fresh = EditedCopy(task.Target().entity(i), rng,
                                    "auto_" + std::to_string(i));
    ASSERT_TRUE((*live)->Upsert(fresh, (*live)->schema()).ok());
    model.Upsert(fresh);
    EXPECT_LT((*live)->stats().delta_log_entries,
              live_options.compact_delta_threshold);
  }
  EXPECT_GE((*live)->stats().compactions, 2u);
  CheckBitIdentity(**live, model, rule, options,
                   SampleQueries(task.Target(), 8), task.Target().schema(),
                   "after auto-compaction");
}

TEST(LiveCorpusTest, DeployRuleReevaluatesLiveDeltaEntries) {
  const MatchingTask task = GenerateRestaurant({.num_entities = 80});
  MatchOptions options;
  options.num_threads = 2;
  auto live = LiveCorpus::Create(task.Target(), RestaurantRule(), options);
  ASSERT_TRUE(live.ok());
  LogicalModel model(task.Target());
  Rng rng(13);
  for (int i = 0; i < 5; ++i) {
    const Entity edited = EditedCopy(task.Target().entity(i), rng);
    ASSERT_TRUE((*live)->Upsert(edited, (*live)->schema()).ok());
    model.Upsert(edited);
  }
  ASSERT_TRUE((*live)->Remove(task.Target().entity(10).id()).ok());
  model.Remove(task.Target().entity(10).id());

  // Swap to a different rule (different comparison sites, different
  // blocking properties) — live delta entries must re-evaluate.
  auto next = RuleBuilder()
                  .Compare("levenshtein", 2.0, Prop("name").Lower(),
                           Prop("name").Lower())
                  .Build();
  ASSERT_TRUE(next.ok());
  MatchOptions next_options = options;
  next_options.threshold = 0.6;
  ASSERT_TRUE((*live)->DeployRule(*next, next_options).ok());
  CheckBitIdentity(**live, model, *next, next_options,
                   SampleQueries(task.Target(), 10), task.Target().schema(),
                   "after rule swap");
}

TEST(LiveCorpusTest, MappedBaseServesMutationsButCannotCompact) {
  const MatchingTask task = GenerateRestaurant({.num_entities = 80});
  const LinkageRule rule = RestaurantRule();
  MatchOptions options;
  options.num_threads = 2;
  const std::string path = TestTempPath("live_mapped.glc");
  ASSERT_TRUE(
      WriteCorpusArtifact(path, task.Target(), rule, options).ok());
  auto mapped = MappedCorpus::Load(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  auto live = LiveCorpus::Create(*mapped, rule, options);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  LogicalModel model(task.Target());
  Rng rng(17);
  for (int i = 0; i < 4; ++i) {
    const Entity edited = EditedCopy(task.Target().entity(i), rng);
    ASSERT_TRUE((*live)->Upsert(edited, (*live)->schema()).ok());
    model.Upsert(edited);
  }
  ASSERT_TRUE((*live)->Remove(task.Target().entity(20).id()).ok());
  model.Remove(task.Target().entity(20).id());

  CheckBitIdentity(**live, model, rule, options,
                   SampleQueries(task.Target(), 10), task.Target().schema(),
                   "mapped base");

  const Status compact = (*live)->Compact();
  ASSERT_FALSE(compact.ok());
  EXPECT_EQ(compact.code(), StatusCode::kFailedPrecondition);
  auto materialize = (*live)->MaterializeLogical();
  ASSERT_FALSE(materialize.ok());
  EXPECT_EQ(materialize.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

/// The io.write_error sweep (satellite 4): one injected failure at the
/// k-th write-site hit of CompactTo, for every k the successful path
/// performs — whichever site fails, the previous snapshot keeps
/// serving, live state is untouched, and no temp file survives.
TEST(LiveCorpusTest, CompactToWriteFailureSweepKeepsPreviousSnapshotServing) {
  const MatchingTask task = GenerateRestaurant({.num_entities = 60});
  const LinkageRule rule = RestaurantRule();
  MatchOptions options;
  options.num_threads = 2;
  const std::string dir = TestTempPath("live_compact_sweep/");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "compacted.glc";

  // Count the write-site hits of one successful CompactTo.
  uint64_t total_hits = 0;
  {
    auto probe = LiveCorpus::Create(task.Target(), rule, options);
    ASSERT_TRUE(probe.ok());
    Failpoints::Instance().Arm("io.write_error", {.skip = 1u << 30});
    ASSERT_TRUE((*probe)->CompactTo(path).ok());
    total_hits = Failpoints::Instance().Hits("io.write_error");
    Failpoints::Instance().DisarmAll();
    std::remove(path.c_str());
  }
  ASSERT_GT(total_hits, 0u);

  auto live = LiveCorpus::Create(task.Target(), rule, options);
  ASSERT_TRUE(live.ok());
  LogicalModel model(task.Target());
  Rng rng(23);
  const Entity edited = EditedCopy(task.Target().entity(3), rng);
  ASSERT_TRUE((*live)->Upsert(edited, (*live)->schema()).ok());
  model.Upsert(edited);
  const std::vector<Entity> queries = SampleQueries(task.Target(), 6);
  const uint64_t epoch_before = (*live)->epoch();
  const LiveCorpusStats stats_before = (*live)->stats();

  for (uint64_t skip = 0; skip < total_hits; ++skip) {
    Failpoints::Instance().Arm("io.write_error",
                               {.skip = skip, .count = 1, .error_code = ENOSPC});
    const Status status = (*live)->CompactTo(path);
    Failpoints::Instance().DisarmAll();
    ASSERT_FALSE(status.ok()) << "skip=" << skip;
    // Previous snapshot still serving, nothing mutated.
    EXPECT_EQ((*live)->epoch(), epoch_before) << "skip=" << skip;
    EXPECT_EQ((*live)->stats().compactions, stats_before.compactions);
    EXPECT_EQ((*live)->stats().delta_log_entries,
              stats_before.delta_log_entries);
    CheckBitIdentity(**live, model, rule, options, queries,
                     task.Target().schema(),
                     "after failed compaction, skip=" +
                         std::to_string(skip));
    // No artifact and no temp files left behind.
    size_t entries = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      (void)e;
      ++entries;
    }
    EXPECT_EQ(entries, 0u) << "skip=" << skip;
  }

  // Disarmed, the same compaction succeeds, the artifact loads, and a
  // mapped live corpus over it serves the same links.
  ASSERT_TRUE((*live)->CompactTo(path).ok());
  EXPECT_EQ((*live)->stats().compactions, stats_before.compactions + 1);
  auto mapped = MappedCorpus::Load(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  auto remounted = LiveCorpus::Create(*mapped, rule, options);
  ASSERT_TRUE(remounted.ok());
  CheckBitIdentity(**remounted, model, rule, options, queries,
                   task.Target().schema(), "remounted from artifact");
  std::filesystem::remove_all(dir);
}

TEST(LiveCorpusTest, StatsAndEpochTrackMutations) {
  const MatchingTask task = GenerateRestaurant({.num_entities = 40});
  auto live = LiveCorpus::Create(task.Target(), RestaurantRule());
  ASSERT_TRUE(live.ok());
  EXPECT_EQ((*live)->epoch(), 0u);
  LiveCorpusStats stats = (*live)->stats();
  EXPECT_EQ(stats.base_entities, task.Target().size());
  EXPECT_EQ(stats.live_entities, task.Target().size());
  EXPECT_EQ(stats.tombstones, 0u);
  EXPECT_EQ(stats.delta_store_bytes, 0u);

  Entity fresh("stats_new");
  fresh.AddValue(0, "a new restaurant");
  Schema name_only;
  name_only.AddProperty("name");
  ASSERT_TRUE((*live)->Upsert(fresh, name_only).ok());
  ASSERT_TRUE((*live)->Remove(task.Target().entity(0).id()).ok());
  stats = (*live)->stats();
  EXPECT_EQ((*live)->epoch(), 2u);
  EXPECT_EQ(stats.upserts, 1u);
  EXPECT_EQ(stats.removes, 1u);
  EXPECT_EQ(stats.delta_entities, 1u);
  EXPECT_EQ(stats.tombstones, 1u);
  EXPECT_EQ(stats.live_entities, task.Target().size());
  EXPECT_GT(stats.delta_store_bytes, 0u);

  ASSERT_TRUE((*live)->Compact().ok());
  stats = (*live)->stats();
  EXPECT_EQ((*live)->epoch(), 3u);
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.tombstones, 0u);
  EXPECT_EQ(stats.delta_entities, 0u);
  EXPECT_EQ(stats.base_entities, task.Target().size());  // -1 dead +1 new
  EXPECT_GE(stats.last_compact_seconds, 0.0);
}

TEST(LiveCorpusTest, GeneratedDeltaStreamRoundTripsThroughCsvAndApplies) {
  SyntheticDeltaConfig config;
  config.base.num_entities = 300;
  config.num_deltas = 200;
  const MatchingTask task = GenerateSynthetic(config.base);
  const SyntheticDeltas deltas = GenerateSyntheticDeltas(config);

  // SyntheticDelta -> LiveOp, the same conversion `gen --out-deltas`
  // performs before writing.
  std::vector<LiveOp> ops;
  ops.reserve(deltas.ops.size());
  for (const SyntheticDelta& delta : deltas.ops) {
    LiveOp op;
    if (delta.remove) {
      op.kind = LiveOp::Kind::kRemove;
      op.id = delta.entity.id();
    } else {
      op.entity = delta.entity;
    }
    ops.push_back(std::move(op));
  }

  // The CSV round trip preserves every op, and a second encode is
  // byte-stable.
  const std::string text = WriteDeltaCsv(deltas.schema, ops);
  auto parsed = ReadDeltaCsv(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->schema.NumProperties(), deltas.schema.NumProperties());
  for (PropertyId p = 0; p < deltas.schema.NumProperties(); ++p) {
    EXPECT_EQ(parsed->schema.PropertyName(p), deltas.schema.PropertyName(p));
  }
  ASSERT_EQ(parsed->ops.size(), ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    ASSERT_EQ(parsed->ops[i].kind, ops[i].kind) << "op " << i;
    if (ops[i].kind == LiveOp::Kind::kRemove) {
      EXPECT_EQ(parsed->ops[i].id, ops[i].id) << "op " << i;
    } else {
      EXPECT_EQ(parsed->ops[i].entity.id(), ops[i].entity.id()) << "op " << i;
      for (PropertyId p = 0; p < deltas.schema.NumProperties(); ++p) {
        EXPECT_EQ(parsed->ops[i].entity.Values(p), ops[i].entity.Values(p))
            << "op " << i << " property " << p;
      }
    }
  }
  EXPECT_EQ(WriteDeltaCsv(parsed->schema, parsed->ops), text);

  // The parsed stream applies batch-by-batch (the `genlink apply`
  // path) and the mutated index stays bit-identical to a fresh build
  // of the final logical corpus.
  const LinkageRule rule = PersonRule();
  MatchOptions options;
  options.num_threads = 4;
  auto live = LiveCorpus::Create(task.b, rule, options);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  LogicalModel model(task.b);
  const std::span<const LiveOp> parsed_ops(parsed->ops);
  for (size_t offset = 0; offset < parsed_ops.size(); offset += 64) {
    const size_t count = std::min<size_t>(64, parsed_ops.size() - offset);
    const auto chunk = parsed_ops.subspan(offset, count);
    ASSERT_TRUE((*live)->ApplyBatch(chunk, parsed->schema).ok());
    for (const LiveOp& op : chunk) {
      // The delta schema lists the same properties in the same order
      // as the synthetic corpus schema, so the entity carries over.
      if (op.kind == LiveOp::Kind::kRemove) {
        model.Remove(op.id);
      } else {
        model.Upsert(op.entity);
      }
    }
  }
  CheckBitIdentity(**live, model, rule, options, SampleQueries(task.a, 40),
                   task.a.schema(), "delta stream");
}

TEST(LiveCorpusTest, DeltaCsvRejectsMalformedInput) {
  EXPECT_FALSE(ReadDeltaCsv("").ok());
  EXPECT_FALSE(ReadDeltaCsv("id,op,name\n").ok());  // wrong column order
  EXPECT_FALSE(ReadDeltaCsv("op,id,name\nupsert,a,b,c\n").ok());  // too wide
  EXPECT_FALSE(ReadDeltaCsv("op,id,name\nnuke,a,b\n").ok());  // unknown op
  EXPECT_FALSE(ReadDeltaCsv("op,id,name\nupsert,,x\n").ok());  // missing id

  // Rows shorter than the header pad with missing values; blank lines
  // are skipped.
  auto ok = ReadDeltaCsv("op,id,name\ndelete,gone\n\nupsert,back,hello\n");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_EQ(ok->ops.size(), 2u);
  EXPECT_EQ(ok->ops[0].kind, LiveOp::Kind::kRemove);
  EXPECT_EQ(ok->ops[0].id, "gone");
  EXPECT_EQ(ok->ops[1].kind, LiveOp::Kind::kUpsert);
  EXPECT_EQ(ok->ops[1].entity.Values(0).front(), "hello");
}

}  // namespace
}  // namespace genlink

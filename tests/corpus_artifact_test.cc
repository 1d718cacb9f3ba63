// Tests for the v2 corpus artifact (io/corpus_artifact.h): mapped
// query results must be bit-identical to a fresh in-memory
// MatcherIndex::Build on the paper's evaluation data, and Load must
// degrade every corruption — truncation at any byte, a flipped bit, a
// wrong-endian writer, a v1 text artifact — to a named Status, never
// UB (this suite is what the ASan/UBSan CI leg exercises).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/matcher_index.h"
#include "datasets/cora.h"
#include "datasets/restaurant.h"
#include "io/artifact.h"
#include "io/corpus_artifact.h"
#include "io/csv.h"
#include "matcher/matcher.h"
#include "rule/builder.h"
#include "serve/serving_state.h"
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

/// A rule over a property the artifacts above never precompute.
LinkageRule UnrelatedRule() {
  auto rule = RuleBuilder()
                  .Compare("levenshtein", 2.0, Prop("city").Lower(),
                           Prop("city").Lower())
                  .Build();
  EXPECT_TRUE(rule.ok());
  return std::move(rule).value();
}

std::string ReadAll(const std::string& path) {
  auto content = ReadFileToString(path);
  EXPECT_TRUE(content.ok()) << path;
  return std::move(content).value_or(std::string());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
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

/// Writes the artifact for (target, rule, options), loads it back, and
/// asserts the mapped index answers every source entity bit-identically
/// to a fresh in-memory serving build.
void CheckBitIdentity(const MatchingTask& task, const LinkageRule& rule,
                      const MatchOptions& options, const std::string& name) {
  const std::string path = TestTempPath(name);
  CorpusArtifactStats stats;
  ASSERT_TRUE(
      WriteCorpusArtifact(path, task.a, rule, options, nullptr, &stats).ok());
  EXPECT_EQ(stats.num_entities, task.a.size());
  EXPECT_GT(stats.num_plans, 0u);
  EXPECT_GT(stats.file_bytes, 0u);

  auto mapped = MappedCorpus::Load(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ((*mapped)->size(), task.a.size());
  EXPECT_EQ((*mapped)->file_bytes(), stats.file_bytes);

  auto from_map = MatcherIndex::Build(*mapped, rule, options);
  ASSERT_TRUE(from_map.ok()) << from_map.status().ToString();
  EXPECT_TRUE((*from_map)->is_mapped());
  auto fresh = MatcherIndex::Build(task.a, rule, options);
  ASSERT_FALSE(fresh->is_mapped());

  ExpectSameLinks((*from_map)->MatchBatch(task.a.entities(), task.a.schema()),
                  fresh->MatchBatch(task.a.entities(), task.a.schema()),
                  name + " batch");
  for (size_t i = 0; i < std::min<size_t>(task.a.size(), 25); ++i) {
    ExpectSameLinks(
        (*from_map)->MatchEntity(task.a.entity(i), task.a.schema()),
        fresh->MatchEntity(task.a.entity(i), task.a.schema()),
        name + " entity " + std::to_string(i));
  }
  std::remove(path.c_str());
}

TEST(CorpusArtifactTest, MappedBitIdenticalRestaurant) {
  RestaurantConfig config;
  config.scale = 0.4;
  MatchingTask task = GenerateRestaurant(config);
  for (const bool use_blocking : {true, false}) {
    MatchOptions options;
    options.use_blocking = use_blocking;
    CheckBitIdentity(task, RestaurantRule(), options,
                     "restaurant_blocking" + std::to_string(use_blocking));
  }
}

TEST(CorpusArtifactTest, MappedBitIdenticalCora) {
  CoraConfig config;
  config.scale = 0.15;
  MatchingTask task = GenerateCora(config);
  MatchOptions options;
  CheckBitIdentity(task, CoraRule(), options, "cora");
}

TEST(CorpusArtifactTest, MappedBitIdenticalWeightedBlocking) {
  RestaurantConfig config;
  config.scale = 0.3;
  MatchingTask task = GenerateRestaurant(config);
  MatchOptions options;
  options.blocking_max_tokens = 4;
  options.blocking_min_token_df = 2;
  CheckBitIdentity(task, RestaurantRule(), options, "restaurant_weighted");
}

TEST(CorpusArtifactTest, WriterRejectsEmptyRule) {
  RestaurantConfig config;
  config.scale = 0.1;
  MatchingTask task = GenerateRestaurant(config);
  const std::string path = TestTempPath("rejects");
  EXPECT_FALSE(
      WriteCorpusArtifact(path, task.a, LinkageRule(), MatchOptions()).ok());
}

class MappedServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RestaurantConfig config;
    config.scale = 0.2;
    task_ = GenerateRestaurant(config);
    path_ = TestTempPath("serving.glidx");
    ASSERT_TRUE(
        WriteCorpusArtifact(path_, task_.a, RestaurantRule(), options_).ok());
    auto mapped = MappedCorpus::Load(path_);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    mapped_ = std::move(mapped).value();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  MatchingTask task_;
  MatchOptions options_;
  std::string path_;
  std::shared_ptr<const MappedCorpus> mapped_;
};

TEST_F(MappedServingTest, MissingPlanIsNamedFailedPrecondition) {
  auto built = MatcherIndex::Build(mapped_, UnrelatedRule(), options_);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(built.status().message().find("genlink index"), std::string::npos);
}

TEST_F(MappedServingTest, BuildAdoptsTheArtifactsBlockingKnobs) {
  // A weighted artifact deployed with default options serves the knobs
  // it was indexed with, exactly like a fresh build under those knobs.
  const std::string path = TestTempPath("weighted.glidx");
  MatchOptions weighted = options_;
  weighted.blocking_max_tokens = 4;
  weighted.blocking_min_token_df = 2;
  ASSERT_TRUE(
      WriteCorpusArtifact(path, task_.a, RestaurantRule(), weighted).ok());
  auto mapped = MappedCorpus::Load(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  auto index = MatcherIndex::Build(*mapped, RestaurantRule(), options_);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ((*index)->options().blocking_max_tokens, 4u);
  EXPECT_EQ((*index)->options().blocking_min_token_df, 2u);
  const auto fresh = MatcherIndex::Build(task_.a, RestaurantRule(), weighted);
  EXPECT_EQ((*index)->stats().blocking_postings,
            fresh->stats().blocking_postings);
  ExpectSameLinks((*index)->MatchBatch(task_.a.entities(), task_.a.schema()),
                  fresh->MatchBatch(task_.a.entities(), task_.a.schema()),
                  "adopted knobs");

  auto swapped = (*index)->TryWithRule(RestaurantRule(), options_);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_EQ((*swapped)->options().blocking_max_tokens, 4u);
  EXPECT_EQ((*swapped)->options().blocking_min_token_df, 2u);

  ServingState state(*mapped);
  RuleArtifact artifact;
  artifact.name = "defaults";
  artifact.rule = RestaurantRule();
  EXPECT_TRUE(state.Deploy(artifact).ok());
  std::remove(path.c_str());
}

TEST_F(MappedServingTest, EmptyRuleAndNullCorpusRejected) {
  EXPECT_FALSE(MatcherIndex::Build(mapped_, LinkageRule(), options_).ok());
  EXPECT_FALSE(MatcherIndex::Build(std::shared_ptr<const MappedCorpus>(),
                                   RestaurantRule(), options_)
                   .ok());
}

TEST_F(MappedServingTest, TryWithRuleHotSwapsAndSurfacesPlanMisses) {
  auto index = MatcherIndex::Build(mapped_, RestaurantRule(), options_);
  ASSERT_TRUE(index.ok());
  // Same rule, fresh compile: serves identically.
  auto swapped = (*index)->TryWithRule(RestaurantRule(), options_);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  ExpectSameLinks(
      (*swapped)->MatchBatch(task_.a.entities(), task_.a.schema()),
      (*index)->MatchBatch(task_.a.entities(), task_.a.schema()), "swap");
  // A rule the artifact has no plans for fails without touching *index.
  auto miss = (*index)->TryWithRule(UnrelatedRule(), options_);
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*index)->WithRule(UnrelatedRule(), options_), nullptr);
}

TEST_F(MappedServingTest, ServingStateDegradesGracefullyOnPlanMiss) {
  ServingState state(mapped_);
  RuleArtifact good;
  good.name = "good";
  good.rule = RestaurantRule();
  good.options = options_;
  ASSERT_TRUE(state.Deploy(good).ok());
  const auto live = state.index();
  ASSERT_NE(live, nullptr);
  const auto before = live->MatchBatch(task_.a.entities(), task_.a.schema());

  RuleArtifact bad;
  bad.name = "bad";
  bad.rule = UnrelatedRule();
  bad.options = options_;
  const Status status = state.Deploy(bad);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);

  // The previous deployment keeps serving, bit-identically; the state
  // reports stale.
  const ServingState::Snapshot snapshot = state.snapshot();
  EXPECT_EQ(snapshot.generation, 1u);
  EXPECT_EQ(snapshot.failed_reloads, 1u);
  EXPECT_TRUE(snapshot.stale);
  EXPECT_NE(snapshot.last_error.find("bad"), std::string::npos);
  ASSERT_EQ(state.index(), live);
  ExpectSameLinks(
      state.index()->MatchBatch(task_.a.entities(), task_.a.schema()), before,
      "after failed deploy");
}

TEST_F(MappedServingTest, ChecksumSkipLoadsAndServes) {
  MappedCorpusOptions load_options;
  load_options.verify_checksum = false;
  auto mapped = MappedCorpus::Load(path_, load_options);
  ASSERT_TRUE(mapped.ok());
  EXPECT_TRUE(MatcherIndex::Build(*mapped, RestaurantRule(), options_).ok());
}

TEST_F(MappedServingTest, NoBlockingArtifactRefusesBlockingOptions) {
  const std::string path = TestTempPath("noblocking.glidx");
  MatchOptions no_blocking = options_;
  no_blocking.use_blocking = false;
  ASSERT_TRUE(
      WriteCorpusArtifact(path, task_.a, RestaurantRule(), no_blocking).ok());
  auto mapped = MappedCorpus::Load(path);
  ASSERT_TRUE(mapped.ok());
  EXPECT_FALSE((*mapped)->has_blocking());
  EXPECT_TRUE(MatcherIndex::Build(*mapped, RestaurantRule(), no_blocking).ok());
  auto with_blocking = MatcherIndex::Build(*mapped, RestaurantRule(), options_);
  ASSERT_FALSE(with_blocking.ok());
  EXPECT_EQ(with_blocking.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

// ---- Corruption fuzzing. A tiny corpus keeps the artifact a few KB so
// truncating at EVERY byte boundary stays fast.

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dataset = ReadCsvDataset(
        "id,name,address,city\n"
        "e0,alpha beta,12 main st,lisbon\n"
        "e1,beta gamma,34 side st,porto\n"
        "e2,gamma delta,56 hill rd,faro\n"
        "e3,delta alpha,78 lake ave,braga\n",
        "tiny", {});
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).value();
    path_ = TestTempPath("fuzz.glidx");
    ASSERT_TRUE(
        WriteCorpusArtifact(path_, dataset_, RestaurantRule(), MatchOptions())
            .ok());
    bytes_ = ReadAll(path_);
    ASSERT_GT(bytes_.size(), 0u);
    corrupt_path_ = TestTempPath("fuzz_corrupt.glidx");
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(corrupt_path_.c_str());
  }

  /// The links a mapped index over the artifact at `path` serves for
  /// every entity of dataset_. Threshold 0 keeps every blocking
  /// candidate, so the links also pin the candidate sets.
  std::vector<GeneratedLink> ServedLinks(const std::string& path) {
    MappedCorpusOptions load_options;
    load_options.verify_checksum = false;
    auto mapped = MappedCorpus::Load(path, load_options);
    EXPECT_TRUE(mapped.ok()) << mapped.status().ToString();
    if (!mapped.ok()) return {};
    MatchOptions options;
    options.threshold = 0.0;
    auto index = MatcherIndex::Build(*mapped, RestaurantRule(), options);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    if (!index.ok()) return {};
    return (*index)->MatchBatch(dataset_.entities(), dataset_.schema());
  }

  Dataset dataset_;
  std::string path_;
  std::string bytes_;
  std::string corrupt_path_;
};

TEST_F(CorruptionTest, TruncationAtEveryByteIsANamedError) {
  for (size_t len = 0; len < bytes_.size(); ++len) {
    WriteAll(corrupt_path_, bytes_.substr(0, len));
    auto loaded = MappedCorpus::Load(corrupt_path_);
    ASSERT_FALSE(loaded.ok()) << "truncated to " << len << " bytes loaded";
    ASSERT_FALSE(loaded.status().message().empty()) << "at " << len;
  }
}

TEST_F(CorruptionTest, SingleBitFlipsAreDetected) {
  // Every byte would be slow under sanitizers; a stride covers the
  // header and every section with hundreds of positions.
  const size_t stride = std::max<size_t>(1, bytes_.size() / 512);
  for (size_t pos = 0; pos < bytes_.size(); pos += stride) {
    std::string corrupted = bytes_;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x10);
    WriteAll(corrupt_path_, corrupted);
    auto loaded = MappedCorpus::Load(corrupt_path_);
    EXPECT_FALSE(loaded.ok()) << "bit flip at byte " << pos << " loaded";
  }
}

TEST_F(CorruptionTest, WrongEndianVersionIsNamed) {
  std::string swapped = bytes_;
  // The u32 version at offset 8, byte-swapped as a big-endian writer
  // would have laid it out.
  std::swap(swapped[8], swapped[11]);
  std::swap(swapped[9], swapped[10]);
  WriteAll(corrupt_path_, swapped);
  auto loaded = MappedCorpus::Load(corrupt_path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("endian"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(CorruptionTest, V1TextArtifactIsNamed) {
  RuleArtifact artifact;
  artifact.name = "v1";
  artifact.rule = RestaurantRule();
  ASSERT_TRUE(SaveArtifact(corrupt_path_, artifact).ok());
  auto loaded = MappedCorpus::Load(corrupt_path_);
  ASSERT_FALSE(loaded.ok());
  // The error must say "this is a rule artifact", not a generic magic
  // mismatch — pointing --index at the --artifact file is the likely
  // operator slip.
  EXPECT_NE(loaded.status().message().find("rule artifact"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(CorruptionTest, GarbageAndEmptyFilesAreNamedErrors) {
  WriteAll(corrupt_path_, "");
  EXPECT_FALSE(MappedCorpus::Load(corrupt_path_).ok());
  WriteAll(corrupt_path_, "not an artifact at all, just text\n");
  EXPECT_FALSE(MappedCorpus::Load(corrupt_path_).ok());
  EXPECT_FALSE(
      MappedCorpus::Load(TestTempPath("never_written.glidx")).ok());
}

TEST_F(CorruptionTest, ShardCountInHeaderIsIgnored) {
  // The u64 at header offset 112 once counted hash shards. Writers now
  // always store 1 and readers ignore any other non-zero count.
  constexpr size_t kShardCountOffset = 112;
  std::string patched = bytes_;
  const uint64_t three = 3;
  std::memcpy(patched.data() + kShardCountOffset, &three, sizeof(three));
  WriteAll(corrupt_path_, patched);
  const std::vector<GeneratedLink> expected = ServedLinks(path_);
  ASSERT_FALSE(expected.empty());
  ExpectSameLinks(ServedLinks(corrupt_path_), expected, "patched shard count");
}

TEST_F(CorruptionTest, VersionFromTheFutureIsRejected) {
  std::string future = bytes_;
  future[8] = 99;  // version u32 little-endian low byte
  WriteAll(corrupt_path_, future);
  auto loaded = MappedCorpus::Load(corrupt_path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

}  // namespace
}  // namespace genlink

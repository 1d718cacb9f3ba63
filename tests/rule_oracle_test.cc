// Differential oracle: every scoring surface against the executable
// spec.
//
// LinkageRule::Evaluate (rule/operators.cc: Definition 7 thresholding,
// Definition 8 aggregation) is the reference semantics of a rule. Every
// other surface scores pairs from precomputed values instead: the
// evaluation engine from cached distance rows, MatcherIndex from its
// value store, from a mapped v2 corpus artifact or from per-query
// evaluated values, and LiveCorpus additionally from its delta entries.
// This suite holds all of them to the spec bit for bit (EXPECT_EQ on the
// doubles), at 1 and 4 threads, and the engine's block evaluator
// (ScoreBlock) to the pair-at-a-time Score() on bit patterns, over
//
//   * seeded random rules from RuleGenerator in every representation
//     mode, plus deeper random trees built from its fragments, and
//   * hand-built rules at the evaluators' limits: nesting deeper and
//     fan-out wider than any fixed stack buffer, aggregations of more
//     than 8 operands (the heap branch of AggregationOperator::Evaluate),
//     and non-unit weighted-mean weights,
//
// on generated person-directory entities (datasets/synthetic.h).
//
// Link lists are compared with a test-local join that calls
// LinkageRule::Evaluate on the same candidates the surface considers —
// every target, or the token-blocking candidates of the same index
// configuration. The link threshold is 0, so every considered pair is
// emitted and every score is checked.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "api/matcher_index.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "datasets/synthetic.h"
#include "distance/registry.h"
#include "eval/engine.h"
#include "eval/fitness.h"
#include "gp/rule_generator.h"
#include "io/corpus_artifact.h"
#include "live/live_corpus.h"
#include "matcher/blocking.h"
#include "rule/aggregation_function.h"
#include "rule/rule_program.h"
#include "test_tmpdir.h"
#include "transform/registry.h"

namespace genlink {
namespace {

constexpr size_t kEntities = 40;
// Hand-built limits: a chain of kDeepNesting nested aggregations and one
// aggregation of kWideFanOut operands. Both overflow the rule program's
// inline evaluation stack into its heap branch.
constexpr size_t kDeepNesting = 72;
constexpr size_t kWideFanOut = 72;
static_assert(kDeepNesting > RuleProgram::kInlineStack &&
              kWideFanOut > RuleProgram::kInlineStack);

const std::vector<std::string>& Properties() {
  static const std::vector<std::string> names = {"name", "address", "city",
                                                 "phone", "birth"};
  return names;
}

const MatchingTask& Task() {
  static const MatchingTask task = [] {
    SyntheticConfig config;
    config.num_entities = kEntities;
    config.seed = 1207;
    return GenerateSynthetic(config);
  }();
  return task;
}

std::vector<CompatiblePair> CompatiblePairs() {
  const DistanceRegistry& reg = DistanceRegistry::Default();
  return {
      {"name", "name", reg.Find("levenshtein"), 9},
      {"name", "name", reg.Find("jaroWinkler"), 5},
      {"address", "address", reg.Find("jaccard"), 7},
      {"address", "address", reg.Find("cosine"), 3},
      {"city", "city", reg.Find("equality"), 6},
      {"phone", "phone", reg.Find("levenshtein"), 4},
      {"birth", "birth", reg.Find("numeric"), 5},
      {"name", "address", reg.Find("dice"), 1},
      {"city", "city", reg.Find("jaro"), 2},
      {"birth", "birth", reg.Find("date"), 1},
  };
}

std::unique_ptr<ValueOperator> Value(const std::string& property,
                                     std::vector<std::string> transforms) {
  std::unique_ptr<ValueOperator> op =
      std::make_unique<PropertyOperator>(property);
  for (const std::string& name : transforms) {
    std::vector<std::unique_ptr<ValueOperator>> inputs;
    inputs.push_back(std::move(op));
    op = std::make_unique<TransformOperator>(
        TransformRegistry::Default().Find(name), std::move(inputs));
  }
  return op;
}

// The k-th comparison of the hand-built rules: cycles through measures,
// transformations and thresholds, with a non-unit weight.
std::unique_ptr<SimilarityOperator> Site(size_t k) {
  const DistanceRegistry& reg = DistanceRegistry::Default();
  std::unique_ptr<ComparisonOperator> cmp;
  switch (k % 8) {
    case 0:
      cmp = std::make_unique<ComparisonOperator>(
          Value("name", {"lowerCase"}), Value("name", {"lowerCase"}),
          reg.Find("levenshtein"), 1.0 + static_cast<double>(k % 3));
      break;
    case 1:
      cmp = std::make_unique<ComparisonOperator>(
          Value("address", {"lowerCase", "tokenize"}),
          Value("address", {"lowerCase", "tokenize"}), reg.Find("jaccard"),
          0.3 + 0.1 * static_cast<double>(k % 4));
      break;
    case 2:
      cmp = std::make_unique<ComparisonOperator>(
          Value("city", {}), Value("city", {}), reg.Find("equality"), 0.5);
      break;
    case 3:
      cmp = std::make_unique<ComparisonOperator>(
          Value("birth", {}), Value("birth", {}), reg.Find("numeric"),
          1.0 + static_cast<double>(k % 5));
      break;
    case 4:
      cmp = std::make_unique<ComparisonOperator>(
          Value("name", {}), Value("name", {}), reg.Find("jaroWinkler"), 0.25);
      break;
    case 5:
      cmp = std::make_unique<ComparisonOperator>(
          Value("name", {"tokenize"}), Value("address", {"tokenize"}),
          reg.Find("cosine"), 0.7);
      break;
    case 6:
      cmp = std::make_unique<ComparisonOperator>(
          Value("address", {"stripPunctuation", "tokenize"}),
          Value("address", {"tokenize"}), reg.Find("dice"), 0.45);
      break;
    default:
      cmp = std::make_unique<ComparisonOperator>(
          Value("phone", {"removeDashes"}), Value("phone", {"removeDashes"}),
          reg.Find("levenshtein"), 2.0);
      break;
  }
  cmp->set_weight(1.0 + 0.5 * static_cast<double>(k % 7));
  return cmp;
}

std::unique_ptr<SimilarityOperator> Aggregation(
    const char* function, std::vector<std::unique_ptr<SimilarityOperator>> ops,
    double weight) {
  auto agg = std::make_unique<AggregationOperator>(
      AggregationRegistry::Default().Find(function), std::move(ops));
  agg->set_weight(weight);
  return agg;
}

// agg(site, agg(site, ... agg(site, site))) — every level keeps one
// operand on the evaluation stack while the next level runs.
LinkageRule DeepRule() {
  const char* functions[] = {"wmean", "max", "wmean", "min"};
  std::unique_ptr<SimilarityOperator> node = Site(kDeepNesting);
  for (size_t level = 0; level < kDeepNesting; ++level) {
    std::vector<std::unique_ptr<SimilarityOperator>> ops;
    ops.push_back(Site(level));
    ops.push_back(std::move(node));
    node = Aggregation(functions[level % 4], std::move(ops),
                       1.0 + 0.75 * static_cast<double>(level % 5));
  }
  return LinkageRule(std::move(node));
}

LinkageRule WideRule() {
  std::vector<std::unique_ptr<SimilarityOperator>> ops;
  for (size_t k = 0; k < kWideFanOut; ++k) ops.push_back(Site(k));
  return LinkageRule(Aggregation("wmean", std::move(ops), 1.0));
}

// Nine-operand min/max/wmean: one past the 8-slot inline buffers.
LinkageRule NineOperandRule() {
  std::vector<std::unique_ptr<SimilarityOperator>> root;
  for (const char* function : {"max", "wmean", "min"}) {
    std::vector<std::unique_ptr<SimilarityOperator>> ops;
    for (size_t k = 0; k < 9; ++k) ops.push_back(Site(k * 3 + root.size()));
    root.push_back(Aggregation(function, std::move(ops), 2.0 + root.size()));
  }
  return LinkageRule(Aggregation("wmean", std::move(root), 1.0));
}

LinkageRule WeightedMeanRule() {
  std::vector<std::unique_ptr<SimilarityOperator>> ops;
  const double weights[] = {3.0, 0.5, 7.25, 1e-3, 13.0};
  for (size_t k = 0; k < std::size(weights); ++k) {
    ops.push_back(Site(k));
    ops.back()->set_weight(weights[k]);
  }
  return LinkageRule(Aggregation("wmean", std::move(ops), 1.0));
}

// A random tree of generator fragments, `depth` aggregation levels deep
// at most.
std::unique_ptr<SimilarityOperator> RandomTree(const RuleGenerator& generator,
                                               Rng& rng, int depth) {
  if (depth == 0 || rng.Bernoulli(0.35)) {
    return generator.RandomComparison(rng);
  }
  std::vector<std::unique_ptr<SimilarityOperator>> ops;
  const int64_t arity = rng.UniformInt(1, 5);
  for (int64_t i = 0; i < arity; ++i) {
    ops.push_back(RandomTree(generator, rng, depth - 1));
  }
  auto agg = std::make_unique<AggregationOperator>(
      generator.RandomAggregationFunction(rng), std::move(ops));
  agg->set_weight(generator.RandomWeight(rng));
  return agg;
}

const std::vector<LinkageRule>& Rules() {
  static const std::vector<LinkageRule> rules = [] {
    std::vector<LinkageRule> out;
    uint64_t seed = 41;
    for (RepresentationMode mode :
         {RepresentationMode::kBoolean, RepresentationMode::kLinear,
          RepresentationMode::kNonlinear, RepresentationMode::kFull}) {
      RuleGeneratorConfig config;
      config.mode = mode;
      RuleGenerator generator(CompatiblePairs(), Properties(), Properties(),
                              config);
      Rng rng(seed++);
      for (int i = 0; i < 4; ++i) out.push_back(generator.RandomRule(rng));
      for (int i = 0; i < 3; ++i) {
        out.emplace_back(RandomTree(generator, rng, /*depth=*/4));
      }
    }
    out.push_back(DeepRule());
    out.push_back(WideRule());
    out.push_back(NineOperandRule());
    out.push_back(WeightedMeanRule());
    for (const LinkageRule& rule : out) {
      EXPECT_TRUE(rule.Validate().ok()) << rule.Validate().ToString();
    }
    return out;
  }();
  return rules;
}

std::string Label(size_t rule, size_t threads, bool blocking) {
  return "rule #" + std::to_string(rule) + " threads=" +
         std::to_string(threads) + " blocking=" + std::to_string(blocking);
}

MatchOptions Options(size_t threads, bool blocking) {
  MatchOptions options;
  options.threshold = 0.0;  // emit every considered pair
  options.use_blocking = blocking;
  options.num_threads = threads;
  return options;
}

void ExpectSameLinks(const std::vector<GeneratedLink>& got,
                     const std::vector<GeneratedLink>& want,
                     const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id_a, want[i].id_a) << label << " link " << i;
    EXPECT_EQ(got[i].id_b, want[i].id_b) << label << " link " << i;
    EXPECT_EQ(got[i].score, want[i].score) << label << " link " << i;
    if (::testing::Test::HasFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// The test-local joins over LinkageRule::Evaluate.

std::vector<size_t> AllCandidates(const Dataset& target) {
  std::vector<size_t> all(target.size());
  for (size_t j = 0; j < all.size(); ++j) all[j] = j;
  return all;
}

// Full join in MatchDataset's order (score desc, id_a, id_b); a
// self-join emits each unordered pair once (id_a < id_b).
std::vector<GeneratedLink> SpecJoin(const LinkageRule& rule,
                                    const Dataset& source,
                                    const Dataset& target, bool blocking) {
  std::optional<TokenBlockingIndex> index;
  if (blocking) index.emplace(target, TargetProperties(rule));
  const bool self_join = &source == &target;
  std::vector<GeneratedLink> links;
  for (const Entity& a : source.entities()) {
    const std::vector<size_t> candidates =
        blocking ? index->Candidates(a, source.schema())
                 : AllCandidates(target);
    for (size_t j : candidates) {
      const Entity& b = target.entity(j);
      if (self_join && a.id() >= b.id()) continue;
      links.push_back({a.id(), b.id(),
                       rule.Evaluate(a, b, source.schema(), target.schema())});
    }
  }
  std::sort(links.begin(), links.end(), [](const auto& x, const auto& y) {
    if (x.score != y.score) return x.score > y.score;
    if (x.id_a != y.id_a) return x.id_a < y.id_a;
    return x.id_b < y.id_b;
  });
  return links;
}

// One query against a serving corpus, in MatchEntity's order (score
// desc, id_b): a record is never its own duplicate.
std::vector<GeneratedLink> SpecQuery(const LinkageRule& rule,
                                     const Entity& query, const Schema& schema,
                                     const Dataset& corpus,
                                     const TokenBlockingIndex* blocking) {
  const std::vector<size_t> candidates =
      blocking != nullptr ? blocking->Candidates(query, schema)
                          : AllCandidates(corpus);
  std::vector<GeneratedLink> links;
  for (size_t j : candidates) {
    const Entity& b = corpus.entity(j);
    if (b.id() == query.id()) continue;
    links.push_back({query.id(), b.id(),
                     rule.Evaluate(query, b, schema, corpus.schema())});
  }
  std::sort(links.begin(), links.end(), [](const auto& x, const auto& y) {
    if (x.score != y.score) return x.score > y.score;
    return x.id_b < y.id_b;
  });
  return links;
}

// Checks MatchEntity and MatchBatch of `surface` (a MatcherIndex or a
// LiveCorpus) for two query sets: the A side (foreign ids) and a slice
// of the corpus itself (own-id skipping).
template <typename Surface>
void ExpectQueriesMatchSpec(const Surface& surface, const LinkageRule& rule,
                            const Dataset& corpus, bool blocking,
                            const std::string& label) {
  std::optional<TokenBlockingIndex> index;
  if (blocking) index.emplace(corpus, TargetProperties(rule));
  const TokenBlockingIndex* candidates = index ? &*index : nullptr;
  const Dataset& foreign = Task().a;
  const std::vector<Entity> own(corpus.entities().begin(),
                                corpus.entities().begin() + 6);
  for (const auto& [queries, schema] :
       {std::pair<std::span<const Entity>, const Schema*>{
            foreign.entities(), &foreign.schema()},
        std::pair<std::span<const Entity>, const Schema*>{own,
                                                          &corpus.schema()}}) {
    std::vector<GeneratedLink> batch_want;
    for (const Entity& query : queries) {
      std::vector<GeneratedLink> want =
          SpecQuery(rule, query, *schema, corpus, candidates);
      ExpectSameLinks(surface.MatchEntity(query, *schema), want,
                      label + " entity " + query.id());
      if (::testing::Test::HasFailure()) return;
      batch_want.insert(batch_want.end(), want.begin(), want.end());
    }
    ExpectSameLinks(surface.MatchBatch(queries, *schema), batch_want,
                    label + " batch");
    if (::testing::Test::HasFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Query-side token ids where generated data is thin. A set-measure query
// value its target plan lacks takes a fresh id, so it counts in the
// union and never intersects. The cases: values absent from the
// corpus, values whose bytes the string table holds only as another
// plan's value or (mapped) as an entity id, values repeated within one
// set (cosine counts), the empty string, and empty sets.

Dataset TokenCorpus() {
  Dataset corpus("token-corpus");
  const PropertyId tokens = corpus.schema().AddProperty("tokens");
  const PropertyId words = corpus.schema().AddProperty("words");
  const std::vector<std::tuple<std::string, ValueSet, ValueSet>> rows = {
      {"t1", {"alpha", "beta", "alpha"}, {"gamma", "delta"}},
      {"t2", {"beta", ""}, {"alpha", "gamma", "gamma"}},
      {"t3", {"delta"}, {}},
      {"t4", {}, {"beta", "beta"}},
  };
  for (const auto& [id, token_values, word_values] : rows) {
    Entity entity(id);
    entity.SetValues(tokens, token_values);
    entity.SetValues(words, word_values);
    EXPECT_TRUE(corpus.AddEntity(std::move(entity)).ok());
  }
  return corpus;
}

Dataset TokenQueries() {
  Dataset queries("token-queries");
  const PropertyId tokens = queries.schema().AddProperty("tokens");
  const std::vector<std::pair<std::string, ValueSet>> rows = {
      // "gamma" is only a `words` value, "t2" only an entity id.
      {"q1", {"alpha", "alpha", "gamma", "t2", "", "absent"}},
      {"q2", {"", "", "beta"}},
      {"q3", {"absent", "missing", "absent", "t3"}},
      {"q4", {"delta", "gamma", "gamma"}},
      {"q5", {}},
  };
  for (const auto& [id, token_values] : rows) {
    Entity entity(id);
    entity.SetValues(tokens, token_values);
    EXPECT_TRUE(queries.AddEntity(std::move(entity)).ok());
  }
  return queries;
}

// Every set measure against both target plans; dice and the first
// cosine read the same source values against the same target plan.
LinkageRule TokenRule() {
  const std::tuple<const char*, const char*, double> sites[] = {
      {"jaccard", "tokens", 1.0},
      {"dice", "words", 0.9},
      {"cosine", "words", 1.0},
      {"cosine", "tokens", 0.8}};
  std::vector<std::unique_ptr<SimilarityOperator>> ops;
  for (const auto& [measure, target, threshold] : sites) {
    auto cmp = std::make_unique<ComparisonOperator>(
        Value("tokens", {}), Value(target, {}),
        DistanceRegistry::Default().Find(measure), threshold);
    cmp->set_weight(1.0 + static_cast<double>(ops.size()));
    ops.push_back(std::move(cmp));
  }
  return LinkageRule(Aggregation("wmean", std::move(ops), 1.0));
}

TEST(RuleOracleTest, QueryTokenIdsMatchSpecWhereTheCorpusIsThin) {
  const Dataset corpus = TokenCorpus();
  const Dataset queries = TokenQueries();
  const LinkageRule rule = TokenRule();
  ASSERT_TRUE(rule.Validate().ok()) << rule.Validate().ToString();
  const MatchOptions options = Options(1, /*blocking=*/false);
  const std::string path = TestTempPath("tokens.glidx");
  ASSERT_TRUE(WriteCorpusArtifact(path, corpus, rule, options).ok());
  auto mapped = MappedCorpus::Load(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  auto mapped_index =
      MatcherIndex::Build(std::move(mapped).value(), rule, options);
  ASSERT_TRUE(mapped_index.ok()) << mapped_index.status().ToString();
  const auto dataset_index = MatcherIndex::Build(corpus, rule, options);

  size_t partial_scores = 0;
  for (const Entity& query : queries.entities()) {
    const std::vector<GeneratedLink> want =
        SpecQuery(rule, query, queries.schema(), corpus, nullptr);
    ASSERT_EQ(want.size(), corpus.size()) << query.id();
    for (const GeneratedLink& link : want) {
      partial_scores += link.score > 0.0 && link.score < 1.0 ? 1 : 0;
    }
    ExpectSameLinks(dataset_index->MatchEntity(query, queries.schema()), want,
                    "dataset " + query.id());
    ExpectSameLinks((*mapped_index)->MatchEntity(query, queries.schema()),
                    want, "mapped " + query.id());
  }
  // The fixture is not vacuous: under the spec, 8 of its 20 pairs score
  // strictly inside (0, 1). q3's values all take fresh ids, so its
  // pairs score 0 only if no fresh id meets a target id.
  EXPECT_EQ(partial_scores, 8u);
}

// ---------------------------------------------------------------------------

TEST(RuleOracleTest, EngineMatchesFitnessEvaluator) {
  // Every A x B pair, labelled by the reference links: the reference
  // set alone is a few dozen pairs, the cross product puts every
  // generated entity pair through the engine's rows.
  const MatchingTask& task = Task();
  std::set<std::pair<std::string, std::string>> positives;
  for (const ReferenceLink& link : task.links.positives()) {
    positives.emplace(link.id_a, link.id_b);
  }
  std::vector<LabeledPair> pairs;
  for (const Entity& a : task.a.entities()) {
    for (const Entity& b : task.b.entities()) {
      pairs.push_back({&a, &b, positives.count({a.id(), b.id()}) > 0});
    }
  }
  ASSERT_FALSE(positives.empty());
  const Schema& schema_a = task.a.schema();
  const Schema& schema_b = task.b.schema();
  FitnessEvaluator spec(pairs, schema_a, schema_b);

  // The rules, then the same rules with every threshold halved: the
  // second batch re-thresholds distance rows the first one cached.
  std::vector<LinkageRule> variants;
  for (const LinkageRule& rule : Rules()) {
    LinkageRule variant = rule.Clone();
    for (ComparisonOperator* cmp : CollectComparisons(variant)) {
      cmp->set_threshold(cmp->threshold() * 0.5);
    }
    variants.push_back(std::move(variant));
  }
  for (size_t threads : {1, 4}) {
    EngineConfig config;
    config.num_threads = threads;
    EvaluationEngine engine(pairs, schema_a, schema_b, {}, config);
    for (const std::vector<LinkageRule>* batch :
         {&Rules(), static_cast<const std::vector<LinkageRule>*>(&variants)}) {
      std::vector<const LinkageRule*> pointers;
      for (const LinkageRule& rule : *batch) pointers.push_back(&rule);
      std::vector<FitnessResult> results(pointers.size());
      engine.EvaluateBatch(pointers, results);
      for (size_t k = 0; k < pointers.size(); ++k) {
        const FitnessResult want = spec.Evaluate(*pointers[k]);
        const std::string label = Label(k, threads, false);
        EXPECT_EQ(results[k].fitness, want.fitness) << label;
        EXPECT_EQ(results[k].mcc, want.mcc) << label;
        EXPECT_EQ(results[k].f_measure, want.f_measure) << label;
        EXPECT_EQ(results[k].confusion.tp, want.confusion.tp) << label;
        EXPECT_EQ(results[k].confusion.tn, want.confusion.tn) << label;
        EXPECT_EQ(results[k].confusion.fp, want.confusion.fp) << label;
        EXPECT_EQ(results[k].confusion.fn, want.confusion.fn) << label;
      }
    }
    EXPECT_GT(engine.stats().distance_row_hits, 0u);
  }
}

// The engine scores training pairs through ScoreBlock. The oracle above
// compares confusion matrices only, so a score that drifts without
// crossing 0.5 would pass it: here each pair's ScoreBlock score must
// have the bit pattern of its Score() score.
TEST(RuleOracleTest, ScoreBlockMatchesScoreBitForBit) {
  constexpr size_t kBlock = RuleProgram::kBlock;
  // The rules, and copies whose thresholds cycle through 0, -1.5 and
  // the original (ThresholdedScore's exact-match branch).
  std::vector<LinkageRule> rules;
  for (const LinkageRule& rule : Rules()) {
    rules.push_back(rule.Clone());
    LinkageRule degenerate = rule.Clone();
    const std::vector<ComparisonOperator*> comparisons =
        CollectComparisons(degenerate);
    for (size_t k = 0; k < comparisons.size(); ++k) {
      if (k % 3 < 2) comparisons[k]->set_threshold(k % 3 == 0 ? 0.0 : -1.5);
    }
    rules.push_back(std::move(degenerate));
  }
  Rng rng(2718);
  for (size_t pairs : {size_t{0}, size_t{1}, kBlock - 1, kBlock, kBlock + 1,
                       3 * kBlock + 7}) {
    for (size_t r = 0; r < rules.size(); ++r) {
      const RuleProgram program(rules[r]);
      // One distance row per site: 0, exactly the threshold,
      // kInfiniteDistance, or a random distance in [0, 2 max(θ, 1)).
      std::vector<std::vector<double>> rows;
      for (const RuleProgram::Site& site : program.sites()) {
        std::vector<double>& row = rows.emplace_back(pairs);
        for (double& distance : row) {
          switch (rng.PickIndex(4)) {
            case 0: distance = 0.0; break;
            case 1: distance = site.threshold; break;
            case 2: distance = kInfiniteDistance; break;
            default:
              distance = rng.Uniform(0.0, 2.0 * std::max(site.threshold, 1.0));
          }
        }
      }
      // Block by block, as the engine walks its pairs.
      std::vector<double> scores(pairs);
      double block[kBlock];
      for (size_t begin = 0; begin < pairs; begin += kBlock) {
        const size_t n = std::min(kBlock, pairs - begin);
        ScoreBlock(
            program, n,
            [&](size_t site) { return rows[site].data() + begin; }, block);
        std::copy_n(block, n, scores.begin() + begin);
      }
      for (size_t p = 0; p < pairs; ++p) {
        const double want = Score(
            program, [&](size_t site, double) { return rows[site][p]; });
        EXPECT_EQ(std::bit_cast<uint64_t>(scores[p]),
                  std::bit_cast<uint64_t>(want))
            << "rule #" << r << " pairs=" << pairs << " pair " << p << ": "
            << scores[p] << " vs " << want;
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(RuleOracleTest, MatchDatasetMatchesSpec) {
  const MatchingTask& task = Task();
  for (bool blocking : {false, true}) {
    for (size_t k = 0; k < Rules().size(); ++k) {
      const LinkageRule& rule = Rules()[k];
      const std::vector<GeneratedLink> join =
          SpecJoin(rule, task.a, task.b, blocking);
      const std::vector<GeneratedLink> self_join =
          SpecJoin(rule, task.b, task.b, blocking);
      for (size_t threads : {1, 4}) {
        const MatchOptions options = Options(threads, blocking);
        const std::string label = Label(k, threads, blocking);
        // The bound source, and any other dataset, go through the one
        // query scorer.
        auto bound = MatcherIndex::Build(task.a, task.b, rule, options);
        ExpectSameLinks(bound->MatchDataset(), join, label + " bound");
        auto serving = MatcherIndex::Build(task.b, rule, options);
        ExpectSameLinks(serving->MatchDataset(task.a), join,
                        label + " unbound");
        // Self-join deduplication.
        auto dedup = MatcherIndex::Build(task.b, task.b, rule, options);
        ExpectSameLinks(dedup->MatchDataset(), self_join, label + " self");
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(RuleOracleTest, DatasetCorpusMatchesSpec) {
  const Dataset& corpus = Task().b;
  for (bool blocking : {false, true}) {
    for (size_t k = 0; k < Rules().size(); ++k) {
      for (size_t threads : {1, 4}) {
        auto index =
            MatcherIndex::Build(corpus, Rules()[k], Options(threads, blocking));
        ExpectQueriesMatchSpec(*index, Rules()[k], corpus, blocking,
                               Label(k, threads, blocking));
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(RuleOracleTest, MappedCorpusMatchesSpec) {
  const Dataset& corpus = Task().b;
  const std::string path = TestTempPath("oracle.glidx");
  for (bool blocking : {false, true}) {
    for (size_t k = 0; k < Rules().size(); ++k) {
      for (size_t threads : {1, 4}) {
        const MatchOptions options = Options(threads, blocking);
        const std::string label = Label(k, threads, blocking);
        ThreadPool pool(threads);
        ASSERT_TRUE(
            WriteCorpusArtifact(path, corpus, Rules()[k], options, &pool).ok())
            << label;
        auto mapped = MappedCorpus::Load(path);
        ASSERT_TRUE(mapped.ok()) << label << mapped.status().ToString();
        auto index =
            MatcherIndex::Build(std::move(mapped).value(), Rules()[k], options);
        ASSERT_TRUE(index.ok()) << label << index.status().ToString();
        ExpectQueriesMatchSpec(**index, Rules()[k], corpus, blocking, label);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(RuleOracleTest, LiveCorpusMatchesSpec) {
  SyntheticDeltaConfig delta_config;
  delta_config.base.num_entities = kEntities;
  delta_config.base.seed = 1207;
  delta_config.num_deltas = 30;
  const SyntheticDeltas deltas = GenerateSyntheticDeltas(delta_config);
  std::vector<LiveOp> ops;
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
  const size_t half = ops.size() / 2;

  for (bool blocking : {false, true}) {
    for (size_t threads : {1, 4}) {
      const MatchOptions options = Options(threads, blocking);
      // One corpus per configuration: created under the first rule,
      // mutated by upserts and removes, then redeployed rule by rule
      // (DeployRule re-evaluates every delta entry under the new rule).
      auto live = LiveCorpus::Create(Task().b, Rules()[0], options);
      ASSERT_TRUE(live.ok()) << live.status().ToString();
      ASSERT_TRUE((*live)->ApplyBatch(std::span(ops).first(half),
                                      deltas.schema).ok());
      ASSERT_TRUE((*live)->ApplyBatch(std::span(ops).subspan(half),
                                      deltas.schema).ok());
      auto logical = (*live)->MaterializeLogical();
      ASSERT_TRUE(logical.ok()) << logical.status().ToString();
      ASSERT_GT((*live)->stats().delta_entities, 0u);
      ASSERT_GT((*live)->stats().tombstones, 0u);
      for (size_t k = 0; k < Rules().size(); ++k) {
        if (k > 0) {
          ASSERT_TRUE((*live)->DeployRule(Rules()[k], options).ok());
        }
        ExpectQueriesMatchSpec(**live, Rules()[k], *logical, blocking,
                               Label(k, threads, blocking));
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace genlink

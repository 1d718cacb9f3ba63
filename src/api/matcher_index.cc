#include "api/matcher_index.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "distance/distance_measure.h"
#include "eval/value_store.h"
#include "io/corpus_artifact.h"
#include "matcher/blocking.h"
#include "rule/rule_hash.h"

namespace genlink {
namespace {

/// The documented best_match_only winner: highest score, then smallest
/// id_b (see MatchOptions::best_match_only). min_element under this
/// "preferred first" order is deterministic because (score, id_b) is
/// unique per target within one source entity's links.
void KeepBestTarget(std::vector<GeneratedLink>& links) {
  auto best = std::min_element(links.begin(), links.end(),
                               [](const GeneratedLink& x, const GeneratedLink& y) {
                                 if (x.score != y.score) return x.score > y.score;
                                 return x.id_b < y.id_b;
                               });
  GeneratedLink keep = std::move(*best);
  links.clear();
  links.push_back(std::move(keep));
}

/// The total order every full-join surface returns (and link_io relies
/// on for byte-stable output).
void SortLinks(std::vector<GeneratedLink>& links) {
  std::sort(links.begin(), links.end(), [](const auto& x, const auto& y) {
    if (x.score != y.score) return x.score > y.score;
    if (x.id_a != y.id_a) return x.id_a < y.id_a;
    return x.id_b < y.id_b;
  });
}

double Elapsed(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

/// A target plan's vocabulary. Ids are the reader's interned ids, and
/// distinct ids have distinct bytes, so the byte order is strict and a
/// query value found here has exactly the id its target-side equal
/// carries. A value the plan never holds cannot intersect any of the
/// plan's token sets, so it may take any id the plan does not use:
/// Find hands out ids from `fresh` upwards.
struct MatcherIndex::Vocabulary {
  Vocabulary(const ValueReader& reader, PlanId plan) {
    for (size_t e = 0; e < reader.num_entities(); ++e) {
      const std::span<const ValueId> sorted = reader.SortedIds(plan, e);
      ids.insert(ids.end(), sorted.begin(), sorted.end());
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    if (!ids.empty()) fresh = ids.back() + 1;
    std::sort(ids.begin(), ids.end(), [&](ValueId x, ValueId y) {
      return reader.View(x) < reader.View(y);
    });
  }

  /// The id of `value` under the plan, or nullopt when no target entity
  /// holds it.
  std::optional<ValueId> Find(const ValueReader& reader,
                              std::string_view value) const {
    const auto it = std::lower_bound(
        ids.begin(), ids.end(), value,
        [&](ValueId id, std::string_view v) { return reader.View(id) < v; });
    if (it == ids.end() || reader.View(*it) != value) return std::nullopt;
    return *it;
  }

  std::vector<ValueId> ids;  // distinct, ascending by bytes
  ValueId fresh = 0;         // one above the largest id in `ids`
};

// The dataset-side state every WithRule generation shares. Queries
// never touch the mutex: each generation reads only its own value
// store, blocking index and vocabularies, all immutable once the
// generation is built. The mutex serializes compiles, which read
// `latest_store` and the caches and record what they built there.
struct MatcherIndex::Corpus {
  const Dataset* source = nullptr;  // null for serving-only builds
  const Dataset* target = nullptr;  // null for mapped-corpus builds
  /// Zero-copy corpus (io/corpus_artifact.h); when set, `target` and
  /// `latest_store` are null and the mapped file is both the entity
  /// table and the value store. Immutable, so none of its state needs
  /// the mutex.
  std::shared_ptr<const MappedCorpus> mapped;
  Mutex mutex;
  /// The newest generation's store: the one the next compile resolves
  /// its plans in, or forks when a plan is missing. Never written once
  /// stored here. Null for a mapped corpus.
  std::shared_ptr<const ValueStore> latest_store GENLINK_GUARDED_BY(mutex);
  /// Blocking indexes over `target`, keyed by the (sorted) property
  /// list they index plus the option knobs that change the postings
  /// (max tokens, min df) — rules reading the same target properties
  /// under the same knobs share one index across hot swaps.
  using BlockingKey = std::tuple<std::vector<std::string>, size_t, size_t>;
  std::map<BlockingKey, std::shared_ptr<const BlockingIndex>> blocking_cache
      GENLINK_GUARDED_BY(mutex);
  /// Vocabularies of the set-measure target plans compiled so far. A
  /// PlanId keeps its plan in every fork of the store (and in the
  /// mapped file), so one vocabulary serves every generation.
  std::map<PlanId, std::shared_ptr<const Vocabulary>> vocabularies
      GENLINK_GUARDED_BY(mutex);
  std::unique_ptr<ThreadPool> pool;

  // Target-side accessors every query path uses, so the dataset-backed
  // and mapped shapes read identically.
  size_t target_size() const {
    return mapped != nullptr ? mapped->size() : target->size();
  }
  std::string_view target_id(size_t index) const {
    return mapped != nullptr ? mapped->entity_id(index)
                             : std::string_view(target->entity(index).id());
  }
  const Schema& target_schema() const {
    return mapped != nullptr ? mapped->schema() : target->schema();
  }
};

/// Source-side values of one query entity: each distinct value subtree
/// of the rule evaluated once per query (not once per candidate). The
/// query paths keep one per thread: EvaluateQueryOps refills every slot,
/// so a reused instance only lends its capacity.
struct MatcherIndex::QueryValues {
  std::vector<ValueSet> values;                      // per query_ops_ slot
  std::vector<std::vector<std::string_view>> views;  // views into values
  /// Per set-measure site: its source values as strictly increasing
  /// vocabulary ids with their multiplicities (the ValueReader
  /// SortedIds/SortedCounts form).
  std::vector<std::vector<ValueId>> ids;
  std::vector<std::vector<uint32_t>> counts;
};

MatcherIndex::MatcherIndex(std::shared_ptr<Corpus> corpus, LinkageRule rule,
                           MatchOptions options)
    : corpus_(std::move(corpus)),
      rule_(std::move(rule)),
      program_(rule_),
      options_(options) {}

MatcherIndex::~MatcherIndex() = default;

std::shared_ptr<const MatcherIndex> MatcherIndex::Build(
    const Dataset& source, const Dataset& target, const LinkageRule& rule,
    const MatchOptions& options) {
  return BuildOverDataset(&source, target, rule, options);
}

std::shared_ptr<const MatcherIndex> MatcherIndex::Build(
    const Dataset& target, const LinkageRule& rule,
    const MatchOptions& options) {
  return BuildOverDataset(nullptr, target, rule, options);
}

std::shared_ptr<const MatcherIndex> MatcherIndex::BuildOverDataset(
    const Dataset* source, const Dataset& target, const LinkageRule& rule,
    const MatchOptions& options) {
  auto corpus = std::make_shared<Corpus>();
  corpus->source = source;
  corpus->target = &target;
  corpus->pool = std::make_unique<ThreadPool>(options.num_threads);
  {
    MutexLock lock(corpus->mutex);
    corpus->latest_store = std::make_shared<const ValueStore>(target);
  }
  // Infallible over a dataset-backed corpus (Compile's contract).
  return Deploy(std::move(corpus), rule, options).value();
}

Result<std::shared_ptr<const MatcherIndex>> MatcherIndex::Build(
    std::shared_ptr<const MappedCorpus> corpus, const LinkageRule& rule,
    const MatchOptions& options) {
  if (corpus == nullptr) {
    return Status::InvalidArgument("MatcherIndex::Build: null mapped corpus");
  }
  if (rule.empty()) {
    return Status::InvalidArgument(
        "MatcherIndex::Build: a mapped corpus cannot serve the empty rule "
        "(there is nothing to score)");
  }
  auto shared = std::make_shared<Corpus>();
  shared->mapped = std::move(corpus);
  shared->pool = std::make_unique<ThreadPool>(options.num_threads);
  return Deploy(std::move(shared), rule, options);
}

Result<std::shared_ptr<const MatcherIndex>> MatcherIndex::Deploy(
    std::shared_ptr<Corpus> corpus, const LinkageRule& rule,
    const MatchOptions& options) {
  std::shared_ptr<MatcherIndex> index(
      new MatcherIndex(std::move(corpus), rule.Clone(), options));
  const auto start = std::chrono::steady_clock::now();
  GENLINK_RETURN_IF_ERROR(index->Compile());
  index->build_seconds_ = Elapsed(start);
  return std::shared_ptr<const MatcherIndex>(std::move(index));
}

Status MatcherIndex::Compile() {
  Corpus& corpus = *corpus_;
  MutexLock lock(corpus.mutex);
  std::vector<PlanId> target_plans;
  if (corpus.mapped != nullptr) {
    GENLINK_RETURN_IF_ERROR(CompileMapped(target_plans));
  } else {
    if (options_.use_blocking) {
      std::vector<std::string> properties = TargetProperties(rule_);
      auto& slot = corpus.blocking_cache[Corpus::BlockingKey(
          properties, options_.blocking_max_tokens,
          options_.blocking_min_token_df)];
      if (slot == nullptr) {
        TokenBlockingOptions blocking_options;
        blocking_options.max_tokens_per_entity = options_.blocking_max_tokens;
        blocking_options.min_token_df = options_.blocking_min_token_df;
        slot = std::make_shared<const TokenBlockingIndex>(
            *corpus.target, properties, blocking_options);
      }
      blocking_ = slot;
    }

    // A rule whose target value subtrees all have plans in the latest
    // store reuses that store as is. Otherwise the missing plans
    // compile into a fork of it, so a generation only pays for subtrees
    // no earlier rule materialized, and no published store is ever
    // written.
    std::shared_ptr<const ValueStore> store = corpus.latest_store;
    std::vector<const ValueOperator*> target_ops;
    for (const RuleProgram::Site& site : program_.sites()) {
      target_ops.push_back(site.op->target());
      const std::optional<PlanId> plan =
          store->FindPlan(ValueOperatorHash(*site.op->target()));
      if (plan.has_value()) target_plans.push_back(*plan);
    }
    if (target_plans.size() < target_ops.size()) {
      std::shared_ptr<ValueStore> fork = store->Fork();
      target_plans.resize(target_ops.size());
      fork->CompileBatch(ValueStore::Side::kTarget, target_ops, target_plans,
                         corpus.pool.get());
      store = std::move(fork);
      corpus.latest_store = store;
    }
    store_ = std::move(store);
    reader_ = store_.get();
  }

  BindQuerySites(target_plans);
  for (size_t k = 0; k < query_sites_.size(); ++k) {
    if (!program_.sites()[k].op->measure()->IsSetMeasure()) continue;
    const PlanId plan = query_sites_[k].target_plan;
    std::shared_ptr<const Vocabulary>& vocabulary = corpus.vocabularies[plan];
    if (vocabulary == nullptr) {
      vocabulary = std::make_shared<const Vocabulary>(*reader_, plan);
    }
    query_sites_[k].vocabulary = vocabulary;
  }
  return Status::Ok();
}

Status MatcherIndex::CompileMapped(std::vector<PlanId>& target_plans) {
  const MappedCorpus& mapped = *corpus_->mapped;
  // The artifact owns its blocking knobs: its postings were built with
  // them, so they are what this index serves and what options() reports.
  options_.blocking_max_tokens = mapped.blocking_max_tokens();
  options_.blocking_min_token_df = mapped.blocking_min_token_df();
  if (options_.use_blocking) {
    // The artifact carries exactly one blocking configuration; serving
    // other properties would need the original dataset. Refuse with the
    // mismatch named instead of silently scanning or re-indexing.
    if (!mapped.has_blocking()) {
      return Status::FailedPrecondition(
          "corpus artifact '" + mapped.path() +
          "' carries no blocking postings; re-run `genlink index` or "
          "disable blocking");
    }
    if (TargetProperties(rule_) != mapped.blocking_properties()) {
      return Status::FailedPrecondition(
          "corpus artifact '" + mapped.path() +
          "' indexes different target properties than this rule reads; "
          "re-run `genlink index` with the new rule");
    }
    // Aliasing shared_ptr: the BlockingIndex lives inside the mapped
    // corpus, so the corpus keeps it (and the mapping) alive.
    blocking_ = std::shared_ptr<const BlockingIndex>(corpus_->mapped,
                                                     mapped.blocking());
  }

  // Every target-side value subtree must resolve to a plan the artifact
  // carries, keyed by ValueOperatorHash (rule/rule_hash.h) as in the
  // value store. A miss means the artifact predates this rule.
  target_plans.reserve(program_.sites().size());
  for (const RuleProgram::Site& site : program_.sites()) {
    const std::optional<PlanId> plan =
        mapped.FindPlan(ValueOperatorHash(*site.op->target()));
    if (!plan.has_value()) {
      return Status::FailedPrecondition(
          "corpus artifact '" + mapped.path() +
          "' has no precomputed value plan for a target-side subtree of "
          "this rule; re-run `genlink index` with the new rule");
    }
    target_plans.push_back(*plan);
  }
  reader_ = &mapped;
  return Status::Ok();
}

void MatcherIndex::BindQuerySites(std::span<const uint32_t> target_plans) {
  // The source side is evaluated per query entity; distinct source
  // subtrees collapse to one evaluation slot.
  query_sites_.reserve(program_.sites().size());
  std::unordered_map<uint64_t, uint32_t> slot_by_hash;
  for (size_t k = 0; k < program_.sites().size(); ++k) {
    const ValueOperator* source_op = program_.sites()[k].op->source();
    auto [it, inserted] = slot_by_hash.try_emplace(
        ValueOperatorHash(*source_op), static_cast<uint32_t>(query_ops_.size()));
    if (inserted) query_ops_.push_back(source_op);
    query_sites_.push_back({it->second, target_plans[k], nullptr});
  }
}

std::shared_ptr<const MatcherIndex> MatcherIndex::WithRule(
    const LinkageRule& rule) const {
  return WithRule(rule, options_);
}

std::shared_ptr<const MatcherIndex> MatcherIndex::WithRule(
    const LinkageRule& rule, const MatchOptions& options) const {
  // Infallible over a dataset-backed corpus (header contract); over a
  // mapped corpus, failures need TryWithRule — here they surface as a
  // null index rather than silently serving the wrong rule.
  return TryWithRule(rule, options).value_or(nullptr);
}

Result<std::shared_ptr<const MatcherIndex>> MatcherIndex::TryWithRule(
    const LinkageRule& rule, const MatchOptions& options) const {
  MatchOptions next_options = options;
  // The pool is corpus-lifetime state, sized once at Build (header
  // contract).
  next_options.num_threads = options_.num_threads;
  if (corpus_->mapped != nullptr && rule.empty()) {
    return Status::InvalidArgument(
        "TryWithRule: a mapped corpus cannot serve the empty rule");
  }
  return Deploy(corpus_, rule, next_options);
}

void MatcherIndex::EvaluateQueryOps(const Entity& entity, const Schema& schema,
                                    QueryValues& out) const {
  out.values.resize(query_ops_.size());
  out.views.resize(query_ops_.size());
  for (size_t i = 0; i < query_ops_.size(); ++i) {
    out.values[i] = query_ops_[i]->Evaluate(entity, schema);
    out.views[i].assign(out.values[i].begin(), out.values[i].end());
  }
  // Set-measure sites: each distinct value once, as its vocabulary id
  // or a fresh one, with its multiplicity; then ascending by id.
  out.ids.resize(query_sites_.size());
  out.counts.resize(query_sites_.size());
  thread_local std::vector<std::string_view> sorted;
  thread_local std::vector<std::pair<ValueId, uint32_t>> counted;
  for (size_t k = 0; k < query_sites_.size(); ++k) {
    if (query_sites_[k].vocabulary == nullptr) continue;
    const Vocabulary& vocabulary = *query_sites_[k].vocabulary;
    const std::vector<std::string_view>& views =
        out.views[query_sites_[k].source_slot];
    sorted.assign(views.begin(), views.end());
    std::sort(sorted.begin(), sorted.end());
    counted.clear();
    ValueId fresh = vocabulary.fresh;
    for (size_t i = 0; i < sorted.size();) {
      size_t j = i + 1;
      while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
      const std::optional<ValueId> known = vocabulary.Find(*reader_, sorted[i]);
      counted.emplace_back(known.has_value() ? *known : fresh++,
                           static_cast<uint32_t>(j - i));
      i = j;
    }
    std::sort(counted.begin(), counted.end());
    out.ids[k].clear();
    out.counts[k].clear();
    for (const auto& [id, count] : counted) {
      out.ids[k].push_back(id);
      out.counts[k].push_back(count);
    }
  }
}

double MatcherIndex::QueryScore(const QueryValues& qv,
                                size_t target_index) const {
  return store_ != nullptr
             ? QueryScoreWith(*store_, qv, target_index)
             : QueryScoreWith(*corpus_->mapped, qv, target_index);
}

template <typename Reader>
double MatcherIndex::QueryScoreWith(const Reader& reader,
                                    const QueryValues& qv,
                                    size_t target_index) const {
  return Score(program_, [&](size_t site, double threshold) {
    const QuerySite& query_site = query_sites_[site];
    const PlanId plan = query_site.target_plan;
    const DistanceMeasure& measure = *program_.sites()[site].op->measure();
    // The empty-side convention of ValueStore::PairDistance: similarity
    // 0. Both sides' ids are empty exactly when their values are.
    if (query_site.vocabulary != nullptr) {
      const std::vector<ValueId>& ids = qv.ids[site];
      const std::span<const ValueId> target_ids =
          reader.SortedIds(plan, target_index);
      if (ids.empty() || target_ids.empty()) return kInfiniteDistance;
      return measure.TokenIdDistance(ids, qv.counts[site], target_ids,
                                     reader.SortedCounts(plan, target_index));
    }
    const std::vector<std::string_view>& source_views =
        qv.views[query_site.source_slot];
    const std::span<const ValueId> target_values =
        reader.Values(plan, target_index);
    if (source_views.empty() || target_values.empty()) {
      return kInfiniteDistance;
    }
    thread_local std::vector<std::string_view> scratch;
    scratch.clear();
    for (ValueId id : target_values) scratch.push_back(reader.View(id));
    // The comparison threshold doubles as the distance bound: every
    // distance the score can distinguish (d <= θ) is exact, everything
    // beyond maps to similarity 0 either way.
    return measure.DistanceViews(source_views,
                                 std::span<const std::string_view>(scratch),
                                 threshold);
  });
}

std::vector<GeneratedLink> MatcherIndex::MatchEntityMasked(
    const Entity& entity, const Schema& schema, const uint8_t* dead,
    const CancelToken* cancel) const {
  if (cancel == nullptr) cancel = options_.cancel;
  // A record is never its own duplicate: a self-indexed corpus (dedup)
  // and a serving-only index (queries of unknown provenance, often the
  // corpus itself — the `genlink query` shape) both skip the candidate
  // carrying the query's own id. Only a two-dataset index keeps
  // equal-id candidates, preserving bit-identity with the full join
  // (contract in the header). A mapped corpus has no source and takes
  // the serving-only branch.
  const bool skip_own_id =
      corpus_->source == nullptr || corpus_->source == corpus_->target;
  thread_local QueryValues qv;
  EvaluateQueryOps(entity, schema, qv);

  std::vector<GeneratedLink> links;
  auto consider = [&](size_t j) {
    if (dead != nullptr && dead[j] != 0) return;
    const std::string_view id_b = corpus_->target_id(j);
    if (skip_own_id && id_b == entity.id()) return;
    const double score = QueryScore(qv, j);
    if (score >= options_.threshold) {
      links.push_back({entity.id(), std::string(id_b), score});
    }
  };
  // Cancellation is polled every 64 candidates: cheap enough to be
  // invisible on the hot path, frequent enough that one entity with a
  // pathological candidate set cannot overstay a request deadline by
  // more than a handful of pair scores.
  size_t scanned = 0;
  auto cancelled = [&] {
    return cancel != nullptr && (++scanned & 63) == 0 && cancel->Cancelled();
  };
  if (blocking_ != nullptr) {
    for (size_t j : blocking_->Candidates(entity, schema)) {
      if (cancelled()) break;
      consider(j);
    }
  } else {
    for (size_t j = 0; j < corpus_->target_size(); ++j) {
      if (cancelled()) break;
      consider(j);
    }
  }

  std::sort(links.begin(), links.end(), [](const auto& x, const auto& y) {
    if (x.score != y.score) return x.score > y.score;
    return x.id_b < y.id_b;
  });
  if (options_.best_match_only && links.size() > 1) links.resize(1);
  return links;
}

std::vector<GeneratedLink> MatcherIndex::MatchEntity(
    const Entity& entity, const Schema& schema) const {
  return MatchEntityMasked(entity, schema, nullptr);
}

std::vector<GeneratedLink> MatcherIndex::MatchEntity(
    const Entity& entity) const {
  return MatchEntity(entity, has_source() ? corpus_->source->schema()
                                          : corpus_->target_schema());
}

std::vector<GeneratedLink> MatcherIndex::MatchBatch(
    std::span<const Entity> entities, const Schema& schema,
    const CancelToken* cancel) const {
  if (cancel == nullptr) cancel = options_.cancel;
  const size_t n = entities.size();
  std::vector<std::vector<GeneratedLink>> per_entity(n);
  corpus_->pool->ParallelFor(n, [&](size_t i) {
    if (cancel != nullptr && cancel->Cancelled()) return;
    per_entity[i] = MatchEntityMasked(entities[i], schema, nullptr, cancel);
  });
  std::vector<GeneratedLink> links;
  size_t total = 0;
  for (const auto& group : per_entity) total += group.size();
  links.reserve(total);
  for (auto& group : per_entity) {
    for (auto& link : group) links.push_back(std::move(link));
  }
  return links;
}

std::vector<GeneratedLink> MatcherIndex::MatchBatch(
    std::span<const Entity> entities, const CancelToken* cancel) const {
  return MatchBatch(entities,
                    has_source() ? corpus_->source->schema()
                                 : corpus_->target_schema(),
                    cancel);
}

std::vector<GeneratedLink> MatcherIndex::MatchDataset(
    const Dataset& source) const {
  std::vector<GeneratedLink> links;
  Mutex links_mutex;
  const bool self_join =
      corpus_->target != nullptr && &source == corpus_->target;

  corpus_->pool->ParallelFor(source.size(), [&](size_t i) {
    // The one-shot CLI's SIGINT path: a fired token skips the
    // remaining source entities and the partial links flush as-is.
    if (options_.cancel != nullptr && options_.cancel->Cancelled()) return;
    const Entity& ea = source.entity(i);
    thread_local QueryValues qv;
    EvaluateQueryOps(ea, source.schema(), qv);
    std::vector<GeneratedLink> local;
    auto consider = [&](size_t j) {
      const std::string_view id_b = corpus_->target_id(j);
      if (self_join && ea.id() >= id_b) return;  // dedup: each pair once
      const double score = QueryScore(qv, j);
      if (score >= options_.threshold) {
        local.push_back({ea.id(), std::string(id_b), score});
      }
    };
    if (blocking_ != nullptr) {
      for (size_t j : blocking_->Candidates(ea, source.schema())) consider(j);
    } else {
      for (size_t j = 0; j < corpus_->target_size(); ++j) consider(j);
    }
    if (options_.best_match_only && local.size() > 1) KeepBestTarget(local);
    if (!local.empty()) {
      MutexLock links_lock(links_mutex);
      for (auto& link : local) links.push_back(std::move(link));
    }
  });

  SortLinks(links);
  return links;
}

std::vector<GeneratedLink> MatcherIndex::MatchDataset() const {
  if (corpus_->source == nullptr) return {};
  return MatchDataset(*corpus_->source);
}

const Dataset& MatcherIndex::target() const { return *corpus_->target; }

bool MatcherIndex::has_source() const { return corpus_->source != nullptr; }

bool MatcherIndex::is_mapped() const { return corpus_->mapped != nullptr; }

MatcherIndexStats MatcherIndex::stats() const {
  MatcherIndexStats stats;
  stats.target_entities = corpus_->target_size();
  if (blocking_ != nullptr) {
    stats.blocking_tokens = blocking_->NumTokens();
    stats.blocking_postings = blocking_->NumPostings();
  }
  if (corpus_->mapped != nullptr) {
    stats.value_plans = corpus_->mapped->num_plans();
    stats.store_bytes = corpus_->mapped->file_bytes();
  } else {
    stats.value_plans = store_->NumPlans(ValueStore::Side::kTarget);
    stats.store_bytes = store_->ApproxBytes();
  }
  stats.build_seconds = build_seconds_;
  return stats;
}

}  // namespace genlink

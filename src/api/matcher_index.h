// The service facade: a long-lived, immutable, thread-safe matcher
// session.
//
// The paper's Definition 3 treats link generation as a one-shot batch
// (M_l = {(a,b) : l(a,b) >= 0.5}), and matcher/matcher.h keeps that shape:
// GenerateLinks rebuilds the token-blocking index and the compiled
// value store on every call. A production deployment has the opposite
// shape — build the expensive artifacts once, then answer many cheap
// queries against them. MatcherIndex is that shape:
//
//   auto index = MatcherIndex::Build(corpus, rule, options);  // expensive
//   auto links = index->MatchEntity(incoming_record, schema); // cheap, often
//
// Build compiles the rule's target-side value subtrees into a
// persistent value store (eval/value_store.h: per-entity transform
// plans + interned token-id spans) and constructs a persistent
// TokenBlockingIndex (matcher/blocking.h); queries then pay only
// candidate lookup plus interned-distance scoring. Three query
// surfaces:
//
//   * MatchEntity  — one query entity against the indexed corpus; the
//     request-serving path. No thread pool involved.
//   * MatchBatch   — a span of query entities, scored in parallel
//     chunks on the corpus's pool; results grouped by query, in input
//     order.
//   * MatchDataset — the legacy full join, bit-identical to
//     GenerateLinks (which is now a thin wrapper over Build +
//     MatchDataset; asserted by tests/api_test.cc).
//
// All three run one scorer. Each query (for MatchDataset: each source
// entity) evaluates the rule's distinct source value subtrees once; a
// set-measure site (jaccard, dice, cosine) then maps the query's values
// to ids of its target plan's vocabulary — the plan's distinct value
// ids sorted by their bytes, built once per plan and corpus — so every
// pair scores through the rule's one compiled program
// (rule/rule_program.h) on the target's interned spans: TokenIdDistance
// for set measures, DistanceViews for per-value ones. Scores are
// bit-identical to LinkageRule::Evaluate on the same entity pair (see
// distance/distance_measure.h for the per-measure contract;
// tests/rule_oracle_test.cc holds every surface to the spec).
//
// Lifetimes and hot swap: a MatcherIndex is immutable after Build and
// safe to query from any number of threads; queries take no lock. The
// dataset(s) passed to Build must outlive every index built over them.
// Each generation owns an immutable value store. WithRule compiles a
// NEW index for a freshly learned rule: when the newest store already
// holds plans for all of the rule's target value subtrees it is reused
// as is, otherwise the missing plans compile into a fork that shares
// the existing plans, pooled strings, vocabularies and blocking
// indexes — only the new rule's unseen value subtrees are evaluated,
// the corpus is not re-interned, and no store a query can read is ever
// written. Old and new indexes serve concurrently, and a compile never
// delays a query; a service hot-swaps by publishing the new shared_ptr:
//
//   std::shared_ptr<const MatcherIndex> serving = MatcherIndex::Build(...);
//   ...
//   std::atomic_store(&serving, serving->WithRule(learner_output));
//
// Rule deployment artifacts (save a learned rule + options to a file,
// load it into a fresh process) live in io/artifact.h; the end-to-end
// serve path is `genlink query` (tools/genlink_cli.cc).

#ifndef GENLINK_API_MATCHER_INDEX_H_
#define GENLINK_API_MATCHER_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "matcher/matcher.h"
#include "rule/linkage_rule.h"
#include "rule/rule_program.h"

namespace genlink {

class MappedCorpus;
class ValueReader;
class ValueStore;
class ThreadPool;

/// Snapshot counters of a built index (stats()).
struct MatcherIndexStats {
  /// Entities on the indexed (target) side.
  size_t target_entities = 0;
  /// Distinct tokens in the blocking index (0 when blocking is off).
  size_t blocking_tokens = 0;
  /// (token, entity) postings in the blocking index (0 when blocking is
  /// off).
  size_t blocking_postings = 0;
  /// Target-side transform plans in this generation's value store: its
  /// own rule's plus those of every earlier rule compiled against this
  /// corpus (for a mapped corpus: every plan of the artifact).
  size_t value_plans = 0;
  /// Approximate bytes held by this generation's value store (plans
  /// and pooled strings shared with other generations count in full).
  size_t store_bytes = 0;
  /// Wall seconds spent building/compiling THIS index (for WithRule:
  /// only the incremental compile, not the original corpus build).
  double build_seconds = 0.0;
};

/// A linkage rule deployed against a corpus: immutable, thread-safe,
/// cheap to query. See the file comment for the full contract.
class MatcherIndex {
 public:
  /// Compiles `rule` against a source/target dataset pair (the paper's
  /// A and B; pass the same dataset twice for deduplication). Only the
  /// target is indexed; the source is bound as MatchDataset()'s join
  /// side and as the schema of the schema-less query overloads. Both
  /// datasets must outlive the index.
  static std::shared_ptr<const MatcherIndex> Build(
      const Dataset& source, const Dataset& target, const LinkageRule& rule,
      const MatchOptions& options = {});

  /// Serving-only build: indexes `target` for MatchEntity/MatchBatch
  /// queries without binding a source dataset (the `genlink query`
  /// shape, where queries arrive from a stream). MatchDataset(dataset)
  /// still works for any dataset; MatchDataset() requires a bound
  /// source and returns empty here.
  static std::shared_ptr<const MatcherIndex> Build(
      const Dataset& target, const LinkageRule& rule,
      const MatchOptions& options = {});

  /// Zero-copy serving build over a mapped v2 corpus artifact
  /// (io/corpus_artifact.h): the same serving surface as the
  /// serving-only Build, but value spans and blocking postings are read
  /// straight from the mapping — nothing is parsed, interned or
  /// re-indexed, so cold start is bounded by Load() validation, not by
  /// corpus size. The artifact owns its blocking knobs: the index
  /// serves the max-tokens and min-df it was written with, whatever
  /// `options` says, and options() reports them. Queries are
  /// bit-identical to a fresh Build over the dataset the artifact was
  /// written from with those knobs. Fails with a named Status when the
  /// rule needs a value plan the artifact did not precompute, when the
  /// rule reads other target properties than the postings index, or
  /// when blocking is on and the artifact carries no postings — re-run
  /// `genlink index`. The rule must be non-empty.
  static Result<std::shared_ptr<const MatcherIndex>> Build(
      std::shared_ptr<const MappedCorpus> corpus, const LinkageRule& rule,
      const MatchOptions& options = {});

  ~MatcherIndex();
  MatcherIndex(const MatcherIndex&) = delete;
  MatcherIndex& operator=(const MatcherIndex&) = delete;

  /// Scores one query entity (whose properties live in `schema`)
  /// against all blocking candidates and returns the links reaching
  /// options().threshold, sorted by descending score, then ascending
  /// id_b. With best_match_only, only the winner under that same order
  /// is returned. A self-indexed corpus (dedup) and a serving-only
  /// index skip the candidate carrying the query's own id (a record is
  /// never its own duplicate; without that, querying the corpus
  /// against itself would return every record as its own best match);
  /// a two-dataset index keeps equal-id candidates, matching the full
  /// join. Unlike the full join, BOTH orientations are served — a
  /// query finds duplicates with smaller and larger ids. Thread-safe.
  std::vector<GeneratedLink> MatchEntity(const Entity& entity,
                                         const Schema& schema) const;

  /// MatchEntity with the bound source dataset's schema (the target
  /// schema for a serving-only index).
  std::vector<GeneratedLink> MatchEntity(const Entity& entity) const;

  /// MatchEntity with a per-slot dead mask: a candidate j with
  /// `dead[j] != 0` is skipped before scoring, as if the corpus never
  /// contained it. `dead` must cover every target slot and outlive the
  /// call; nullptr behaves exactly like MatchEntity. This is the live
  /// corpus layer's tombstone surface (live/live_corpus.h): the base
  /// side of `base ⊎ delta − tombstones` is this index with the
  /// snapshot's tombstone bitmap. The mask only ever hides rows, so
  /// every returned link would also be returned unmasked — ordering and
  /// scores are unchanged. A non-null `cancel` (else
  /// MatchOptions::cancel) is polled every 64 candidates, bounding how
  /// long one huge candidate set can overstay a request deadline.
  /// Thread-safe; concurrent calls may pass different masks.
  std::vector<GeneratedLink> MatchEntityMasked(
      const Entity& entity, const Schema& schema, const uint8_t* dead,
      const CancelToken* cancel = nullptr) const;

  /// MatchEntity for every entity of `entities`, scored in parallel on
  /// the corpus pool. The result is the concatenation of the per-entity
  /// link lists in input order (deterministic for any thread count).
  /// When `cancel` is non-null (or MatchOptions::cancel is set), the
  /// per-entity chunk tasks poll the token and stop scoring once it
  /// fires: the serve daemon's per-request deadline path. A cancelled
  /// call returns the links of the entities already scored (possibly
  /// none) — callers observe cancel->Cancelled() and must treat such a
  /// result as truncated. Without cancellation the result is
  /// bit-identical whether or not a token was passed.
  std::vector<GeneratedLink> MatchBatch(std::span<const Entity> entities,
                                        const Schema& schema,
                                        const CancelToken* cancel = nullptr) const;

  /// MatchBatch with the bound source dataset's schema.
  std::vector<GeneratedLink> MatchBatch(std::span<const Entity> entities,
                                        const CancelToken* cancel = nullptr) const;

  /// The legacy full join of `source` against the indexed corpus,
  /// bit-identical to GenerateLinks(rule, source, target, options):
  /// same pairs, same doubles, same order, including the self-join
  /// orientation dedup (id_a < id_b) when `source` IS the indexed
  /// dataset.
  std::vector<GeneratedLink> MatchDataset(const Dataset& source) const;

  /// MatchDataset over the bound source dataset; empty for a
  /// serving-only index.
  std::vector<GeneratedLink> MatchDataset() const;

  /// Compiles `rule` into a new index that shares this index's
  /// dataset-side stores: the value pool, all previously materialized
  /// transform plans, and any blocking index over the same property
  /// set are reused, so only the new rule's unseen value subtrees
  /// touch the corpus. Both indexes keep serving, and queries on
  /// either run at full speed while the new rule compiles (compiles
  /// are serialized against each other, never against queries). Swap
  /// atomically by publishing the returned pointer.
  std::shared_ptr<const MatcherIndex> WithRule(const LinkageRule& rule) const;

  /// WithRule with new per-query options — the artifact-reload shape
  /// (serve/serving_state.h), where a redeployed artifact may change
  /// the threshold, best-match mode or blocking knobs along with the
  /// rule. num_threads is pinned to this index's value: the shared pool
  /// is built once per corpus. A changed blocking configuration compiles
  /// a new index into the shared per-corpus cache; over a mapped corpus
  /// the artifact's knobs replace the requested ones, as in Build.
  std::shared_ptr<const MatcherIndex> WithRule(const LinkageRule& rule,
                                               const MatchOptions& options) const;

  /// WithRule that surfaces compile failures instead of asserting they
  /// cannot happen: over a mapped corpus a new rule may need value
  /// plans or blocking properties the artifact does not carry, and
  /// the caller (serve/serving_state.cc) must keep the old index
  /// serving on that error. Over a dataset-backed corpus this never
  /// fails and is equivalent to WithRule.
  Result<std::shared_ptr<const MatcherIndex>> TryWithRule(
      const LinkageRule& rule, const MatchOptions& options) const;

  /// The deployed rule / the options every query path uses.
  const LinkageRule& rule() const { return rule_; }
  const MatchOptions& options() const { return options_; }

  /// The indexed (target) dataset. Requires a dataset-backed corpus
  /// (!is_mapped()); a mapped corpus has no Dataset to return.
  const Dataset& target() const;
  /// True when a source dataset is bound (two-dataset Build).
  bool has_source() const;
  /// True when this index serves a mapped corpus artifact.
  bool is_mapped() const;

  MatcherIndexStats stats() const;

 private:
  /// Dataset-side state shared across WithRule generations: the
  /// datasets or mapped artifact, the pool, and — behind a mutex that
  /// only compiles take — the newest value store and the blocking-index
  /// cache (annotated in the .cc; docs/CONCURRENCY.md).
  struct Corpus;

  /// The distinct value ids of one target plan, sorted by their bytes:
  /// what a query value's id under that plan is looked up in.
  struct Vocabulary;

  /// One site of program_ as seen by the query scorer: source side
  /// from the query entity's pre-evaluated values, target side from a
  /// plan of reader_.
  struct QuerySite {
    uint32_t source_slot = 0;  // into query_ops_
    uint32_t target_plan = 0;  // PlanId in reader_
    /// A set-measure site's target vocabulary, which the query's values
    /// are mapped into; null for a per-value measure.
    std::shared_ptr<const Vocabulary> vocabulary;
  };

  MatcherIndex(std::shared_ptr<Corpus> corpus, LinkageRule rule,
               MatchOptions options);

  /// Builds a dataset-backed corpus over `target` (and the optional
  /// bound `source`) and deploys `rule` on it.
  static std::shared_ptr<const MatcherIndex> BuildOverDataset(
      const Dataset* source, const Dataset& target, const LinkageRule& rule,
      const MatchOptions& options);
  /// Compiles `rule` into a new generation over `corpus`, timed into
  /// build_seconds (every Build and WithRule ends here).
  static Result<std::shared_ptr<const MatcherIndex>> Deploy(
      std::shared_ptr<Corpus> corpus, const LinkageRule& rule,
      const MatchOptions& options);

  /// Compiles rule_ against the corpus (value store, blocking index,
  /// query sites, vocabularies) before the index is shared. Never fails
  /// for a dataset-backed corpus; for a mapped corpus it fails when the
  /// artifact lacks a needed value plan or the rule's blocking
  /// properties.
  Status Compile();
  /// The mapped-corpus arm of Compile: resolves each site's target plan
  /// from the artifact, borrows its blocking postings instead of
  /// building, and adopts the knobs they were built with into options_.
  Status CompileMapped(std::vector<uint32_t>& target_plans);
  /// Builds the query scorer's sites from each program site's target
  /// plan in reader_ (both compile arms end here).
  void BindQuerySites(std::span<const uint32_t> target_plans);

  /// Pre-evaluated source-side values of one query entity.
  struct QueryValues;
  void EvaluateQueryOps(const Entity& entity, const Schema& schema,
                        QueryValues& out) const;
  /// program_'s score of (query, target_index), the query's source
  /// values read from `qv` and the target's from reader_.
  double QueryScore(const QueryValues& qv, size_t target_index) const;
  /// QueryScore over reader_'s concrete type: both readers are final,
  /// so the per-pair span reads compile to direct, inlinable calls.
  template <typename Reader>
  double QueryScoreWith(const Reader& reader, const QueryValues& qv,
                        size_t target_index) const;

  std::shared_ptr<Corpus> corpus_;
  LinkageRule rule_;
  /// rule_ compiled once (rule/rule_program.h); every query path scores
  /// through it.
  RuleProgram program_;
  MatchOptions options_;

  /// Blocking index over the target side for rule_'s target properties
  /// and the options' blocking knobs (shared with other generations
  /// using the same property set and knobs); the mapped postings over a
  /// mapped corpus; null when options_.use_blocking is false.
  std::shared_ptr<const BlockingIndex> blocking_;
  /// This generation's value store: immutable once Compile returns,
  /// shared with later generations that need no new plan. Null for a
  /// mapped corpus.
  std::shared_ptr<const ValueStore> store_;

  /// Distinct source-side value subtrees of rule_ (deduplicated by
  /// ValueOperatorHash) and the query scorer's view of each program
  /// site, in site order.
  std::vector<const ValueOperator*> query_ops_;
  std::vector<QuerySite> query_sites_;

  /// The target-side read surface the query scorer consumes — store_
  /// or the mapped corpus. Set by Compile.
  const ValueReader* reader_ = nullptr;

  double build_seconds_ = 0.0;
};

}  // namespace genlink

#endif  // GENLINK_API_MATCHER_INDEX_H_

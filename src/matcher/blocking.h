// Token-based blocking: indexes target entities by the lowercased tokens
// of the properties a rule compares, so that rule execution over two
// datasets evaluates only candidate pairs that share at least one token
// instead of the full cross product. (The paper defers efficient
// execution to [19]; this index is this library's implementation of that
// substrate.)
//
// Two implementations share the BlockingIndex interface:
//   * TokenBlockingIndex — an in-memory postings map over a Dataset.
//   * MappedBlockingIndex (io/corpus_artifact.cc) — the postings of a
//     mapped corpus artifact, probed in place.
//
// Both serve weighted (rare-token) key selection via
// TokenBlockingOptions: instead of indexing every token, each entity is
// indexed under only its k rarest tokens (document frequency ascending,
// ties broken by the token string, so selection is deterministic).
// Weighted candidates are always a subset of unweighted candidates;
// recall floors are gated by tests/blocking_scale_test.cc and
// bench/blocking_scale.cc.

#ifndef GENLINK_MATCHER_BLOCKING_H_
#define GENLINK_MATCHER_BLOCKING_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/dataset.h"
#include "rule/linkage_rule.h"

namespace genlink {

/// Key-selection knobs of the blocking indexes. The defaults reproduce
/// the classic unweighted index.
struct TokenBlockingOptions {
  /// Index each entity under only its `max_tokens_per_entity` rarest
  /// tokens (document frequency ascending, then token). 0 = all tokens.
  size_t max_tokens_per_entity = 0;
  /// Skip tokens occurring in fewer than this many indexed entities.
  /// 1 = keep all (default). 2 prunes tokens unique to one entity —
  /// useful on a self-indexed (dedup) corpus, where a unique token can
  /// never produce a candidate other than the query entity itself.
  size_t min_token_df = 1;
};

/// Candidate generation interface shared by the in-memory and mapped
/// indexes. Implementations are immutable after construction and safe
/// to query concurrently (see ProbeCandidates for the scratch
/// contract).
class BlockingIndex {
 public:
  virtual ~BlockingIndex() = default;

  /// Returns the indexes of candidate entities sharing at least one
  /// indexed token with `entity` (whose properties live in `schema`).
  /// Sorted, deduplicated.
  virtual std::vector<size_t> Candidates(const Entity& entity,
                                         const Schema& schema) const = 0;

  /// Number of distinct tokens in the index.
  virtual size_t NumTokens() const = 0;
  /// Number of (token, entity) postings.
  virtual size_t NumPostings() const = 0;
};

/// The probe loop of every BlockingIndex: tokenizes each value of each
/// property of `entity` (lowercased alnum runs; the query schema
/// generally differs from the indexed one, so all properties probe),
/// reads each token's postings through `postings` (empty for an
/// unknown token), and returns the distinct entity indexes, sorted.
/// Postings must lie in [0, num_entities).
///
/// Thread safety: the only mutable state is one thread_local
/// epoch-stamped scratch array shared by every index on the thread
/// (blocking.cc, docs/CONCURRENCY.md), so concurrent callers never
/// share scratch and no locking is needed
/// (tests/blocking_concurrency_test.cc exercises this under TSan).
std::vector<size_t> ProbeCandidates(
    const Entity& entity, const Schema& schema, size_t num_entities,
    const std::function<std::span<const uint32_t>(const std::string&)>&
        postings);

/// Inverted index from token to entity indexes of the target dataset.
///
/// Thread safety: immutable after construction; Candidates() is const
/// and safe to call concurrently from any number of threads
/// (ProbeCandidates). api/matcher_index.cc shares one index across rule
/// generations through a shared_ptr<const BlockingIndex> in a cache
/// guarded by the corpus mutex.
class TokenBlockingIndex : public BlockingIndex {
 public:
  /// Indexes `dataset` over the given properties (all properties when
  /// empty). Tokens are lowercased alphanumeric runs; `options` selects
  /// weighted keys (the default indexes every token).
  TokenBlockingIndex(const Dataset& dataset,
                     const std::vector<std::string>& properties = {},
                     const TokenBlockingOptions& options = {});

  std::vector<size_t> Candidates(const Entity& entity,
                                 const Schema& schema) const override;
  size_t NumTokens() const override { return index_.size(); }
  size_t NumPostings() const override { return postings_; }

 private:
  const Dataset* dataset_;
  size_t postings_ = 0;
  /// Read-only after construction (the const-thread-safety contract
  /// above). Iteration order never reaches output: Candidates() probes
  /// by key and sorts its result.
  std::unordered_map<std::string, std::vector<uint32_t>> index_;
};

/// The blocking keys of every entity of `dataset` over `properties`
/// (all properties when empty): lowercased alnum tokens, deduplicated
/// per entity and, with weighted options, pruned to the rarest
/// `max_tokens_per_entity` tokens with df >= min_token_df — exactly the
/// postings TokenBlockingIndex builds from, which is what lets the
/// corpus artifact writer (io/corpus_artifact.cc) serialize postings
/// bit-identical to a fresh TokenBlockingIndex build.
std::vector<std::vector<std::string>> ComputeBlockingKeys(
    const Dataset& dataset, const std::vector<std::string>& properties,
    const TokenBlockingOptions& options);

/// The blocking keys of ONE entity (whose properties live in `schema`)
/// over `properties` (all schema properties when empty): lowercased
/// alnum tokens, deduplicated, in first-seen order — exactly the row
/// ComputeBlockingKeys would produce for this entity under the default
/// (unweighted) options. Only valid for the df-independent
/// configuration: weighted key selection needs corpus-wide document
/// frequencies, which a single entity cannot supply. The live corpus
/// layer (live/live_corpus.h) indexes delta entities with this, which
/// is what keeps its candidate sets bit-identical to a fresh build.
std::vector<std::string> EntityBlockingKeys(
    const Entity& entity, const Schema& schema,
    const std::vector<std::string>& properties);

/// Extracts the source-side / target-side property names a rule reads
/// (from its property operators).
std::vector<std::string> SourceProperties(const LinkageRule& rule);
std::vector<std::string> TargetProperties(const LinkageRule& rule);

}  // namespace genlink

#endif  // GENLINK_MATCHER_BLOCKING_H_

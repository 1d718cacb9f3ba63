// The value store: compiled per-entity transform plans behind the
// evaluation engine's distance rows and the target side of every
// MatcherIndex (api/matcher_index.h).
//
// A *transform plan* is one value subtree of a linkage rule (a chain of
// transformations over property operators), keyed by its
// ValueOperatorHash (rule/rule_hash.h) — the key a corpus artifact's
// plan directory stores too — and evaluated ONCE per entity of its
// side instead of once per entity *pair*: O(|A| + |B|) transform work
// where the operator-tree path pays O(|A| x |B|). The resulting value
// sets are interned into a shared string pool, so the distance phase
// reads
//
//   * spans of pooled string_views (per-value measures: Levenshtein,
//     Jaro, numeric, ...), and
//   * sorted-unique token-id spans with multiplicities (set measures:
//     Jaccard, Dice, Cosine — id equality is string equality because
//     both sides intern into the same pool),
//
// with no transformation, tokenization, string allocation or string
// hashing per pair.
//
// Determinism: plans are registered and interned in the serial phases
// of the callers (plan registration order x entity order fixes every
// id), raw transform evaluation may run on a thread pool but each plan
// is produced by exactly one task, and every distance computed from the
// store is bit-identical to the ValueSet path (asserted against
// LinkageRule::Evaluate by tests/rule_oracle_test.cc; see
// distance/distance_measure.h for the per-measure contract).

#ifndef GENLINK_EVAL_VALUE_STORE_H_
#define GENLINK_EVAL_VALUE_STORE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "distance/distance_measure.h"
#include "model/dataset.h"
#include "rule/linkage_rule.h"

namespace genlink {

/// Dense id of one interned string in the pool.
using ValueId = uint32_t;
/// Dense id of one compiled transform plan (scoped to a store side).
using PlanId = uint32_t;

/// Cumulative counters (survive Clear(); a Fork() starts from a copy).
struct ValueStoreStats {
  /// Distinct plans materialized (per side, summed).
  uint64_t plans_compiled = 0;
  /// Compile requests served by an already-materialized plan.
  uint64_t plan_hits = 0;
  /// Total value slots stored across all plans.
  uint64_t values_stored = 0;
};

/// Append-only string interner over chunked storage: views stay valid
/// until Clear(). Not thread-safe; callers intern in serial phases.
class StringPool {
 public:
  StringPool() = default;
  /// Shares `other`'s blocks and copies its id indexes. The copy interns
  /// into blocks of its own, so neither pool ever writes a byte the
  /// other reads.
  StringPool(const StringPool& other);
  StringPool& operator=(const StringPool&) = delete;

  /// Returns the id of `value`, interning a copy on first sight.
  ValueId Intern(std::string_view value);

  std::string_view View(ValueId id) const { return views_[id]; }
  size_t size() const { return views_.size(); }
  size_t ApproxBytes() const { return bytes_; }

  void Clear();

 private:
  static constexpr size_t kBlockSize = 64 * 1024;

  /// Shared with copies; a block's written bytes never change.
  std::vector<std::shared_ptr<char[]>> blocks_;
  size_t block_used_ = 0;
  size_t block_capacity_ = 0;
  size_t bytes_ = 0;
  std::vector<std::string_view> views_;               // id -> pooled view
  std::unordered_map<std::string_view, ValueId> ids_; // keys view into blocks_
};

/// The read half of a compiled target side: per-entity value spans,
/// sorted token-id spans and pooled string views under compiled plans,
/// with plan lookup by structural hash. This is the surface MatcherIndex's
/// one scorer (api/matcher_index.cc) and its set-measure vocabularies
/// consume, abstracted so it can be served either by the in-memory
/// ValueStore or by a zero-copy MappedCorpus over a v2 corpus artifact
/// (io/corpus_artifact.h) — both return bit-identical spans for the same
/// logical corpus. Implementations are safe for concurrent reads.
class ValueReader {
 public:
  virtual ~ValueReader() = default;

  /// Interned values of one entity under a plan, in evaluation order.
  virtual std::span<const ValueId> Values(PlanId plan,
                                          size_t entity_index) const = 0;
  /// Strictly increasing distinct ids of the same values, with
  /// multiplicities (the token-set representation).
  virtual std::span<const ValueId> SortedIds(PlanId plan,
                                             size_t entity_index) const = 0;
  virtual std::span<const uint32_t> SortedCounts(PlanId plan,
                                                 size_t entity_index) const = 0;

  /// The pooled bytes of an interned value id.
  virtual std::string_view View(ValueId id) const = 0;

  virtual size_t num_entities() const = 0;

  /// The plan compiled for a value subtree with the given
  /// ValueOperatorHash (rule/rule_hash.h), or nullopt when no such
  /// subtree was compiled — for a mapped corpus: was not precomputed
  /// into the artifact.
  virtual std::optional<PlanId> FindPlan(uint64_t hash) const = 0;
};

/// Interned per-entity values of two entity sides (the paper's A and B)
/// under compiled transform plans, sharing one string pool. As a
/// ValueReader it reads the target side. `final`: the hot paths call
/// the span accessors through concrete references, which keeps them
/// devirtualizable.
class ValueStore final : public ValueReader {
 public:
  enum class Side { kSource, kTarget };

  /// The entity pointers are copied; the entities and schemas must
  /// outlive the store.
  ValueStore(std::span<const Entity* const> source_entities,
             const Schema& source_schema,
             std::span<const Entity* const> target_entities,
             const Schema& target_schema);

  /// The serving shape every MatcherIndex and the corpus artifact
  /// writer build: `target`'s entities on the target side (store entity
  /// index == dataset entity index), no source entities. `target` must
  /// outlive the store.
  explicit ValueStore(const Dataset& target);

  /// A new store holding everything this one holds: it shares the
  /// compiled plans and pooled string blocks (immutable once built) and
  /// copies the interning indexes, so compiling into the fork writes
  /// nothing this store reads. Thread-safe against concurrent readers
  /// of this store. PlanIds and ValueIds keep their meaning in the
  /// fork, and new plans are numbered as if compiled into this store.
  std::shared_ptr<ValueStore> Fork() const;

  /// Compiles `ops` on `side`: registers all ops (deduplicating within
  /// the batch and against existing plans by structural hash),
  /// evaluates the raw value sets of the missing plans for every entity
  /// of the side — in parallel over plans when `pool` is non-null —
  /// then interns serially in registration order, so ids are
  /// independent of the thread count. `plans` must have ops.size()
  /// entries.
  void CompileBatch(Side side, std::span<const ValueOperator* const> ops,
                    std::span<PlanId> plans, ThreadPool* pool = nullptr);

  // ValueReader over the target side.
  std::span<const ValueId> Values(PlanId plan_id,
                                  size_t entity_index) const override {
    return plan(Side::kTarget, plan_id).Values(entity_index);
  }
  std::span<const ValueId> SortedIds(PlanId plan_id,
                                     size_t entity_index) const override {
    return plan(Side::kTarget, plan_id).SortedIds(entity_index);
  }
  std::span<const uint32_t> SortedCounts(PlanId plan_id,
                                         size_t entity_index) const override {
    return plan(Side::kTarget, plan_id).SortedCounts(entity_index);
  }
  std::string_view View(ValueId id) const override { return pool_.View(id); }
  size_t num_entities() const override { return target_.entities.size(); }
  std::optional<PlanId> FindPlan(uint64_t hash) const override {
    const auto it = target_.plan_by_hash.find(hash);
    if (it == target_.plan_by_hash.end()) return std::nullopt;
    return it->second;
  }

  /// Raw distance of one entity pair under a compiled comparison —
  /// exactly what DistanceMeasure::Distance returns on the entities'
  /// evaluated ValueSets, or kInfiniteDistance when either side is
  /// empty. `bound` as in DistanceMeasure::DistanceViews: pass a
  /// threshold when only the thresholded score is needed.
  double PairDistance(const DistanceMeasure& measure, PlanId source_plan,
                      size_t source_entity, PlanId target_plan,
                      size_t target_entity,
                      double bound = kInfiniteDistance) const;

  /// Distinct interned strings (ids are [0, NumStrings()); the corpus
  /// artifact writer serializes the pool by id).
  size_t NumStrings() const { return pool_.size(); }
  /// Plans materialized on `side` so far.
  size_t NumPlans(Side side) const { return side_of(side).plans.size(); }
  const ValueStoreStats& stats() const { return stats_; }

  /// Pool bytes + plan array bytes (the eviction trigger of the
  /// engine's store budget).
  size_t ApproxBytes() const;

  /// Drops all plans and the pool. Previously returned PlanIds and
  /// views are invalidated; stats keep accumulating.
  void Clear();

 private:
  /// One compiled plan: flat per-entity slices (offsets have
  /// entities+1 entries).
  struct Plan {
    std::vector<uint32_t> offsets;
    std::vector<ValueId> values;
    std::vector<uint32_t> sorted_offsets;
    std::vector<ValueId> sorted_ids;
    std::vector<uint32_t> sorted_counts;

    std::span<const ValueId> Values(size_t e) const {
      return {values.data() + offsets[e], offsets[e + 1] - offsets[e]};
    }
    std::span<const ValueId> SortedIds(size_t e) const {
      return {sorted_ids.data() + sorted_offsets[e],
              sorted_offsets[e + 1] - sorted_offsets[e]};
    }
    std::span<const uint32_t> SortedCounts(size_t e) const {
      return {sorted_counts.data() + sorted_offsets[e],
              sorted_offsets[e + 1] - sorted_offsets[e]};
    }
  };

  struct SideStore {
    std::vector<const Entity*> entities;
    const Schema* schema = nullptr;
    /// Shared with forks: a plan never changes once interned.
    std::vector<std::shared_ptr<const Plan>> plans;
    std::unordered_map<uint64_t, PlanId> plan_by_hash;
  };

  /// The copy behind Fork().
  ValueStore(const ValueStore&) = default;

  SideStore& side_of(Side side) {
    return side == Side::kSource ? source_ : target_;
  }
  const SideStore& side_of(Side side) const {
    return side == Side::kSource ? source_ : target_;
  }
  const Plan& plan(Side side, PlanId id) const {
    return *side_of(side).plans[id];
  }

  /// Interns one plan's raw per-entity value sets into flat storage.
  std::shared_ptr<const Plan> InternPlan(std::span<const ValueSet> raw_values);

  StringPool pool_;
  SideStore source_;
  SideStore target_;
  ValueStoreStats stats_;
};

}  // namespace genlink

#endif  // GENLINK_EVAL_VALUE_STORE_H_

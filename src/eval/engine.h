// The evaluation engine: parallel, memoized fitness evaluation.
//
// The GP loop spends essentially all of its time scoring candidate rules
// against the labelled training pairs (Section 5.2 of the paper; the
// paper defers efficient rule execution to the Silk substrate [19]).
// This engine makes that hot path fast without changing a single bit of
// the results:
//
//   1. Fitness memo — FitnessResults are cached behind the canonical
//      structural hash of the rule (rule/rule_hash.h), so a rule bred a
//      second time in a later generation is never re-evaluated.
//   2. Distance cache — for every *comparison signature* (distance
//      measure x source value subtree x target value subtree, threshold
//      and weight excluded) the engine precomputes the raw distance of
//      every training pair once. Offspring share comparison subtrees
//      with their parents, so across generations almost all comparisons
//      hit this cache; evaluating a rule then reduces to thresholding
//      and aggregating cached doubles — no string distances at all.
//   3. Value store — when a distance row *is* cold, its value subtrees
//      are compiled into per-entity transform plans (eval/value_store.h)
//      first: transformations run once per distinct entity instead of
//      once per pair, and the row is then computed over interned
//      values (pooled string views / sorted token ids), allocation-free.
//   4. Thread pool — plan evaluation, distance rows and cache-missing
//      rules are evaluated in parallel on common/thread_pool.
//
// Determinism invariants (checked rule by rule against the serial
// FitnessEvaluator by tests/engine_test.cc and tests/rule_oracle_test.cc,
// across thread counts by tests/determinism_test.cc, and end to end by
// the learner goldens tests/golden/learn_*.txt):
//   * Results are bit-identical to the serial FitnessEvaluator path:
//     a raw distance is the same double whether computed per pair or
//     read from a cached row (empty value sets are stored as
//     kInfiniteDistance, which ThresholdedScore maps to the same 0.0
//     score the serial short-circuit produces), and the rule's program
//     (rule/rule_program.h) hands every aggregation the same operand
//     scores and weights the operator tree does.
//   * Results are independent of the thread count: each distance row
//     and each rule is filled by exactly one task, caches are only
//     written in the serial phases, and no reduction crosses a task
//     boundary.
//
// The "caches are only touched in the serial phases" discipline is not
// just documented — it is statically enforced. The engine's shared
// mutable state (fitness memo, distance-row map, hasher, stats
// counters) is GENLINK_GUARDED_BY(serial_phase_), a zero-cost PhaseRole
// capability (common/mutex.h): EvaluateBatch holds it in the serial
// stretches, worker-task lambdas are analyzed as separate functions
// that do not, so an accidental cache access from a parallel section
// fails `clang -Wthread-safety` instead of racing at runtime. Parallel
// sections only read immutable members (pairs_, the pair->entity index
// maps, the value store contents frozen for the phase) and write
// disjoint slots resolved serially beforehand.

#ifndef GENLINK_EVAL_ENGINE_H_
#define GENLINK_EVAL_ENGINE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "eval/fitness.h"
#include "eval/value_store.h"
#include "rule/rule_hash.h"

namespace genlink {

/// Engine knobs. The caches are always on; their memory budgets are
/// constants of eval/engine.cc.
struct EngineConfig {
  /// Worker threads (0 = hardware concurrency).
  size_t num_threads = 0;
};

/// Cumulative counters over the engine's lifetime. Updated only in the
/// serial phases, so reads between batches need no synchronization.
struct EngineStats {
  /// Individuals that went through the engine (hits + misses).
  uint64_t rules_evaluated = 0;
  /// Rules served without evaluation: memo hits from earlier batches,
  /// plus batch-internal duplicates of a rule evaluated in this batch.
  uint64_t fitness_hits = 0;
  uint64_t fitness_misses = 0;
  /// Comparison sites served by a row the site did not itself trigger
  /// computing — cached from an earlier batch, or shared with another
  /// site of the same batch (one computed row serving N sites).
  uint64_t distance_row_hits = 0;
  /// Distance rows computed (one row = all training pairs for one
  /// comparison signature).
  uint64_t distance_rows_computed = 0;
  /// Subtree hash-consing telemetry (structure reuse across the run).
  uint64_t subtree_probes = 0;
  uint64_t subtree_hits = 0;
  /// Value-store telemetry: transform plans materialized (each runs its
  /// subtree once per entity) vs compile requests served by an existing
  /// plan, and total strings interned.
  uint64_t value_plans_compiled = 0;
  uint64_t value_plan_hits = 0;
  uint64_t values_interned = 0;

  double FitnessHitRate() const {
    return rules_evaluated == 0
               ? 0.0
               : static_cast<double>(fitness_hits) /
                     static_cast<double>(rules_evaluated);
  }
  double DistanceRowHitRate() const {
    uint64_t probes = distance_row_hits + distance_rows_computed;
    return probes == 0 ? 0.0
                       : static_cast<double>(distance_row_hits) /
                             static_cast<double>(probes);
  }
};

/// Memoizes fitness results by canonical rule hash across generations.
/// Rules with identical structure are only evaluated once.
class FitnessCache {
 public:
  /// `max_entries` bounds memory; the cache is cleared when exceeded.
  explicit FitnessCache(size_t max_entries = 1 << 18)
      : max_entries_(max_entries) {}

  const FitnessResult* Find(uint64_t hash) const;
  void Insert(uint64_t hash, const FitnessResult& result);

  size_t size() const { return entries_.size(); }

 private:
  std::unordered_map<uint64_t, FitnessResult> entries_;
  size_t max_entries_;
};

/// Evaluates rules against one fixed set of labelled training pairs,
/// with memoization and parallelism. Bound to its pair set: use one
/// engine per training split. Not thread-safe externally (the learner
/// calls it from one thread; the engine parallelizes internally).
class EvaluationEngine {
 public:
  /// `pairs` must outlive the engine.
  EvaluationEngine(std::span<const LabeledPair> pairs, const Schema& schema_a,
                   const Schema& schema_b, FitnessConfig fitness = {},
                   EngineConfig config = {});

  /// Evaluates `rules[i]` into `results[i]` for every i. Both spans must
  /// have the same size; rule pointers must be non-null and alive for
  /// the duration of the call.
  void EvaluateBatch(std::span<const LinkageRule* const> rules,
                     std::span<FitnessResult> results);

  /// Single-rule convenience wrapper over EvaluateBatch.
  FitnessResult Evaluate(const LinkageRule& rule);

  /// Snapshot of the cumulative counters. Returns by value: the stats
  /// are serial-phase state, so handing out a reference would let
  /// callers read them while a batch is mid-flight.
  EngineStats stats() const {
    PhaseGuard guard(serial_phase_);
    return stats_;
  }

  /// The engine's worker pool, shared with the search layer: the
  /// learner (gp/islands.cc) breeds its populations on the same threads
  /// that evaluate fitness, so one pool serves the whole learning loop.
  /// Breeding and evaluation never overlap (the learner alternates
  /// them), so the sharing needs no extra synchronization.
  ThreadPool& pool() { return pool_; }

 private:
  /// One rule awaiting evaluation (a fitness-memo miss).
  struct Pending {
    size_t index = 0;  // into the batch
    RuleHashInfo info;
  };

  /// Fills `row` (sized to pairs_) with the raw distance of every pair
  /// under the comparison's measure and value subtrees, reading
  /// interned per-entity values from the value store.
  void FillDistanceRowFromStore(const ComparisonOperator& op,
                                PlanId source_plan, PlanId target_plan,
                                std::vector<double>& row) const;

  /// Evaluates one rule using cached distance rows only (no string
  /// distance is computed): the rule's program (rule/rule_program.h)
  /// with site k reading rows[k]. `rows` holds the rule's comparison
  /// rows in the pre-order of RuleHashInfo::comparisons.
  ConfusionMatrix EvaluateWithRows(
      const LinkageRule& rule,
      std::span<const std::vector<double>* const> rows) const;

  std::span<const LabeledPair> pairs_;
  FitnessConfig fitness_config_;
  ThreadPool pool_;
  /// Discipline token for the engine's phase structure: held by
  /// EvaluateBatch's serial stretches, never by worker tasks. Mutable
  /// so the const stats() accessor can take the (zero-cost) guard.
  mutable PhaseRole serial_phase_;
  RuleHasher hasher_ GENLINK_GUARDED_BY(serial_phase_);
  FitnessCache fitness_cache_ GENLINK_GUARDED_BY(serial_phase_);
  /// comparison signature -> raw distance per training pair. The map
  /// structure is serial-phase state; the row *contents* a parallel
  /// phase fills are reached through pointers resolved serially, each
  /// row written by exactly one task.
  std::unordered_map<uint64_t, std::vector<double>> distance_rows_
      GENLINK_GUARDED_BY(serial_phase_);
  /// Per-entity transform plans + interned values, the source of every
  /// cold distance row. Mutated only by CompileBatch in the serial
  /// phase 2b; frozen and read-shared during the parallel row fill
  /// (docs/CONCURRENCY.md).
  std::unique_ptr<ValueStore> store_;
  /// Training-pair index -> store entity index, per side.
  std::vector<uint32_t> pair_source_index_;
  std::vector<uint32_t> pair_target_index_;
  EngineStats stats_ GENLINK_GUARDED_BY(serial_phase_);
};

}  // namespace genlink

#endif  // GENLINK_EVAL_ENGINE_H_

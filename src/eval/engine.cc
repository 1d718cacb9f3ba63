#include "eval/engine.h"

#include <cassert>
#include <unordered_set>

#include "distance/distance_measure.h"
#include "eval/confusion_matrix.h"
#include "rule/rule_program.h"

namespace genlink {
namespace {

// Memory budgets of the engine's caches. The fitness memo is cleared
// when an insert finds it full; distance rows and the value store are
// cleared between batches when they would outgrow their (approximate)
// byte budgets.
constexpr size_t kMaxFitnessEntries = 1 << 18;
constexpr size_t kMaxDistanceBytes = 128u << 20;
constexpr size_t kMaxStoreBytes = 256u << 20;  // string pool + plans

}  // namespace

const FitnessResult* FitnessCache::Find(uint64_t hash) const {
  auto it = entries_.find(hash);
  return it == entries_.end() ? nullptr : &it->second;
}

void FitnessCache::Insert(uint64_t hash, const FitnessResult& result) {
  if (entries_.size() >= max_entries_) entries_.clear();
  entries_[hash] = result;
}

EvaluationEngine::EvaluationEngine(std::span<const LabeledPair> pairs,
                                   const Schema& schema_a,
                                   const Schema& schema_b,
                                   FitnessConfig fitness, EngineConfig config)
    : pairs_(pairs),
      fitness_config_(fitness),
      pool_(config.num_threads),
      fitness_cache_(kMaxFitnessEntries) {
  // Map each training pair to dense per-side entity indexes: pairs share
  // entities heavily (every entity appears in several labelled pairs),
  // and plans are evaluated per *entity*, not per pair.
  std::vector<const Entity*> source_entities, target_entities;
  std::unordered_map<const Entity*, uint32_t> source_index, target_index;
  pair_source_index_.reserve(pairs_.size());
  pair_target_index_.reserve(pairs_.size());
  for (const LabeledPair& pair : pairs_) {
    auto [sit, s_new] = source_index.try_emplace(
        pair.a, static_cast<uint32_t>(source_entities.size()));
    if (s_new) source_entities.push_back(pair.a);
    pair_source_index_.push_back(sit->second);
    auto [tit, t_new] = target_index.try_emplace(
        pair.b, static_cast<uint32_t>(target_entities.size()));
    if (t_new) target_entities.push_back(pair.b);
    pair_target_index_.push_back(tit->second);
  }
  store_ = std::make_unique<ValueStore>(source_entities, schema_a,
                                        target_entities, schema_b);
}

void EvaluationEngine::FillDistanceRowFromStore(const ComparisonOperator& op,
                                                PlanId source_plan,
                                                PlanId target_plan,
                                                std::vector<double>& row) const {
  row.resize(pairs_.size());
  const DistanceMeasure& measure = *op.measure();
  for (size_t p = 0; p < pairs_.size(); ++p) {
    // No bound: rows are shared across thresholds (the comparison
    // signature excludes them), so the raw distance must be exact.
    row[p] = store_->PairDistance(measure, source_plan, pair_source_index_[p],
                                  target_plan, pair_target_index_[p]);
  }
}

ConfusionMatrix EvaluationEngine::EvaluateWithRows(
    const LinkageRule& rule,
    std::span<const std::vector<double>* const> rows) const {
  // `rows` and the program's sites share AnalyzeRule's pre-order, so
  // site k reads row k. Empty value sets are cached as an infinite
  // distance, which ThresholdedScore maps to the spec's 0.0.
  const RuleProgram program(rule);
  assert(program.sites().size() == rows.size());
  ConfusionMatrix cm;
  for (size_t p = 0; p < pairs_.size(); ++p) {
    const bool predicted =
        Score(program, [&](size_t site, double /*threshold*/) {
          return (*rows[site])[p];
        }) >= kMatchThreshold;
    if (pairs_[p].is_match) {
      predicted ? ++cm.tp : ++cm.fn;
    } else {
      predicted ? ++cm.fp : ++cm.tn;
    }
  }
  return cm;
}

void EvaluationEngine::EvaluateBatch(std::span<const LinkageRule* const> rules,
                                     std::span<FitnessResult> results) {
  assert(rules.size() == results.size());

  // The whole batch runs on the caller's thread with parallel sections
  // dispatched in between; this thread holds the serial-phase role
  // throughout. Worker lambdas are analyzed separately and do NOT hold
  // it, so they can only touch state resolved for them serially below —
  // any direct cache/stats access from a task is a -Wthread-safety
  // error.
  PhaseGuard serial(serial_phase_);

  // Phase 1 (serial): hash every rule, resolve fitness-memo hits, and
  // dedup identical rules within the batch (one representative is
  // evaluated; its result is copied to the duplicates afterwards).
  std::vector<Pending> pending;
  std::unordered_map<uint64_t, size_t> pending_by_hash;  // canonical -> idx
  std::vector<std::pair<size_t, size_t>> duplicates;  // (batch idx, pending idx)
  for (size_t i = 0; i < rules.size(); ++i) {
    ++stats_.rules_evaluated;
    RuleHashInfo info = hasher_.Analyze(*rules[i]);
    if (const FitnessResult* hit = fitness_cache_.Find(info.canonical)) {
      results[i] = *hit;
      ++stats_.fitness_hits;
      continue;
    }
    auto [it, inserted] =
        pending_by_hash.try_emplace(info.canonical, pending.size());
    if (!inserted) {
      duplicates.push_back({i, it->second});
      ++stats_.fitness_hits;
      continue;
    }
    ++stats_.fitness_misses;
    pending.push_back({i, std::move(info)});
  }
  stats_.subtree_probes = hasher_.subtree_probes();
  stats_.subtree_hits = hasher_.subtree_hits();
  if (pending.empty()) return;

  // Phase 2 (serial): collect the batch's distinct comparison
  // signatures and decide which rows are missing. Repeated sites
  // within the batch are hits no matter what (the row exists by eval
  // time and they did not trigger its computation); first occurrences
  // of a present row are only hits if the budget clear below does not
  // evict it — their accounting waits for that decision.
  std::vector<uint64_t> needed_sigs;
  std::vector<const ComparisonOperator*> needed_reps;
  std::vector<bool> row_present;
  std::unordered_set<uint64_t> seen_in_batch;
  size_t rows_missing = 0;
  uint64_t duplicate_site_hits = 0;
  for (const Pending& p : pending) {
    for (const ComparisonSite& site : p.info.comparisons) {
      if (!seen_in_batch.insert(site.signature).second) {
        // Repeated site within the batch: served by whichever row the
        // first occurrence provides.
        ++duplicate_site_hits;
        continue;
      }
      needed_sigs.push_back(site.signature);
      needed_reps.push_back(site.op);
      bool present =
          distance_rows_.find(site.signature) != distance_rows_.end();
      row_present.push_back(present);
      if (!present) ++rows_missing;
    }
  }
  stats_.distance_row_hits += duplicate_site_hits;

  // Soft byte budget: when the cache would outgrow it, drop the old
  // rows and recompute only what this batch needs. (A batch larger
  // than the budget still computes all of its rows.)
  const size_t row_bytes = pairs_.size() * sizeof(double) + 64;
  std::vector<uint64_t> new_sigs;
  std::vector<const ComparisonOperator*> new_reps;
  if ((distance_rows_.size() + rows_missing) * row_bytes > kMaxDistanceBytes) {
    distance_rows_.clear();
    new_sigs = needed_sigs;
    new_reps = needed_reps;
  } else {
    for (size_t k = 0; k < needed_sigs.size(); ++k) {
      if (row_present[k]) {
        ++stats_.distance_row_hits;
      } else {
        new_sigs.push_back(needed_sigs[k]);
        new_reps.push_back(needed_reps[k]);
      }
    }
  }

  // Phase 2b (serial registration, parallel evaluation): compile the
  // value subtrees of the missing rows into per-entity transform
  // plans. Most offspring share subtrees, so plans mostly hit; fresh
  // plans run their subtree once per entity on the pool and intern
  // serially (deterministic ids).
  std::vector<PlanId> source_plans(new_sigs.size());
  std::vector<PlanId> target_plans(new_sigs.size());
  if (!new_sigs.empty()) {
    if (store_->ApproxBytes() > kMaxStoreBytes) store_->Clear();
    std::vector<const ValueOperator*> source_ops, target_ops;
    source_ops.reserve(new_reps.size());
    target_ops.reserve(new_reps.size());
    for (const ComparisonOperator* rep : new_reps) {
      source_ops.push_back(rep->source());
      target_ops.push_back(rep->target());
    }
    store_->CompileBatch(ValueStore::Side::kSource, source_ops, source_plans,
                         &pool_);
    store_->CompileBatch(ValueStore::Side::kTarget, target_ops, target_plans,
                         &pool_);
    stats_.value_plans_compiled = store_->stats().plans_compiled;
    stats_.value_plan_hits = store_->stats().plan_hits;
    stats_.values_interned = store_->stats().values_stored;
  }

  // Phase 3 (parallel): fill the missing rows. Rows are allocated
  // serially first so the map is never mutated concurrently; each row
  // is written by exactly one task.
  std::vector<std::vector<double>*> new_rows(new_sigs.size());
  for (size_t k = 0; k < new_sigs.size(); ++k) {
    new_rows[k] = &distance_rows_[new_sigs[k]];
  }
  pool_.ParallelFor(new_sigs.size(), [&](size_t k) {
    FillDistanceRowFromStore(*new_reps[k], source_plans[k], target_plans[k],
                             *new_rows[k]);
  });
  stats_.distance_rows_computed += new_sigs.size();

  // Phase 4 (parallel): score the pending rules from the rows. The
  // rows each rule needs are resolved serially first — the map is
  // serial-phase state, so worker tasks receive plain row pointers
  // and never touch `distance_rows_` itself. Each rule is scored by
  // one task with a serial in-order pass over the pairs
  // (deterministic reduction); rows are resolved once per rule, in
  // the comparisons' pre-order, so the rule's program reads site k
  // from row k.
  std::vector<std::vector<const std::vector<double>*>> rule_rows(
      pending.size());
  for (size_t k = 0; k < pending.size(); ++k) {
    rule_rows[k].reserve(pending[k].info.comparisons.size());
    for (const ComparisonSite& site : pending[k].info.comparisons) {
      rule_rows[k].push_back(&distance_rows_.find(site.signature)->second);
    }
  }
  pool_.ParallelFor(pending.size(), [&](size_t k) {
    const Pending& p = pending[k];
    const LinkageRule& rule = *rules[p.index];
    results[p.index] = ScoreConfusion(EvaluateWithRows(rule, rule_rows[k]),
                                      rule.OperatorCount(), fitness_config_);
  });

  // Phase 5 (serial): copy results to batch-internal duplicates and
  // memoize the new results.
  for (const auto& [batch_index, pending_index] : duplicates) {
    results[batch_index] = results[pending[pending_index].index];
  }
  for (const Pending& p : pending) {
    fitness_cache_.Insert(p.info.canonical, results[p.index]);
  }
}

FitnessResult EvaluationEngine::Evaluate(const LinkageRule& rule) {
  const LinkageRule* ptr = &rule;
  FitnessResult result;
  EvaluateBatch({&ptr, 1}, {&result, 1});
  return result;
}

}  // namespace genlink

#include "eval/value_store.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "distance/distance_measure.h"
#include "rule/rule_hash.h"

namespace genlink {

// ------------------------------------------------------------ StringPool

StringPool::StringPool(const StringPool& other)
    : blocks_(other.blocks_),
      // The shared tail block counts as full: the next Intern opens a
      // block of this pool's own.
      block_used_(other.block_capacity_),
      block_capacity_(other.block_capacity_),
      bytes_(other.bytes_),
      views_(other.views_),
      ids_(other.ids_) {}

ValueId StringPool::Intern(std::string_view value) {
  auto it = ids_.find(value);
  if (it != ids_.end()) return it->second;

  std::string_view stored;
  if (!value.empty()) {
    if (block_used_ + value.size() > block_capacity_ || blocks_.empty()) {
      const size_t capacity = std::max(kBlockSize, value.size());
      blocks_.push_back(std::make_shared<char[]>(capacity));
      block_capacity_ = capacity;
      block_used_ = 0;
      bytes_ += capacity;
    }
    char* dst = blocks_.back().get() + block_used_;
    std::memcpy(dst, value.data(), value.size());
    block_used_ += value.size();
    stored = std::string_view(dst, value.size());
  }

  const ValueId id = static_cast<ValueId>(views_.size());
  views_.push_back(stored);
  ids_.emplace(stored, id);
  return id;
}

void StringPool::Clear() {
  blocks_.clear();
  block_used_ = 0;
  block_capacity_ = 0;
  bytes_ = 0;
  views_.clear();
  ids_.clear();
}

// ------------------------------------------------------------ ValueStore

ValueStore::ValueStore(std::span<const Entity* const> source_entities,
                       const Schema& source_schema,
                       std::span<const Entity* const> target_entities,
                       const Schema& target_schema) {
  source_.entities.assign(source_entities.begin(), source_entities.end());
  source_.schema = &source_schema;
  target_.entities.assign(target_entities.begin(), target_entities.end());
  target_.schema = &target_schema;
}

ValueStore::ValueStore(const Dataset& target) {
  target_.entities.reserve(target.size());
  for (const Entity& entity : target.entities()) {
    target_.entities.push_back(&entity);
  }
  target_.schema = &target.schema();
}

std::shared_ptr<ValueStore> ValueStore::Fork() const {
  return std::shared_ptr<ValueStore>(new ValueStore(*this));
}

void ValueStore::CompileBatch(Side s,
                              std::span<const ValueOperator* const> ops,
                              std::span<PlanId> plans, ThreadPool* pool) {
  assert(ops.size() == plans.size());
  SideStore& side = side_of(s);

  // Register: dedup against existing plans and within the batch. New
  // plans get their slot (and id) now so materialization order cannot
  // affect ids.
  struct FreshPlan {
    PlanId id = 0;
    const ValueOperator* op = nullptr;
  };
  std::vector<FreshPlan> fresh;
  for (size_t k = 0; k < ops.size(); ++k) {
    const uint64_t hash = ValueOperatorHash(*ops[k]);
    auto [it, inserted] =
        side.plan_by_hash.try_emplace(hash, static_cast<PlanId>(side.plans.size()));
    if (inserted) {
      side.plans.emplace_back();
      fresh.push_back({it->second, ops[k]});
    } else {
      ++stats_.plan_hits;
    }
    plans[k] = it->second;
  }
  if (fresh.empty()) return;

  // Evaluate the raw value sets of the fresh plans. One task per plan:
  // this is the only phase that runs value operators, and the only
  // parallel one.
  std::vector<std::vector<ValueSet>> raw(fresh.size());
  auto evaluate_plan = [&](size_t f) {
    std::vector<ValueSet>& out = raw[f];
    out.resize(side.entities.size());
    for (size_t e = 0; e < side.entities.size(); ++e) {
      out[e] = fresh[f].op->Evaluate(*side.entities[e], *side.schema);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(fresh.size(), evaluate_plan);
  } else {
    for (size_t f = 0; f < fresh.size(); ++f) evaluate_plan(f);
  }

  // Intern serially in registration order: value ids depend only on
  // (plan registration order x entity order x value order), never on
  // the thread count.
  for (size_t f = 0; f < fresh.size(); ++f) {
    side.plans[fresh[f].id] = InternPlan(raw[f]);
  }
  stats_.plans_compiled += fresh.size();
}

std::shared_ptr<const ValueStore::Plan> ValueStore::InternPlan(
    std::span<const ValueSet> raw_values) {
  auto compiled = std::make_shared<Plan>();
  Plan& plan = *compiled;
  const size_t n = raw_values.size();
  size_t total = 0;
  for (const ValueSet& values : raw_values) total += values.size();

  plan.offsets.resize(n + 1);
  plan.sorted_offsets.resize(n + 1);
  plan.values.reserve(total);
  plan.sorted_ids.reserve(total);
  plan.sorted_counts.reserve(total);
  plan.offsets[0] = 0;
  plan.sorted_offsets[0] = 0;

  std::vector<ValueId> scratch;
  for (size_t e = 0; e < n; ++e) {
    const size_t begin = plan.values.size();
    for (const std::string& value : raw_values[e]) {
      plan.values.push_back(pool_.Intern(value));
    }
    plan.offsets[e + 1] = static_cast<uint32_t>(plan.values.size());

    // Token-set view: strictly increasing distinct ids + multiplicities.
    scratch.assign(plan.values.begin() + begin, plan.values.end());
    std::sort(scratch.begin(), scratch.end());
    for (size_t i = 0; i < scratch.size();) {
      size_t j = i + 1;
      while (j < scratch.size() && scratch[j] == scratch[i]) ++j;
      plan.sorted_ids.push_back(scratch[i]);
      plan.sorted_counts.push_back(static_cast<uint32_t>(j - i));
      i = j;
    }
    plan.sorted_offsets[e + 1] = static_cast<uint32_t>(plan.sorted_ids.size());
  }
  stats_.values_stored += total;
  return compiled;
}

double ValueStore::PairDistance(const DistanceMeasure& measure,
                                PlanId source_plan, size_t source_entity,
                                PlanId target_plan, size_t target_entity,
                                double bound) const {
  const Plan& a = plan(Side::kSource, source_plan);
  const Plan& b = plan(Side::kTarget, target_plan);
  std::span<const ValueId> va = a.Values(source_entity);
  std::span<const ValueId> vb = b.Values(target_entity);
  // Matches both the serial short-circuit (similarity 0) and the
  // engine's empty-row convention: ThresholdedScore(inf, θ) == 0.
  if (va.empty() || vb.empty()) return kInfiniteDistance;

  if (measure.IsSetMeasure()) {
    return measure.TokenIdDistance(a.SortedIds(source_entity),
                                   a.SortedCounts(source_entity),
                                   b.SortedIds(target_entity),
                                   b.SortedCounts(target_entity));
  }

  thread_local std::vector<std::string_view> scratch_a, scratch_b;
  scratch_a.clear();
  scratch_b.clear();
  for (ValueId id : va) scratch_a.push_back(pool_.View(id));
  for (ValueId id : vb) scratch_b.push_back(pool_.View(id));
  return measure.DistanceViews(std::span<const std::string_view>(scratch_a),
                               std::span<const std::string_view>(scratch_b),
                               bound);
}

size_t ValueStore::ApproxBytes() const {
  size_t bytes = pool_.ApproxBytes() + pool_.size() * 48;  // views + map nodes
  for (const SideStore* side : {&source_, &target_}) {
    for (const std::shared_ptr<const Plan>& plan : side->plans) {
      bytes += (plan->offsets.capacity() + plan->sorted_offsets.capacity() +
                plan->values.capacity() + plan->sorted_ids.capacity() +
                plan->sorted_counts.capacity()) *
               sizeof(uint32_t);
    }
  }
  return bytes;
}

void ValueStore::Clear() {
  pool_.Clear();
  for (SideStore* side : {&source_, &target_}) {
    side->plans.clear();
    side->plan_by_hash.clear();
  }
}

}  // namespace genlink

#include "live/live_corpus.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/clock.h"
#include "common/thread_pool.h"
#include "distance/distance_measure.h"
#include "io/corpus_artifact.h"
#include "matcher/blocking.h"
#include "rule/operators.h"
#include "rule/rule_program.h"

namespace genlink {
namespace {

double Elapsed(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

/// The deployed rule compiled for the delta side: the rule tree (the
/// snapshot owns its clone — base index, delta scorer and delta entries
/// must agree on operator identity), its program, and the target-side
/// property names delta blocking keys come from.
struct LiveCorpus::Deployment {
  explicit Deployment(const LinkageRule& deployed)
      : rule(deployed.Clone()),
        program(rule),
        blocking_properties(TargetProperties(rule)) {}

  const LinkageRule rule;
  const RuleProgram program;  // over `rule`
  const std::vector<std::string> blocking_properties;
};

/// One published, immutable epoch: everything a query needs, reachable
/// from a single atomic pointer load. All members are shared with (not
/// copied from) the master state where immutability already holds —
/// only the dead mask and the delta posting map are rebuilt per
/// publish, so they can be read without any filtering or locking.
struct LiveCorpus::Snapshot {
  uint64_t epoch = 0;
  /// Keeps the dataset behind `base` alive (null over a mapped base,
  /// where the index owns the mapping).
  std::shared_ptr<const Dataset> base_data;
  std::shared_ptr<const MatcherIndex> base;
  /// Tombstone mask over base slots, one byte per slot (the
  /// MatchEntityMasked surface).
  std::shared_ptr<const std::vector<uint8_t>> base_dead;
  /// Immutable prefix of the delta log at publish time.
  DeltaLog::View delta;
  /// The LIVE delta slots, ascending — the full-scan candidate list
  /// when blocking is off. Dead entries are filtered at publish, never
  /// at query time.
  std::shared_ptr<const std::vector<uint32_t>> delta_live;
  /// token -> live delta slots, rebuilt per publish from the entries'
  /// stored keys; null when blocking is off. Probed by key only —
  /// iteration order never reaches output.
  std::shared_ptr<const std::unordered_map<std::string, std::vector<uint32_t>>>
      postings;
  std::shared_ptr<const Deployment> deployment;
  /// The user's options: threshold and best_match_only applied to the
  /// merged links.
  MatchOptions options;
};

LiveCorpus::LiveCorpus() = default;
LiveCorpus::~LiveCorpus() = default;

Status LiveCorpus::ValidateConfig(const LinkageRule& rule,
                                  const MatchOptions& options) {
  if (rule.empty()) {
    return Status::InvalidArgument(
        "LiveCorpus requires a non-empty rule: an empty rule has no "
        "comparison sites to pre-evaluate delta entries for");
  }
  if (options.blocking_max_tokens != 0 || options.blocking_min_token_df > 1) {
    return Status::InvalidArgument(
        "LiveCorpus requires the df-independent blocking configuration "
        "(blocking_max_tokens=0, blocking_min_token_df=1): weighted key "
        "selection ranks tokens by corpus-wide document frequency, which "
        "changes with every mutation, so a mutated index could not stay "
        "bit-identical to a fresh build");
  }
  return Status::Ok();
}

MatchOptions LiveCorpus::BaseOptions(const MatchOptions& options) {
  MatchOptions base = options;
  // Best-match reduction must see the merged base+delta links; the base
  // index returns every link reaching the threshold and the merge
  // applies the reduction (MatchOne). Cancellation is per-call state,
  // never part of a deployed configuration.
  base.best_match_only = false;
  base.cancel = nullptr;
  return base;
}

Result<std::unique_ptr<LiveCorpus>> LiveCorpus::CreateImpl(
    const Dataset* base, std::shared_ptr<const MappedCorpus> mapped,
    const LinkageRule& rule, const MatchOptions& options,
    const LiveCorpusOptions& live_options) {
  GENLINK_RETURN_IF_ERROR(ValidateConfig(rule, options));
  auto deployment = std::make_shared<const Deployment>(rule);

  std::unique_ptr<LiveCorpus> live(new LiveCorpus());
  live->mapped_ = mapped;
  live->live_options_ = live_options;
  live->pool_ = std::make_unique<ThreadPool>(options.num_threads);

  MutexLock lock(live->mutex_);
  live->user_options_ = options;
  live->user_options_.cancel = nullptr;
  live->deployment_ = deployment;
  if (mapped != nullptr) {
    live->schema_ = mapped->schema();
    auto built =
        MatcherIndex::Build(mapped, deployment->rule, BaseOptions(options));
    if (!built.ok()) return built.status();
    live->base_index_ = std::move(built).value();
    // The artifact owns its blocking knobs and the base index adopts
    // them, so check the knobs it serves, not the ones requested.
    GENLINK_RETURN_IF_ERROR(
        ValidateConfig(deployment->rule, live->base_index_->options()));
    live->base_dead_.assign(mapped->size(), 0);
    for (size_t i = 0; i < mapped->size(); ++i) {
      live->locations_[std::string(mapped->entity_id(i))] =
          Location{Location::Where::kBase, static_cast<uint32_t>(i)};
    }
    live->live_entities_ = mapped->size();
  } else {
    live->schema_ = base->schema();
    // Own a copy: compaction rewrites the corpus, and the index's
    // dataset must outlive every snapshot that serves it.
    auto owned = std::make_shared<const Dataset>(*base);
    live->base_data_ = owned;
    live->base_index_ =
        MatcherIndex::Build(*owned, deployment->rule, BaseOptions(options));
    live->base_dead_.assign(owned->size(), 0);
    for (size_t i = 0; i < owned->size(); ++i) {
      live->locations_[owned->entity(i).id()] =
          Location{Location::Where::kBase, static_cast<uint32_t>(i)};
    }
    live->live_entities_ = owned->size();
  }
  live->PublishLocked();
  return live;
}

Result<std::unique_ptr<LiveCorpus>> LiveCorpus::Create(
    const Dataset& base, const LinkageRule& rule, const MatchOptions& options,
    const LiveCorpusOptions& live_options) {
  return CreateImpl(&base, nullptr, rule, options, live_options);
}

Result<std::unique_ptr<LiveCorpus>> LiveCorpus::Create(
    std::shared_ptr<const MappedCorpus> base, const LinkageRule& rule,
    const MatchOptions& options, const LiveCorpusOptions& live_options) {
  if (base == nullptr) {
    return Status::InvalidArgument("LiveCorpus::Create: null mapped corpus");
  }
  return CreateImpl(nullptr, std::move(base), rule, options, live_options);
}

Result<Entity> LiveCorpus::RemapEntity(const Entity& entity,
                                       const Schema& schema) const {
  if (entity.id().empty()) {
    return Status::InvalidArgument("upsert requires a non-empty entity id");
  }
  Entity out(entity.id());
  const size_t slots =
      std::min<size_t>(entity.NumPropertySlots(), schema.NumProperties());
  for (PropertyId p = 0; p < entity.NumPropertySlots(); ++p) {
    const ValueSet& values = entity.Values(p);
    if (values.empty()) continue;
    if (p >= slots) {
      return Status::InvalidArgument(
          "upsert entity '" + entity.id() +
          "' has values in a property slot beyond its schema");
    }
    const std::string& name = schema.PropertyName(p);
    const auto id = schema_.FindProperty(name);
    if (!id.has_value()) {
      return Status::InvalidArgument("upsert entity '" + entity.id() +
                                     "' uses property '" + name +
                                     "' unknown to the corpus schema");
    }
    out.SetValues(*id, values);
  }
  return out;
}

DeltaEntry LiveCorpus::BuildDeltaEntry(Entity entity,
                                       const Deployment& deployment,
                                       bool use_blocking) const {
  const std::vector<RuleProgram::Site>& sites = deployment.program.sites();
  DeltaEntry entry;
  entry.site_values.resize(sites.size());
  for (size_t k = 0; k < sites.size(); ++k) {
    entry.site_values[k] = sites[k].op->target()->Evaluate(entity, schema_);
  }
  if (use_blocking) {
    entry.tokens =
        EntityBlockingKeys(entity, schema_, deployment.blocking_properties);
  }
  entry.entity = std::move(entity);
  entry.approx_bytes = ApproxDeltaEntryBytes(entry);
  return entry;
}

void LiveCorpus::KillLocked(const std::string& id) {
  const auto it = locations_.find(id);
  if (it == locations_.end()) return;
  if (it->second.where == Location::Where::kBase) {
    base_dead_[it->second.slot] = 1;
    ++tombstones_;
  } else {
    delta_dead_[it->second.slot] = 1;
  }
}

Status LiveCorpus::ApplyBatchLocked(std::span<const LiveOp> ops,
                                    const Schema& schema) {
  if (ops.empty()) return Status::Ok();

  // Phase 1 — validate and stage every op before touching any state, so
  // a bad row anywhere in the batch rejects the whole batch with
  // nothing applied. Liveness for removes is checked against the
  // current locations overlaid with the batch's own earlier ops (a
  // batch may upsert an id and remove it again).
  struct Staged {
    LiveOp::Kind kind;
    Entity entity;  // kUpsert: remapped into the corpus schema
    std::string id;
  };
  std::vector<Staged> staged;
  staged.reserve(ops.size());
  std::unordered_map<std::string, bool> staged_alive;
  const auto alive = [&](const std::string& id) {
    const auto it = staged_alive.find(id);
    if (it != staged_alive.end()) return it->second;
    return locations_.find(id) != locations_.end();
  };
  for (const LiveOp& op : ops) {
    if (op.kind == LiveOp::Kind::kUpsert) {
      auto remapped = RemapEntity(op.entity, schema);
      if (!remapped.ok()) return remapped.status();
      const std::string id = remapped->id();
      staged.push_back(
          Staged{LiveOp::Kind::kUpsert, std::move(remapped).value(), id});
      staged_alive[id] = true;
    } else {
      if (op.id.empty()) {
        return Status::InvalidArgument("delete requires a non-empty id");
      }
      if (!alive(op.id)) {
        return Status::NotFound("delete of unknown or already-removed id '" +
                                op.id + "'");
      }
      staged.push_back(Staged{LiveOp::Kind::kRemove, Entity(), op.id});
      staged_alive[op.id] = false;
    }
  }

  // Phase 2 — apply everything, then publish ONE epoch for the batch.
  for (Staged& op : staged) {
    if (op.kind == LiveOp::Kind::kUpsert) {
      const bool replaces = locations_.find(op.id) != locations_.end();
      KillLocked(op.id);
      DeltaEntry entry =
          BuildDeltaEntry(std::move(op.entity), *deployment_,
                          user_options_.use_blocking);
      delta_bytes_ += entry.approx_bytes;
      const size_t slot = delta_.Append(std::move(entry));
      delta_dead_.push_back(0);
      locations_[op.id] =
          Location{Location::Where::kDelta, static_cast<uint32_t>(slot)};
      if (!replaces) ++live_entities_;
      ++upserts_;
    } else {
      KillLocked(op.id);
      locations_.erase(op.id);
      --live_entities_;
      ++removes_;
    }
  }
  ++epoch_;
  PublishLocked();

  // Online compaction: bound the delta log (and with it per-publish
  // rebuild cost and per-query delta scans). The writer pays; readers
  // keep serving the epoch just published until the compacted one
  // lands. A mapped base cannot compact — the log just grows until the
  // caller rebuilds the artifact.
  if (live_options_.compact_delta_threshold > 0 && mapped_ == nullptr &&
      delta_.size() >= live_options_.compact_delta_threshold) {
    return CompactLocked(nullptr);
  }
  return Status::Ok();
}

Status LiveCorpus::ApplyBatch(std::span<const LiveOp> ops,
                              const Schema& schema) {
  MutexLock lock(mutex_);
  return ApplyBatchLocked(ops, schema);
}

Status LiveCorpus::Upsert(const Entity& entity, const Schema& schema) {
  LiveOp op;
  op.kind = LiveOp::Kind::kUpsert;
  op.entity = entity;
  MutexLock lock(mutex_);
  return ApplyBatchLocked(std::span<const LiveOp>(&op, 1), schema);
}

Status LiveCorpus::Remove(std::string_view id) {
  LiveOp op;
  op.kind = LiveOp::Kind::kRemove;
  op.id = std::string(id);
  MutexLock lock(mutex_);
  return ApplyBatchLocked(std::span<const LiveOp>(&op, 1), schema_);
}

Result<Dataset> LiveCorpus::MaterializeLogicalLocked() const {
  if (mapped_ != nullptr) {
    return Status::FailedPrecondition(
        "a mapped corpus artifact stores transformed value spans, not raw "
        "property values; the logical corpus cannot be rematerialized from "
        "it — rebuild from the original dataset (genlink index)");
  }
  Dataset out(base_data_->name());
  for (const std::string& name : schema_.property_names()) {
    out.schema().AddProperty(name);
  }
  // Base order, then delta order. Link results never depend on corpus
  // order (candidates are re-sorted, scores are per-pair), so any
  // stable order works; this one makes compaction reproducible.
  for (size_t i = 0; i < base_data_->size(); ++i) {
    if (base_dead_[i] != 0) continue;
    GENLINK_RETURN_IF_ERROR(out.AddEntity(base_data_->entity(i)));
  }
  for (size_t slot = 0; slot < delta_.size(); ++slot) {
    if (delta_dead_[slot] != 0) continue;
    GENLINK_RETURN_IF_ERROR(out.AddEntity(delta_.entry(slot).entity));
  }
  return out;
}

Result<Dataset> LiveCorpus::MaterializeLogical() const {
  MutexLock lock(mutex_);
  return MaterializeLogicalLocked();
}

Status LiveCorpus::CompactLocked(const std::string* artifact_path) {
  const auto start = std::chrono::steady_clock::now();
  auto logical = MaterializeLogicalLocked();
  if (!logical.ok()) return logical.status();
  // Persist BEFORE mutating any live state: a failed write (full disk,
  // io.write_error fault) must leave the previous snapshot serving and
  // the delta log intact. The atomic writer guarantees no torn file and
  // no stray temp file at the destination either way.
  if (artifact_path != nullptr) {
    GENLINK_RETURN_IF_ERROR(
        WriteCorpusArtifact(*artifact_path, *logical, deployment_->rule,
                            BaseOptions(user_options_), pool_.get()));
  }
  auto owned = std::make_shared<const Dataset>(std::move(logical).value());
  base_index_ = MatcherIndex::Build(*owned, deployment_->rule,
                                    BaseOptions(user_options_));
  base_data_ = owned;
  base_dead_.assign(owned->size(), 0);
  delta_.Reset();
  delta_dead_.clear();
  delta_bytes_ = 0;
  tombstones_ = 0;
  locations_.clear();
  for (size_t i = 0; i < owned->size(); ++i) {
    locations_[owned->entity(i).id()] =
        Location{Location::Where::kBase, static_cast<uint32_t>(i)};
  }
  ++compactions_;
  last_compact_seconds_ = Elapsed(start);
  ++epoch_;
  PublishLocked();
  return Status::Ok();
}

Status LiveCorpus::Compact() {
  MutexLock lock(mutex_);
  return CompactLocked(nullptr);
}

Status LiveCorpus::CompactTo(const std::string& artifact_path) {
  MutexLock lock(mutex_);
  return CompactLocked(&artifact_path);
}

Status LiveCorpus::DeployRule(const LinkageRule& rule,
                              const MatchOptions& options) {
  GENLINK_RETURN_IF_ERROR(ValidateConfig(rule, options));
  auto deployment = std::make_shared<const Deployment>(rule);

  MutexLock lock(mutex_);
  // Rebuild the base index first — over a mapped base this can fail
  // (artifact missing the new rule's plans), and then nothing may
  // change: the old rule keeps serving.
  auto built =
      base_index_->TryWithRule(deployment->rule, BaseOptions(options));
  if (!built.ok()) return built.status();

  MatchOptions next = options;
  next.cancel = nullptr;
  // The pool is corpus-lifetime state, as with TryWithRule itself.
  next.num_threads = user_options_.num_threads;

  // Re-evaluate the live delta entries under the new rule into a fresh
  // log (site values and blocking keys are rule-dependent). Dead
  // entries are dropped on the way — a rule swap is also a delta-log
  // garbage collection.
  DeltaLog fresh;
  std::vector<uint8_t> fresh_dead;
  size_t fresh_bytes = 0;
  for (size_t slot = 0; slot < delta_.size(); ++slot) {
    if (delta_dead_[slot] != 0) continue;
    DeltaEntry entry = BuildDeltaEntry(Entity(delta_.entry(slot).entity),
                                       *deployment, next.use_blocking);
    fresh_bytes += entry.approx_bytes;
    const size_t fresh_slot = fresh.Append(std::move(entry));
    fresh_dead.push_back(0);
    locations_[fresh.entry(fresh_slot).entity.id()] =
        Location{Location::Where::kDelta, static_cast<uint32_t>(fresh_slot)};
  }
  base_index_ = std::move(built).value();
  deployment_ = deployment;
  user_options_ = next;
  delta_ = std::move(fresh);
  delta_dead_ = std::move(fresh_dead);
  delta_bytes_ = fresh_bytes;
  ++epoch_;
  PublishLocked();
  return Status::Ok();
}

void LiveCorpus::PublishLocked() {
  auto snap = std::make_shared<Snapshot>();
  snap->epoch = epoch_;
  snap->base_data = base_data_;
  snap->base = base_index_;
  snap->base_dead = std::make_shared<const std::vector<uint8_t>>(base_dead_);
  snap->delta = delta_.MakeView();
  auto live = std::make_shared<std::vector<uint32_t>>();
  for (size_t slot = 0; slot < snap->delta.count; ++slot) {
    if (delta_dead_[slot] == 0) live->push_back(static_cast<uint32_t>(slot));
  }
  if (user_options_.use_blocking) {
    auto postings = std::make_shared<
        std::unordered_map<std::string, std::vector<uint32_t>>>();
    for (uint32_t slot : *live) {
      for (const std::string& token : snap->delta.entry(slot).tokens) {
        (*postings)[token].push_back(slot);
      }
    }
    snap->postings = std::move(postings);
  }
  snap->delta_live = std::move(live);
  snap->deployment = deployment_;
  snap->options = user_options_;
  std::atomic_store(&snapshot_, std::shared_ptr<const Snapshot>(snap));
}

std::shared_ptr<const LiveCorpus::Snapshot> LiveCorpus::snapshot() const {
  return std::atomic_load(&snapshot_);
}

uint64_t LiveCorpus::epoch() const { return snapshot()->epoch; }

std::vector<GeneratedLink> LiveCorpus::MatchOne(const Snapshot& snap,
                                                const Entity& entity,
                                                const Schema& schema,
                                                const CancelToken* cancel) const {
  // Base side: the immutable index with the snapshot's tombstone mask.
  std::vector<GeneratedLink> links = snap.base->MatchEntityMasked(
      entity, schema, snap.base_dead->data(), cancel);

  // Delta side. Query source values evaluated once per site (same bytes
  // the fresh-build query scorer would feed each comparison).
  const RuleProgram& program = snap.deployment->program;
  const std::vector<RuleProgram::Site>& sites = program.sites();
  std::vector<ValueSet> query_values(sites.size());
  std::vector<std::vector<std::string_view>> query_views(sites.size());
  for (size_t k = 0; k < sites.size(); ++k) {
    query_values[k] = sites[k].op->source()->Evaluate(entity, schema);
    query_views[k].assign(query_values[k].begin(), query_values[k].end());
  }

  // Candidates: the delta postings through the probe loop every
  // blocking index shares (matcher/blocking.h), or every live entry
  // when blocking is off. Ascending either way, so enumeration order
  // can never reach the output.
  const std::vector<size_t> candidates =
      snap.postings != nullptr
          ? ProbeCandidates(
                entity, schema, snap.delta.count,
                [&](const std::string& token) -> std::span<const uint32_t> {
                  const auto it = snap.postings->find(token);
                  if (it == snap.postings->end()) return {};
                  return it->second;
                })
          : std::vector<size_t>(snap.delta_live->begin(),
                                snap.delta_live->end());

  size_t scanned = 0;
  for (size_t slot : candidates) {
    if (cancel != nullptr && (++scanned & 63) == 0 && cancel->Cancelled()) {
      break;
    }
    const DeltaEntry& entry = snap.delta.entry(slot);
    // Serving-only semantics, as on the base side: a record is never
    // its own duplicate.
    if (entry.entity.id() == entity.id()) continue;
    // The target side reads the entry's pre-evaluated site values
    // instead of interned store spans, with the base scorer's empty-side
    // convention: a set measure gets both value sets as they are (its
    // reference Distance counts the same integers TokenIdDistance
    // does), a per-value measure the same views in the same order with
    // the threshold as bound — so delta scores are bit-identical to a
    // fresh build's for the same pair.
    const double score = Score(program, [&](size_t site, double threshold) {
      const ValueSet& target = entry.site_values[site];
      if (query_values[site].empty() || target.empty()) {
        return kInfiniteDistance;
      }
      const DistanceMeasure& measure = *sites[site].op->measure();
      if (measure.IsSetMeasure()) {
        return measure.Distance(query_values[site], target);
      }
      thread_local std::vector<std::string_view> target_views;
      target_views.assign(target.begin(), target.end());
      return measure.DistanceViews(
          query_views[site], std::span<const std::string_view>(target_views),
          threshold);
    });
    if (score >= snap.options.threshold) {
      links.push_back({entity.id(), entry.entity.id(), score});
    }
  }

  // Merge under the one documented order — score descending, id_b
  // ascending (a strict total order here: every live id occurs exactly
  // once across base and delta) — then best-match reduce, exactly as a
  // fresh build over the logical corpus would.
  std::sort(links.begin(), links.end(), [](const auto& x, const auto& y) {
    if (x.score != y.score) return x.score > y.score;
    return x.id_b < y.id_b;
  });
  if (snap.options.best_match_only && links.size() > 1) links.resize(1);
  return links;
}

std::vector<GeneratedLink> LiveCorpus::MatchEntity(const Entity& entity,
                                                   const Schema& schema) const {
  const auto snap = snapshot();
  return MatchOne(*snap, entity, schema, nullptr);
}

std::vector<GeneratedLink> LiveCorpus::MatchEntity(const Entity& entity) const {
  return MatchEntity(entity, schema_);
}

std::vector<GeneratedLink> LiveCorpus::MatchBatch(
    std::span<const Entity> entities, const Schema& schema,
    const CancelToken* cancel) const {
  // One snapshot for the whole batch: every entity scores against the
  // same epoch no matter how writers race the call.
  const auto snap = snapshot();
  const size_t n = entities.size();
  std::vector<std::vector<GeneratedLink>> per_entity(n);
  pool_->ParallelFor(n, [&](size_t i) {
    if (cancel != nullptr && cancel->Cancelled()) return;
    per_entity[i] = MatchOne(*snap, entities[i], schema, cancel);
  });
  std::vector<GeneratedLink> links;
  for (auto& list : per_entity) {
    links.insert(links.end(), std::make_move_iterator(list.begin()),
                 std::make_move_iterator(list.end()));
  }
  return links;
}

LiveCorpusStats LiveCorpus::stats() const {
  MutexLock lock(mutex_);
  LiveCorpusStats out;
  out.epoch = epoch_;
  out.base_entities = base_dead_.size();
  out.live_entities = live_entities_;
  out.delta_log_entries = delta_.size();
  size_t dead = 0;
  for (uint8_t flag : delta_dead_) dead += flag != 0 ? 1 : 0;
  out.delta_entities = delta_.size() - dead;
  out.tombstones = tombstones_;
  out.delta_store_bytes = delta_bytes_;
  out.upserts = upserts_;
  out.removes = removes_;
  out.compactions = compactions_;
  out.last_compact_seconds = last_compact_seconds_;
  return out;
}

}  // namespace genlink

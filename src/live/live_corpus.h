// Streaming corpora: mutable serving layered over the immutable
// MatcherIndex (ROADMAP item 1).
//
// The corpus a MatcherIndex serves is frozen at Build; any entity
// change used to mean a full reparse + rebuild. LiveCorpus makes the
// corpus mutable without giving up the immutable index underneath:
//
//   base  — an ordinary MatcherIndex over the last compacted corpus
//           (dataset-backed, or a zero-copy mapped v2 artifact);
//   delta — an append-only log of upserted entities (live/delta_store.h),
//           each pre-evaluated for the deployed rule and indexed in
//           delta blocking postings;
//   tombstones — a per-slot dead mask over the base corpus (removed or
//           superseded entities) plus dead marks on overwritten delta
//           entries.
//
// Every mutation publishes a new immutable, epoch-stamped Snapshot via
// std::atomic_store on a shared_ptr — the exact discipline ServingState
// uses for rule generations — so queries run against a consistent
// `base ⊎ delta − tombstones` view with ZERO reader locking: readers
// load the snapshot pointer and never touch the writer mutex. Writers
// (Upsert/Remove/ApplyBatch/Compact/DeployRule) and stats() serialize
// on one Mutex.
//
// Correctness gate (tests/live_corpus_test.cc): after ANY interleaving
// of upserts, removes and compactions, MatchEntity/MatchBatch answer
// bit-identically — same ids, same doubles, same order — to a fresh
// MatcherIndex::Build over the logical corpus, at any thread count.
// Two ingredients make that hold:
//
//   * per-pair scores are corpus-independent: a delta entity's set-
//     measure sites are scored by the measure's reference Distance over
//     the same value multisets (the same integers the base scorer's
//     TokenIdDistance counts), its per-value sites by the same
//     DistanceViews walk the base scorer uses, in the same evaluation
//     order;
//   * candidate sets are corpus-independent ONLY for the df-independent
//     blocking configuration (index every token: blocking_max_tokens
//     == 0, blocking_min_token_df <= 1). Weighted key selection ranks
//     tokens by corpus-wide document frequency, which shifts with every
//     mutation, so Create/DeployRule refuse those knobs with a named
//     error rather than serving near-identical links.
//
// Compaction rewrites base ⊎ delta − tombstones into a fresh owned
// corpus (and optionally a v2 corpus artifact via the crash-safe
// AtomicFileWriter path) while the previous snapshot keeps serving;
// the new base index is built off to the side and published as the
// next epoch. An interrupted artifact write (io.write_error failpoint)
// leaves the previous snapshot serving and no temp files behind.
//
// docs/STREAMING.md covers the snapshot lifecycle, epoch semantics,
// compaction policy and failure modes; docs/ARCHITECTURE.md walks the
// lifetime of an upsert end to end.

#ifndef GENLINK_LIVE_LIVE_CORPUS_H_
#define GENLINK_LIVE_LIVE_CORPUS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "api/matcher_index.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "live/delta_store.h"
#include "matcher/matcher.h"
#include "model/dataset.h"
#include "rule/linkage_rule.h"

namespace genlink {

class MappedCorpus;
class ThreadPool;

/// Policy knobs of the live layer.
struct LiveCorpusOptions {
  /// Online compaction trigger: when > 0, a mutation that leaves the
  /// delta log holding at least this many entries (live or superseded)
  /// runs Compact() before returning — the writer pays the rebuild,
  /// readers keep serving the previous snapshot throughout. 0 =
  /// compaction is manual (Compact/CompactTo only). Ignored over a
  /// mapped-corpus base, which cannot compact (see Compact).
  size_t compact_delta_threshold = 0;
};

/// Counters of one live corpus, exposed on /varz by the serve daemon.
struct LiveCorpusStats {
  /// Snapshot publications so far (0 = the initial build).
  uint64_t epoch = 0;
  /// Slots in the current base corpus (live and tombstoned).
  size_t base_entities = 0;
  /// Entities in the logical corpus (base ⊎ delta − tombstones).
  size_t live_entities = 0;
  /// Live entries in the delta log.
  size_t delta_entities = 0;
  /// All delta log entries, including superseded/removed ones — what
  /// the auto-compaction threshold compares against.
  size_t delta_log_entries = 0;
  /// Dead base slots (removed or superseded by an upsert).
  size_t tombstones = 0;
  /// Approximate heap bytes held by the delta log.
  size_t delta_store_bytes = 0;
  uint64_t upserts = 0;
  uint64_t removes = 0;
  uint64_t compactions = 0;
  double last_compact_seconds = 0.0;
};

/// One mutation of an ApplyBatch (the `genlink apply` delta-CSV row and
/// the POST /upsert / POST /delete body shape).
struct LiveOp {
  enum class Kind { kUpsert, kRemove };
  Kind kind = Kind::kUpsert;
  /// kUpsert: the new record, with values under the schema passed to
  /// ApplyBatch (remapped to the corpus schema by property name).
  Entity entity;
  /// kRemove: the id to tombstone.
  std::string id;
};

/// A mutable, epoch-snapshotted serving corpus. Thread-safe: any number
/// of query threads may call MatchEntity/MatchBatch while one writer
/// mutates; queries never block on writers (they read the published
/// snapshot), writers serialize among themselves.
class LiveCorpus {
 public:
  /// Builds the live layer over a copy of `base` (the corpus owns its
  /// data so compaction can rewrite it) and deploys `rule`. Fails with
  /// a named error on an empty rule or a df-dependent blocking
  /// configuration (file comment). `options.best_match_only` and
  /// `options.threshold` apply to the merged base+delta links exactly
  /// as a fresh Build would apply them.
  static Result<std::unique_ptr<LiveCorpus>> Create(
      const Dataset& base, const LinkageRule& rule,
      const MatchOptions& options = {},
      const LiveCorpusOptions& live_options = {});

  /// Live layer over a zero-copy mapped v2 corpus artifact: upserts and
  /// removes work (the delta side evaluates its own values), queries
  /// stay bit-identical, but Compact/CompactTo fail — the artifact
  /// stores transformed value spans, not raw property values, so the
  /// logical corpus cannot be rematerialized from it. The artifact's
  /// own blocking knobs are served (api/matcher_index.h mapped Build
  /// contract), so a weighted artifact is a named InvalidArgument even
  /// when `options` asks for the default knobs.
  static Result<std::unique_ptr<LiveCorpus>> Create(
      std::shared_ptr<const MappedCorpus> base, const LinkageRule& rule,
      const MatchOptions& options = {},
      const LiveCorpusOptions& live_options = {});

  ~LiveCorpus();
  LiveCorpus(const LiveCorpus&) = delete;
  LiveCorpus& operator=(const LiveCorpus&) = delete;

  /// Inserts or replaces the entity with `entity.id()`. Values are
  /// remapped from `schema` to the corpus schema by property name; a
  /// non-empty property the corpus schema lacks is a named error (and
  /// nothing is applied). Publishes one new epoch.
  Status Upsert(const Entity& entity, const Schema& schema);

  /// Tombstones the entity with `id`. NotFound when no live entity
  /// carries it (removing twice is an error; upserting again after a
  /// remove is not). Publishes one new epoch.
  Status Remove(std::string_view id);

  /// Applies `ops` in order and publishes ONE new epoch for the whole
  /// batch — the bulk-ingest shape. Validation runs first over the
  /// entire batch (schema remaps, remove-of-live-id checked against
  /// the batch's own earlier ops); any invalid op rejects the batch
  /// with nothing applied.
  Status ApplyBatch(std::span<const LiveOp> ops, const Schema& schema);

  /// Rewrites base ⊎ delta − tombstones into a fresh owned corpus and
  /// builds a new base index over it while the previous snapshot keeps
  /// serving; the delta log and tombstone set reset to empty in the
  /// published epoch. FailedPrecondition over a mapped-corpus base.
  Status Compact();

  /// Compact, additionally persisting the compacted corpus as a v2
  /// artifact at `artifact_path` (crash-safe: same-dir temp + fsync +
  /// rename via io/atomic_write.h). On a write failure the previous
  /// snapshot keeps serving, no live state changes, and no temp file
  /// survives (tests/live_corpus_test.cc arms io.write_error at every
  /// write site).
  Status CompactTo(const std::string& artifact_path);

  /// Hot-swaps the deployed rule (the serve /reload shape): rebuilds
  /// the base index via TryWithRule against the shared corpus stores
  /// and re-evaluates every live delta entry under the new rule, then
  /// publishes one new epoch. On failure (e.g. a mapped artifact
  /// missing the new rule's plans) the previous rule keeps serving
  /// untouched. num_threads stays pinned to its Create-time value, as
  /// with MatcherIndex::TryWithRule.
  Status DeployRule(const LinkageRule& rule, const MatchOptions& options);

  /// Scores one query entity against the logical corpus: links
  /// reaching the threshold, sorted by descending score then ascending
  /// id_b, best-match reduced when configured — bit-identical to
  /// MatcherIndex::MatchEntity on a fresh serving-only Build of the
  /// logical corpus. Lock-free with respect to writers.
  std::vector<GeneratedLink> MatchEntity(const Entity& entity,
                                         const Schema& schema) const;

  /// MatchEntity with the corpus schema.
  std::vector<GeneratedLink> MatchEntity(const Entity& entity) const;

  /// MatchEntity for every entity, scored in parallel on the live
  /// layer's pool; the concatenation of per-entity link lists in input
  /// order. Every entity of one batch is scored against the SAME
  /// snapshot — a concurrent mutation becomes visible only to later
  /// calls. `cancel` follows the MatcherIndex::MatchBatch contract
  /// (truncated results when fired).
  std::vector<GeneratedLink> MatchBatch(std::span<const Entity> entities,
                                        const Schema& schema,
                                        const CancelToken* cancel = nullptr) const;

  /// The logical corpus as a Dataset (base order, then delta order —
  /// link results never depend on corpus order). FailedPrecondition
  /// over a mapped-corpus base. Used by verification paths
  /// (`genlink apply --verify`, tests).
  Result<Dataset> MaterializeLogical() const;

  /// The corpus schema upserts are remapped into.
  const Schema& schema() const { return schema_; }

  /// The epoch of the currently published snapshot.
  uint64_t epoch() const;

  LiveCorpusStats stats() const;

 private:
  struct Deployment;
  struct Snapshot;

  /// Where the live entity with some id currently lives. Dead ids are
  /// simply absent from locations_ (a re-upsert after a remove starts
  /// fresh in the delta log).
  struct Location {
    enum class Where : uint8_t { kBase, kDelta };
    Where where = Where::kBase;
    uint32_t slot = 0;
  };

  LiveCorpus();

  static Result<std::unique_ptr<LiveCorpus>> CreateImpl(
      const Dataset* base, std::shared_ptr<const MappedCorpus> mapped,
      const LinkageRule& rule, const MatchOptions& options,
      const LiveCorpusOptions& live_options);

  /// Rejects rules/options the live layer cannot serve bit-identically
  /// (empty rule, df-dependent blocking).
  static Status ValidateConfig(const LinkageRule& rule,
                               const MatchOptions& options);

  /// `options` with best_match_only stripped (applied after the merge)
  /// and cancellation cleared — what the base index is built with.
  static MatchOptions BaseOptions(const MatchOptions& options);

  /// Remaps `entity`'s values into the corpus schema by property name.
  Result<Entity> RemapEntity(const Entity& entity, const Schema& schema) const;

  /// Evaluates `entity` (already under the corpus schema) for the
  /// deployed program's comparison sites and blocking keys.
  DeltaEntry BuildDeltaEntry(Entity entity, const Deployment& deployment,
                             bool use_blocking) const;

  Status ApplyBatchLocked(std::span<const LiveOp> ops, const Schema& schema)
      GENLINK_REQUIRES(mutex_);
  Result<Dataset> MaterializeLogicalLocked() const GENLINK_REQUIRES(mutex_);
  /// Marks the live entity `id` dead (base tombstone or delta dead
  /// mark). The caller already verified it is live.
  void KillLocked(const std::string& id) GENLINK_REQUIRES(mutex_);
  Status CompactLocked(const std::string* artifact_path)
      GENLINK_REQUIRES(mutex_);
  /// Builds and atomically publishes the next snapshot from the master
  /// state (the only place snapshot_ is written).
  void PublishLocked() GENLINK_REQUIRES(mutex_);

  std::shared_ptr<const Snapshot> snapshot() const;
  std::vector<GeneratedLink> MatchOne(const Snapshot& snap,
                                      const Entity& entity,
                                      const Schema& schema,
                                      const CancelToken* cancel) const;

  /// Set once by CreateImpl, immutable afterwards.
  std::shared_ptr<const MappedCorpus> mapped_;
  LiveCorpusOptions live_options_;
  Schema schema_;
  std::unique_ptr<ThreadPool> pool_;

  /// Guards the master state below: mutations and stats() hold it.
  /// Query paths never touch it — they read the published snapshot.
  mutable Mutex mutex_;
  MatchOptions user_options_ GENLINK_GUARDED_BY(mutex_);
  std::shared_ptr<const Deployment> deployment_ GENLINK_GUARDED_BY(mutex_);
  /// Owned base corpus (null over a mapped base). Snapshots share it.
  std::shared_ptr<const Dataset> base_data_ GENLINK_GUARDED_BY(mutex_);
  std::shared_ptr<const MatcherIndex> base_index_ GENLINK_GUARDED_BY(mutex_);
  /// base_dead_[slot] != 0 — removed or superseded by a delta entry.
  std::vector<uint8_t> base_dead_ GENLINK_GUARDED_BY(mutex_);
  DeltaLog delta_ GENLINK_GUARDED_BY(mutex_);
  /// delta_dead_[slot] != 0 — superseded by a later upsert or removed.
  std::vector<uint8_t> delta_dead_ GENLINK_GUARDED_BY(mutex_);
  /// id -> current location (base slot / delta slot / dead).
  std::unordered_map<std::string, Location> locations_
      GENLINK_GUARDED_BY(mutex_);
  uint64_t epoch_ GENLINK_GUARDED_BY(mutex_) = 0;
  size_t live_entities_ GENLINK_GUARDED_BY(mutex_) = 0;
  size_t tombstones_ GENLINK_GUARDED_BY(mutex_) = 0;
  size_t delta_bytes_ GENLINK_GUARDED_BY(mutex_) = 0;
  uint64_t upserts_ GENLINK_GUARDED_BY(mutex_) = 0;
  uint64_t removes_ GENLINK_GUARDED_BY(mutex_) = 0;
  uint64_t compactions_ GENLINK_GUARDED_BY(mutex_) = 0;
  double last_compact_seconds_ GENLINK_GUARDED_BY(mutex_) = 0.0;

  /// Published with std::atomic_store by PublishLocked; read anywhere
  /// with std::atomic_load. Never null after CreateImpl.
  std::shared_ptr<const Snapshot> snapshot_;
};

}  // namespace genlink

#endif  // GENLINK_LIVE_LIVE_CORPUS_H_

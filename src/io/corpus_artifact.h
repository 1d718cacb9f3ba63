// Corpus artifact v2: the precomputed serving corpus as one flat,
// versioned, mmap-able binary file — string pool, per-entity value
// spans, sorted token-id spans + counts, and token-blocking postings,
// all offset-based and 8-byte-aligned — so a serving process
// cold-starts in milliseconds (`genlink serve --index`) instead of
// re-parsing CSV, re-running transform plans and re-interning strings,
// and N processes mapping the same artifact share one page-cache copy.
//
// Layout (all integers little-endian, fixed-width; every section
// starts at an 8-byte-aligned offset, zero-padded in between):
//
//   CorpusArtifactHeader        magic "GLCORP2\n", version, checksum,
//                               counts, blocking knobs, and an
//                               (offset, bytes) table with one entry
//                               per section below
//   StringOffsets  u64[S+1]     string id -> byte range in the blob
//   StringBlob     bytes        pooled string bytes, back to back
//   EntityIds      u32[N]       entity index -> string id of its id
//   SchemaProps    u32[P]       property names, schema order
//   BlockingProps  u32[BP]      indexed property names, sorted
//   PlanDirectory  {u64 hash, u64 values_begin, u64 sorted_begin}[PL]
//   PlanOffsets    u32[PL*(N+1)] per-plan, per-entity value offsets
//   PlanValues     u32[..]      value string ids, all plans back to back
//   PlanSortedOffs u32[PL*(N+1)] per-plan, per-entity sorted offsets
//   PlanSortedIds  u32[..]      strictly-increasing distinct value ids
//   PlanSortedCnts u32[..]      multiplicities, parallel to SortedIds
//   TokenIds       u32[T]       blocking tokens as string ids, sorted
//                               by token bytes (binary-searched at
//                               query time)
//   PostingOffsets u64[T+1]     token -> range in Postings
//   Postings       u32[..]      entity indexes, ascending per token
//
// The plan directory keys each plan by the hash that keys it in the
// value store (rule/rule_hash.h ValueOperatorHash, name-based and so
// equal in every process that parses the same rule), so a loaded
// corpus can serve any rule whose target-side value subtrees were
// precomputed — MatcherIndex resolves plans via ValueReader::FindPlan
// and fails with a named error (re-run `genlink index`) on a miss.
// Value ids, spans and interning order are exactly those of the value
// store a fresh MatcherIndex::Build compiles, which is what makes
// mapped query results bit-identical to a fresh build.
//
// Versioning: the magic pins the family, `version` the layout; readers
// reject any version they do not know (and name a byte-swapped
// version, which means a different-endian writer). New fields must
// bump the version; the header's section table means readers never
// infer offsets.
//
// Safety: Load() validates everything before handing out a view —
// magic/version/size, per-section alignment and bounds, a whole-file
// checksum (optional to skip), string-offset monotonicity, id ranges,
// plan-offset monotonicity, token ordering and posting bounds. Any
// violation (truncation at any byte, a flipped bit, a v1 text
// artifact) degrades to a named Status; mapped data is never
// dereferenced out of bounds. Writes go through io/atomic_write.h, so
// a crashed `genlink index` never leaves a torn file at the live path.

#ifndef GENLINK_IO_CORPUS_ARTIFACT_H_
#define GENLINK_IO_CORPUS_ARTIFACT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "eval/value_store.h"
#include "io/mmap_file.h"
#include "matcher/blocking.h"
#include "matcher/matcher.h"
#include "model/dataset.h"
#include "rule/linkage_rule.h"

namespace genlink {

class ThreadPool;

/// Size counters reported by WriteCorpusArtifact.
struct CorpusArtifactStats {
  uint64_t file_bytes = 0;
  uint64_t num_entities = 0;
  uint64_t num_strings = 0;
  uint64_t num_plans = 0;
  uint64_t num_tokens = 0;
  uint64_t num_postings = 0;
};

/// Precomputes `target` for serving under `rule` and writes the v2
/// artifact to `path` (crash-safe): compiles the rule's target-side
/// value plans into a serving-shape value store, builds the blocking
/// postings for the rule's target properties under the options'
/// blocking knobs (skipped when options.use_blocking is false), and
/// serializes both. Fails on an empty rule (there is no value plan to
/// persist). `pool` parallelizes plan evaluation.
Status WriteCorpusArtifact(const std::string& path, const Dataset& target,
                           const LinkageRule& rule, const MatchOptions& options,
                           ThreadPool* pool = nullptr,
                           CorpusArtifactStats* stats = nullptr);

struct MappedCorpusOptions {
  /// Verify the payload checksum at load (one pass over the file).
  /// Disable only for trusted artifacts where cold start must not
  /// touch every page; structural validation always runs.
  bool verify_checksum = true;
};

class MappedBlockingIndex;

/// A zero-copy view of a v2 corpus artifact: implements the value-store
/// read interface (ValueReader: the artifact is a compiled target side)
/// and exposes the mapped blocking postings as a BlockingIndex. Immutable and safe for concurrent
/// reads; all spans point into the mapping and live as long as the
/// corpus. Create via Load().
class MappedCorpus final : public ValueReader {
 public:
  /// Maps and validates `path`. Every failure — unreadable file,
  /// truncation, checksum mismatch, version from the future, a v1 text
  /// artifact — is a named ParseError/IoError, never UB.
  static Result<std::shared_ptr<const MappedCorpus>> Load(
      const std::string& path, const MappedCorpusOptions& options = {});

  ~MappedCorpus() override;

  // ValueReader.
  std::span<const ValueId> Values(PlanId plan,
                                  size_t entity_index) const override {
    const uint32_t* offsets = plan_offsets_ + plan * (num_entities_ + 1);
    return {plan_values_ + plans_[plan].values_begin + offsets[entity_index],
            offsets[entity_index + 1] - offsets[entity_index]};
  }
  std::span<const ValueId> SortedIds(PlanId plan,
                                     size_t entity_index) const override {
    const uint32_t* offsets = plan_sorted_offsets_ + plan * (num_entities_ + 1);
    return {plan_sorted_ids_ + plans_[plan].sorted_begin + offsets[entity_index],
            offsets[entity_index + 1] - offsets[entity_index]};
  }
  std::span<const uint32_t> SortedCounts(PlanId plan,
                                         size_t entity_index) const override {
    const uint32_t* offsets = plan_sorted_offsets_ + plan * (num_entities_ + 1);
    return {
        plan_sorted_counts_ + plans_[plan].sorted_begin + offsets[entity_index],
        offsets[entity_index + 1] - offsets[entity_index]};
  }
  std::string_view View(ValueId id) const override {
    return std::string_view(string_blob_ + string_offsets_[id],
                            string_offsets_[id + 1] - string_offsets_[id]);
  }
  size_t num_entities() const override { return num_entities_; }
  std::optional<PlanId> FindPlan(uint64_t hash) const override;

  /// Entities in the corpus.
  size_t size() const { return num_entities_; }
  /// The id string of entity `index`.
  std::string_view entity_id(size_t index) const {
    return View(entity_ids_[index]);
  }
  /// The corpus schema (property names), materialized at load.
  const Schema& schema() const { return schema_; }

  /// True when the artifact carries blocking postings.
  bool has_blocking() const { return blocking_ != nullptr; }
  /// The mapped postings as a BlockingIndex; null when !has_blocking().
  const BlockingIndex* blocking() const;
  /// The (sorted) property names the postings index, and the key
  /// -selection knobs they were built with. MatcherIndex refuses other
  /// properties and adopts these knobs as the ones it serves.
  const std::vector<std::string>& blocking_properties() const {
    return blocking_properties_;
  }
  size_t blocking_max_tokens() const { return blocking_max_tokens_; }
  size_t blocking_min_token_df() const { return blocking_min_token_df_; }

  /// CanonicalRuleHash of the rule the artifact was indexed for
  /// (provenance; serving any rule whose plans are present is allowed).
  uint64_t rule_hash() const { return rule_hash_; }
  size_t num_plans() const { return num_plans_; }
  size_t file_bytes() const { return file_.size(); }
  const std::string& path() const { return file_.path(); }

 private:
  friend class MappedBlockingIndex;
  /// One plan directory entry as laid out in the file.
  struct PlanDir {
    uint64_t hash;
    uint64_t values_begin;
    uint64_t sorted_begin;
  };

  MappedCorpus() = default;

  MappedFile file_;
  const uint64_t* string_offsets_ = nullptr;
  const char* string_blob_ = nullptr;
  const uint32_t* entity_ids_ = nullptr;
  const PlanDir* plans_ = nullptr;
  const uint32_t* plan_offsets_ = nullptr;         // num_plans_ * (N + 1)
  const uint32_t* plan_values_ = nullptr;
  const uint32_t* plan_sorted_offsets_ = nullptr;  // num_plans_ * (N + 1)
  const uint32_t* plan_sorted_ids_ = nullptr;
  const uint32_t* plan_sorted_counts_ = nullptr;
  const uint32_t* token_ids_ = nullptr;
  const uint64_t* posting_offsets_ = nullptr;
  const uint32_t* postings_ = nullptr;

  uint64_t num_entities_ = 0;
  uint64_t num_strings_ = 0;
  uint64_t num_plans_ = 0;
  uint64_t num_tokens_ = 0;
  uint64_t num_postings_ = 0;
  uint64_t blocking_max_tokens_ = 0;
  uint64_t blocking_min_token_df_ = 1;
  uint64_t rule_hash_ = 0;

  Schema schema_;
  std::vector<std::string> blocking_properties_;
  std::unique_ptr<MappedBlockingIndex> blocking_;
};

}  // namespace genlink

#endif  // GENLINK_IO_CORPUS_ARTIFACT_H_

#include "io/corpus_artifact.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <deque>
#include <map>
#include <type_traits>
#include <unordered_map>

#include "common/hash.h"
#include "io/atomic_write.h"
#include "rule/rule_hash.h"
#include "rule/rule_program.h"

namespace genlink {
namespace {

// The layout is defined in little-endian terms; the zero-copy reader
// would need byte-swapping shims on a big-endian host.
static_assert(std::endian::native == std::endian::little,
              "corpus artifact v2 assumes a little-endian host");

constexpr char kMagic[8] = {'G', 'L', 'C', 'O', 'R', 'P', '2', '\n'};
constexpr uint32_t kVersion = 2;
constexpr uint64_t kFlagHasBlocking = 1;
/// The v1 rule-artifact magic (io/artifact.cc), special-cased for a
/// precise error when someone points --index at a rule file.
constexpr std::string_view kV1TextMagic = "genlink-artifact";

/// Section order in the file; the header stores (offset, bytes) per
/// entry so readers never infer offsets.
enum Section : size_t {
  kStringOffsets = 0,
  kStringBlob,
  kEntityIds,
  kSchemaProps,
  kBlockingProps,
  kPlanDirectory,
  kPlanOffsets,
  kPlanValues,
  kPlanSortedOffsets,
  kPlanSortedIds,
  kPlanSortedCounts,
  kTokenIds,
  kPostingOffsets,
  kPostings,
  kNumSections,
};

struct Header {
  char magic[8];
  uint32_t version;
  uint32_t header_bytes;
  uint64_t file_bytes;
  /// StreamingHash64 over the WHOLE file — this header first with this
  /// field zeroed, then bytes [header_bytes, file_bytes) — so header
  /// corruption is detected too, not only payload corruption.
  uint64_t payload_hash;
  uint64_t flags;
  uint64_t num_entities;
  uint64_t num_strings;
  uint64_t num_plans;
  uint64_t num_properties;
  uint64_t num_blocking_properties;
  uint64_t num_tokens;
  uint64_t num_postings;
  uint64_t blocking_max_tokens;
  uint64_t blocking_min_token_df;
  uint64_t blocking_shards;
  uint64_t rule_hash;
  uint64_t section_offset[kNumSections];
  uint64_t section_bytes[kNumSections];
};
static_assert(std::is_trivially_copyable_v<Header>);
static_assert(sizeof(Header) % 8 == 0);

/// One plan directory entry as laid out in the file (matches
/// MappedCorpus::PlanDir).
struct PlanDirEntry {
  uint64_t hash;
  uint64_t values_begin;
  uint64_t sorted_begin;
};
static_assert(sizeof(PlanDirEntry) == 24);

/// Order-sensitive streaming checksum: 8 input bytes per HashCombine
/// step (common/hash.h), with the total length folded in at the end so
/// trailing zeros cannot be appended for free. Not cryptographic —
/// this detects truncation, bit rot and torn writes, not adversaries.
class StreamingHash64 {
 public:
  void Update(std::string_view bytes) {
    const char* p = bytes.data();
    size_t left = bytes.size();
    total_ += left;
    // Top up a partial word first.
    while (fill_ > 0 && fill_ < 8 && left > 0) {
      word_ |= static_cast<uint64_t>(static_cast<unsigned char>(*p++))
               << (8 * fill_++);
      --left;
    }
    if (fill_ == 8) {
      hash_ = HashCombine(hash_, word_);
      word_ = 0;
      fill_ = 0;
    }
    while (left >= 8) {
      uint64_t w;
      std::memcpy(&w, p, 8);
      hash_ = HashCombine(hash_, w);
      p += 8;
      left -= 8;
    }
    while (left > 0) {
      word_ |= static_cast<uint64_t>(static_cast<unsigned char>(*p++))
               << (8 * fill_++);
      --left;
    }
  }

  uint64_t Finish() const {
    uint64_t h = hash_;
    if (fill_ > 0) h = HashCombine(h, word_);
    return HashCombine(h, total_);
  }

 private:
  uint64_t hash_ = 0x9e3779b97f4a7c15ull;  // arbitrary non-zero seed
  uint64_t word_ = 0;
  size_t fill_ = 0;
  uint64_t total_ = 0;
};

template <typename T>
std::string_view PodView(const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  return std::string_view(reinterpret_cast<const char*>(v.data()),
                          v.size() * sizeof(T));
}

uint64_t AlignUp8(uint64_t offset) { return (offset + 7) & ~uint64_t{7}; }

/// Inter-section zero padding (at most 7 bytes per section).
constexpr char kZeros[8] = {0};

std::string InPath(const std::string& path) { return "'" + path + "'"; }

}  // namespace

// --------------------------------------------------- MappedBlockingIndex

/// The mapped postings behind the BlockingIndex interface: candidate
/// sets are bit-identical to a TokenBlockingIndex built over the same
/// corpus with the same options — probing replaces the hash-map lookup
/// with a binary search in the byte-sorted token table, which changes
/// nothing observable because Candidates() output is sorted.
class MappedBlockingIndex final : public BlockingIndex {
 public:
  explicit MappedBlockingIndex(const MappedCorpus* corpus) : corpus_(corpus) {}

  std::vector<size_t> Candidates(const Entity& entity,
                                 const Schema& schema) const override {
    return ProbeCandidates(
        entity, schema, corpus_->num_entities_,
        [&](const std::string& token) -> std::span<const uint32_t> {
          const auto t = FindToken(token);
          if (!t.has_value()) return {};
          const uint64_t begin = corpus_->posting_offsets_[*t];
          const uint64_t end = corpus_->posting_offsets_[*t + 1];
          return {corpus_->postings_ + begin, end - begin};
        });
  }

  size_t NumTokens() const override { return corpus_->num_tokens_; }
  size_t NumPostings() const override { return corpus_->num_postings_; }

 private:
  std::string_view TokenView(size_t t) const {
    return corpus_->View(corpus_->token_ids_[t]);
  }

  /// Binary search in the byte-sorted token table.
  std::optional<size_t> FindToken(std::string_view token) const {
    size_t lo = 0, hi = corpus_->num_tokens_;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (TokenView(mid) < token) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == corpus_->num_tokens_ || TokenView(lo) != token) {
      return std::nullopt;
    }
    return lo;
  }

  const MappedCorpus* corpus_;
};

// --------------------------------------------------------------- Writer

Status WriteCorpusArtifact(const std::string& path, const Dataset& target,
                           const LinkageRule& rule, const MatchOptions& options,
                           ThreadPool* pool, CorpusArtifactStats* stats) {
  if (rule.empty()) {
    return Status::InvalidArgument(
        "corpus artifact: cannot index an empty rule (no value plans)");
  }

  // Serving-shape value store, exactly as MatcherIndex::Build
  // constructs it: the target side only, its plans registered in
  // program site order. This fixes every ValueId and every interning
  // order to those of a fresh build — the root of the bit-identity
  // guarantee.
  ValueStore store(target);
  const RuleProgram program(rule);
  std::vector<const ValueOperator*> target_ops;
  for (const RuleProgram::Site& site : program.sites()) {
    target_ops.push_back(site.op->target());
  }
  std::vector<PlanId> target_plans(target_ops.size());
  store.CompileBatch(ValueStore::Side::kTarget, target_ops, target_plans, pool);

  const uint64_t n = target.size();
  const uint64_t num_plans = store.NumPlans(ValueStore::Side::kTarget);

  // Plan directory hashes: the ValueOperatorHash that keys each plan
  // in the store, which a later `--index` consumer recomputes from a
  // freshly parsed rule.
  std::vector<uint64_t> plan_hash(num_plans, 0);
  for (size_t k = 0; k < target_ops.size(); ++k) {
    plan_hash[target_plans[k]] = ValueOperatorHash(*target_ops[k]);
  }

  // String table: the store pool verbatim (ids [0, NumStrings()) must
  // keep their meaning for the plan arrays), then every string the
  // artifact needs beyond it — entity ids, property names, blocking
  // tokens — deduplicated against the pool and each other.
  std::vector<std::string_view> strings;
  strings.reserve(store.NumStrings());
  std::unordered_map<std::string_view, uint32_t> id_by_string;
  id_by_string.reserve(store.NumStrings());
  for (size_t id = 0; id < store.NumStrings(); ++id) {
    strings.push_back(store.View(static_cast<ValueId>(id)));
    id_by_string.emplace(strings.back(), static_cast<uint32_t>(id));
  }
  std::deque<std::string> extra_storage;  // stable addresses for the views
  auto intern = [&](std::string_view s) -> uint32_t {
    const auto it = id_by_string.find(s);
    if (it != id_by_string.end()) return it->second;
    extra_storage.emplace_back(s);
    const uint32_t id = static_cast<uint32_t>(strings.size());
    strings.push_back(extra_storage.back());
    id_by_string.emplace(extra_storage.back(), id);
    return id;
  };

  std::vector<uint32_t> entity_ids(n);
  for (uint64_t i = 0; i < n; ++i) {
    entity_ids[i] = intern(target.entity(i).id());
  }
  std::vector<uint32_t> schema_props;
  schema_props.reserve(target.schema().NumProperties());
  for (const std::string& name : target.schema().property_names()) {
    schema_props.push_back(intern(name));
  }

  // Blocking postings for the rule's (sorted) target properties under
  // the options' knobs — the same keys TokenBlockingIndex builds from.
  // The byte-ordered map fixes the token table order the mapped index
  // binary-searches.
  const bool has_blocking = options.use_blocking;
  std::vector<std::string> blocking_properties;
  std::vector<uint32_t> blocking_prop_ids;
  std::vector<uint32_t> token_ids;
  std::vector<uint64_t> posting_offsets;
  std::vector<uint32_t> postings;
  if (has_blocking) {
    blocking_properties = TargetProperties(rule);
    for (const std::string& name : blocking_properties) {
      blocking_prop_ids.push_back(intern(name));
    }
    TokenBlockingOptions blocking_options;
    blocking_options.max_tokens_per_entity = options.blocking_max_tokens;
    blocking_options.min_token_df = options.blocking_min_token_df;
    std::map<std::string, std::vector<uint32_t>> postings_map;
    const auto keys =
        ComputeBlockingKeys(target, blocking_properties, blocking_options);
    for (uint64_t i = 0; i < keys.size(); ++i) {
      for (const std::string& token : keys[i]) {
        postings_map[token].push_back(static_cast<uint32_t>(i));
      }
    }
    token_ids.reserve(postings_map.size());
    posting_offsets.reserve(postings_map.size() + 1);
    posting_offsets.push_back(0);
    for (const auto& [token, list] : postings_map) {
      token_ids.push_back(intern(token));
      postings.insert(postings.end(), list.begin(), list.end());
      posting_offsets.push_back(postings.size());
    }
  }

  if (strings.size() > UINT32_MAX) {
    return Status::InvalidArgument(
        "corpus artifact: string table exceeds 2^32 entries");
  }

  // Flat plan arrays: per-plan offset tables (relative to the plan's
  // begin, exactly like the in-memory Plan) over shared value arrays.
  std::vector<PlanDirEntry> dir(num_plans);
  std::vector<uint32_t> plan_offsets(num_plans * (n + 1));
  std::vector<uint32_t> plan_sorted_offsets(num_plans * (n + 1));
  std::vector<uint32_t> plan_values;
  std::vector<uint32_t> plan_sorted_ids;
  std::vector<uint32_t> plan_sorted_counts;
  for (uint64_t p = 0; p < num_plans; ++p) {
    const uint64_t base = p * (n + 1);
    dir[p] = {plan_hash[p], plan_values.size(), plan_sorted_ids.size()};
    plan_offsets[base] = 0;
    plan_sorted_offsets[base] = 0;
    for (uint64_t e = 0; e < n; ++e) {
      const auto values = store.Values(static_cast<PlanId>(p), e);
      plan_values.insert(plan_values.end(), values.begin(), values.end());
      const uint64_t value_count = plan_values.size() - dir[p].values_begin;
      const auto sorted = store.SortedIds(static_cast<PlanId>(p), e);
      const auto counts = store.SortedCounts(static_cast<PlanId>(p), e);
      plan_sorted_ids.insert(plan_sorted_ids.end(), sorted.begin(),
                             sorted.end());
      plan_sorted_counts.insert(plan_sorted_counts.end(), counts.begin(),
                                counts.end());
      const uint64_t sorted_count = plan_sorted_ids.size() - dir[p].sorted_begin;
      if (value_count > UINT32_MAX || sorted_count > UINT32_MAX) {
        return Status::InvalidArgument(
            "corpus artifact: a plan exceeds 2^32 values");
      }
      plan_offsets[base + e + 1] = static_cast<uint32_t>(value_count);
      plan_sorted_offsets[base + e + 1] = static_cast<uint32_t>(sorted_count);
    }
  }

  // String offsets + blob.
  std::vector<uint64_t> string_offsets(strings.size() + 1);
  uint64_t blob_bytes = 0;
  for (size_t i = 0; i < strings.size(); ++i) {
    string_offsets[i] = blob_bytes;
    blob_bytes += strings[i].size();
  }
  string_offsets[strings.size()] = blob_bytes;
  std::string blob;
  blob.reserve(blob_bytes);
  for (const std::string_view s : strings) blob.append(s);

  // Assemble the section table and the header.
  Header header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.header_bytes = sizeof(Header);
  header.flags = has_blocking ? kFlagHasBlocking : 0;
  header.num_entities = n;
  header.num_strings = strings.size();
  header.num_plans = num_plans;
  header.num_properties = schema_props.size();
  header.num_blocking_properties = blocking_prop_ids.size();
  header.num_tokens = token_ids.size();
  header.num_postings = postings.size();
  header.blocking_max_tokens = has_blocking ? options.blocking_max_tokens : 0;
  header.blocking_min_token_df =
      has_blocking ? options.blocking_min_token_df : 1;
  // A retired field (hash-sharded postings); kept so the layout and
  // version stay put. Always 1, checked for sanity on load, else unused.
  header.blocking_shards = 1;
  header.rule_hash = CanonicalRuleHash(rule);

  std::string_view sections[kNumSections];
  sections[kStringOffsets] = PodView(string_offsets);
  sections[kStringBlob] = blob;
  sections[kEntityIds] = PodView(entity_ids);
  sections[kSchemaProps] = PodView(schema_props);
  sections[kBlockingProps] = PodView(blocking_prop_ids);
  sections[kPlanDirectory] = PodView(dir);
  sections[kPlanOffsets] = PodView(plan_offsets);
  sections[kPlanValues] = PodView(plan_values);
  sections[kPlanSortedOffsets] = PodView(plan_sorted_offsets);
  sections[kPlanSortedIds] = PodView(plan_sorted_ids);
  sections[kPlanSortedCounts] = PodView(plan_sorted_counts);
  sections[kTokenIds] = PodView(token_ids);
  sections[kPostingOffsets] = has_blocking ? PodView(posting_offsets)
                                           : std::string_view{};
  sections[kPostings] = PodView(postings);

  uint64_t offset = sizeof(Header);
  for (size_t s = 0; s < kNumSections; ++s) {
    offset = AlignUp8(offset);
    header.section_offset[s] = offset;
    header.section_bytes[s] = sections[s].size();
    offset += sections[s].size();
  }
  header.file_bytes = offset;

  // One payload walk for the checksum, a second for the write — both
  // emit the identical byte stream (zero padding up to each section's
  // aligned offset, then the section).
  const auto walk_payload = [&](auto&& sink) -> Status {
    uint64_t at = sizeof(Header);
    for (size_t s = 0; s < kNumSections; ++s) {
      const uint64_t aligned = AlignUp8(at);
      if (aligned > at) {
        GENLINK_RETURN_IF_ERROR(sink(std::string_view(kZeros, aligned - at)));
      }
      GENLINK_RETURN_IF_ERROR(sink(sections[s]));
      at = aligned + sections[s].size();
    }
    return Status::Ok();
  };

  // The checksum covers the whole file — header first, with its own
  // payload_hash field still zero (exactly how readers re-hash it), so
  // a single flipped bit anywhere, header included, is detected.
  StreamingHash64 checksum;
  checksum.Update(
      std::string_view(reinterpret_cast<const char*>(&header), sizeof(Header)));
  Status hashed = walk_payload([&](std::string_view bytes) {
    checksum.Update(bytes);
    return Status::Ok();
  });
  if (!hashed.ok()) return hashed;
  header.payload_hash = checksum.Finish();

  auto writer = AtomicFileWriter::Create(path);
  if (!writer.ok()) return writer.status();
  GENLINK_RETURN_IF_ERROR(writer->Append(
      std::string_view(reinterpret_cast<const char*>(&header), sizeof(Header))));
  GENLINK_RETURN_IF_ERROR(
      walk_payload([&](std::string_view bytes) { return writer->Append(bytes); }));
  GENLINK_RETURN_IF_ERROR(writer->Commit());

  if (stats != nullptr) {
    stats->file_bytes = header.file_bytes;
    stats->num_entities = n;
    stats->num_strings = strings.size();
    stats->num_plans = num_plans;
    stats->num_tokens = token_ids.size();
    stats->num_postings = postings.size();
  }
  return Status::Ok();
}

// --------------------------------------------------------------- Loader

namespace {

Status TruncatedError(const std::string& path, const std::string& detail) {
  return Status::ParseError("corpus artifact " + InPath(path) +
                            " is truncated or corrupt: " + detail);
}

}  // namespace

MappedCorpus::~MappedCorpus() = default;

const BlockingIndex* MappedCorpus::blocking() const { return blocking_.get(); }

std::optional<PlanId> MappedCorpus::FindPlan(uint64_t hash) const {
  // Plan counts are small (one per distinct value subtree of a rule);
  // a linear scan beats any index.
  for (uint64_t p = 0; p < num_plans_; ++p) {
    if (plans_[p].hash == hash) return static_cast<PlanId>(p);
  }
  return std::nullopt;
}

Result<std::shared_ptr<const MappedCorpus>> MappedCorpus::Load(
    const std::string& path, const MappedCorpusOptions& options) {
  auto mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();

  std::shared_ptr<MappedCorpus> corpus(new MappedCorpus());
  corpus->file_ = std::move(*mapped);
  const std::string_view bytes = corpus->file_.view();

  if (bytes.substr(0, kV1TextMagic.size()) == kV1TextMagic) {
    return Status::ParseError(
        InPath(path) + " is a v1 text rule artifact, not a v2 corpus "
        "artifact — run `genlink index` to build one");
  }
  if (bytes.size() < sizeof(Header)) {
    return TruncatedError(path, std::to_string(bytes.size()) +
                                    " bytes cannot hold a v2 header (" +
                                    std::to_string(sizeof(Header)) + " bytes)");
  }
  Header h;
  std::memcpy(&h, bytes.data(), sizeof(Header));
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError(InPath(path) +
                              " is not a corpus artifact (bad magic)");
  }
  if (h.version != kVersion) {
    if (h.version == __builtin_bswap32(kVersion)) {
      return Status::ParseError(
          "corpus artifact " + InPath(path) +
          " has a byte-swapped version: written on a different-endian "
          "machine; re-run `genlink index` on this host");
    }
    return Status::ParseError("corpus artifact " + InPath(path) +
                              " has unsupported version " +
                              std::to_string(h.version) +
                              " (this build reads " + std::to_string(kVersion) +
                              ")");
  }
  if (h.header_bytes != sizeof(Header)) {
    return TruncatedError(path, "header size mismatch");
  }
  if (h.file_bytes != bytes.size()) {
    return TruncatedError(path, "header records " +
                                    std::to_string(h.file_bytes) +
                                    " bytes, file has " +
                                    std::to_string(bytes.size()));
  }

  // Count sanity before any size arithmetic (overflow guards).
  if (h.num_strings > UINT32_MAX || h.num_entities > UINT32_MAX ||
      h.num_tokens > UINT32_MAX || h.num_plans > (uint64_t{1} << 20) ||
      h.blocking_shards > (uint64_t{1} << 20)) {
    return TruncatedError(path, "implausible table counts");
  }
  const bool has_blocking = (h.flags & kFlagHasBlocking) != 0;
  if (!has_blocking && (h.num_tokens != 0 || h.num_postings != 0 ||
                        h.num_blocking_properties != 0)) {
    return TruncatedError(path, "blocking tables present without the flag");
  }
  if (has_blocking && h.blocking_shards == 0) {
    return TruncatedError(path, "blocking_shards is zero");
  }

  // Section table: alignment and bounds, then exact expected sizes.
  for (size_t s = 0; s < kNumSections; ++s) {
    const uint64_t off = h.section_offset[s];
    const uint64_t size = h.section_bytes[s];
    if (off % 8 != 0 || off < sizeof(Header) || off > h.file_bytes ||
        size > h.file_bytes - off) {
      return TruncatedError(path, "section " + std::to_string(s) +
                                      " out of bounds");
    }
  }
  const uint64_t plan_offset_entries = h.num_plans * (h.num_entities + 1);
  const uint64_t expected[kNumSections] = {
      (h.num_strings + 1) * 8,                     // kStringOffsets
      h.section_bytes[kStringBlob],                // validated below
      h.num_entities * 4,                          // kEntityIds
      h.num_properties * 4,                        // kSchemaProps
      h.num_blocking_properties * 4,               // kBlockingProps
      h.num_plans * sizeof(PlanDirEntry),          // kPlanDirectory
      plan_offset_entries * 4,                     // kPlanOffsets
      h.section_bytes[kPlanValues],                // free, validated below
      plan_offset_entries * 4,                     // kPlanSortedOffsets
      h.section_bytes[kPlanSortedIds],             // free, validated below
      h.section_bytes[kPlanSortedIds],             // counts parallel sorted ids
      h.num_tokens * 4,                            // kTokenIds
      has_blocking ? (h.num_tokens + 1) * 8 : 0,   // kPostingOffsets
      h.num_postings * 4,                          // kPostings
  };
  for (size_t s = 0; s < kNumSections; ++s) {
    if (h.section_bytes[s] != expected[s]) {
      return TruncatedError(path, "section " + std::to_string(s) +
                                      " has unexpected size");
    }
  }
  if (h.section_bytes[kPlanValues] % 4 != 0 ||
      h.section_bytes[kPlanSortedIds] % 4 != 0) {
    return TruncatedError(path, "misaligned plan value tables");
  }

  if (options.verify_checksum) {
    // Re-hash the header with its hash field zeroed (as the writer
    // hashed it), then the payload: every bit of the file is covered.
    StreamingHash64 checksum;
    Header unhashed = h;
    unhashed.payload_hash = 0;
    checksum.Update(std::string_view(
        reinterpret_cast<const char*>(&unhashed), sizeof(Header)));
    checksum.Update(bytes.substr(sizeof(Header)));
    if (checksum.Finish() != h.payload_hash) {
      return TruncatedError(path,
                            "checksum mismatch (bit flip or torn write)");
    }
  }

  const char* base = bytes.data();
  corpus->string_offsets_ =
      reinterpret_cast<const uint64_t*>(base + h.section_offset[kStringOffsets]);
  corpus->string_blob_ = base + h.section_offset[kStringBlob];
  corpus->entity_ids_ =
      reinterpret_cast<const uint32_t*>(base + h.section_offset[kEntityIds]);
  corpus->plans_ =
      reinterpret_cast<const PlanDir*>(base + h.section_offset[kPlanDirectory]);
  corpus->plan_offsets_ =
      reinterpret_cast<const uint32_t*>(base + h.section_offset[kPlanOffsets]);
  corpus->plan_values_ =
      reinterpret_cast<const uint32_t*>(base + h.section_offset[kPlanValues]);
  corpus->plan_sorted_offsets_ = reinterpret_cast<const uint32_t*>(
      base + h.section_offset[kPlanSortedOffsets]);
  corpus->plan_sorted_ids_ = reinterpret_cast<const uint32_t*>(
      base + h.section_offset[kPlanSortedIds]);
  corpus->plan_sorted_counts_ = reinterpret_cast<const uint32_t*>(
      base + h.section_offset[kPlanSortedCounts]);
  corpus->token_ids_ =
      reinterpret_cast<const uint32_t*>(base + h.section_offset[kTokenIds]);
  corpus->posting_offsets_ = reinterpret_cast<const uint64_t*>(
      base + h.section_offset[kPostingOffsets]);
  corpus->postings_ =
      reinterpret_cast<const uint32_t*>(base + h.section_offset[kPostings]);
  corpus->num_entities_ = h.num_entities;
  corpus->num_strings_ = h.num_strings;
  corpus->num_plans_ = h.num_plans;
  corpus->num_tokens_ = h.num_tokens;
  corpus->num_postings_ = h.num_postings;
  corpus->blocking_max_tokens_ = h.blocking_max_tokens;
  corpus->blocking_min_token_df_ = h.blocking_min_token_df;
  corpus->rule_hash_ = h.rule_hash;

  // Semantic validation: every offset monotone and in range, every id
  // in range — after this, no read through the accessors can leave the
  // mapping. All passes are linear in the table they check.
  const uint64_t blob_bytes = h.section_bytes[kStringBlob];
  if (corpus->string_offsets_[0] != 0 ||
      corpus->string_offsets_[h.num_strings] != blob_bytes) {
    return TruncatedError(path, "string offsets do not span the blob");
  }
  for (uint64_t i = 0; i < h.num_strings; ++i) {
    if (corpus->string_offsets_[i] > corpus->string_offsets_[i + 1]) {
      return TruncatedError(path, "string offsets not monotone");
    }
  }
  const auto ids_in_range = [&](const uint32_t* ids, uint64_t count) {
    for (uint64_t i = 0; i < count; ++i) {
      if (ids[i] >= h.num_strings) return false;
    }
    return true;
  };
  const uint32_t* schema_ids =
      reinterpret_cast<const uint32_t*>(base + h.section_offset[kSchemaProps]);
  const uint32_t* blocking_prop_ids = reinterpret_cast<const uint32_t*>(
      base + h.section_offset[kBlockingProps]);
  if (!ids_in_range(corpus->entity_ids_, h.num_entities) ||
      !ids_in_range(schema_ids, h.num_properties) ||
      !ids_in_range(blocking_prop_ids, h.num_blocking_properties) ||
      !ids_in_range(corpus->plan_values_, h.section_bytes[kPlanValues] / 4) ||
      !ids_in_range(corpus->plan_sorted_ids_,
                    h.section_bytes[kPlanSortedIds] / 4) ||
      !ids_in_range(corpus->token_ids_, h.num_tokens)) {
    return TruncatedError(path, "string id out of range");
  }
  const uint64_t total_values = h.section_bytes[kPlanValues] / 4;
  const uint64_t total_sorted = h.section_bytes[kPlanSortedIds] / 4;
  for (uint64_t p = 0; p < h.num_plans; ++p) {
    const uint64_t base_entry = p * (h.num_entities + 1);
    if (corpus->plans_[p].values_begin > total_values ||
        corpus->plans_[p].sorted_begin > total_sorted ||
        corpus->plan_offsets_[base_entry] != 0 ||
        corpus->plan_sorted_offsets_[base_entry] != 0) {
      return TruncatedError(path, "plan directory out of range");
    }
    for (uint64_t e = 0; e < h.num_entities; ++e) {
      if (corpus->plan_offsets_[base_entry + e] >
              corpus->plan_offsets_[base_entry + e + 1] ||
          corpus->plan_sorted_offsets_[base_entry + e] >
              corpus->plan_sorted_offsets_[base_entry + e + 1]) {
        return TruncatedError(path, "plan offsets not monotone");
      }
    }
    if (corpus->plans_[p].values_begin +
                corpus->plan_offsets_[base_entry + h.num_entities] >
            total_values ||
        corpus->plans_[p].sorted_begin +
                corpus->plan_sorted_offsets_[base_entry + h.num_entities] >
            total_sorted) {
      return TruncatedError(path, "plan values out of range");
    }
  }
  if (has_blocking) {
    for (uint64_t t = 1; t < h.num_tokens; ++t) {
      if (!(corpus->View(corpus->token_ids_[t - 1]) <
            corpus->View(corpus->token_ids_[t]))) {
        return TruncatedError(path, "token table not sorted");
      }
    }
    if (corpus->posting_offsets_[0] != 0 ||
        corpus->posting_offsets_[h.num_tokens] != h.num_postings) {
      return TruncatedError(path, "posting offsets do not span the postings");
    }
    for (uint64_t t = 0; t < h.num_tokens; ++t) {
      if (corpus->posting_offsets_[t] > corpus->posting_offsets_[t + 1]) {
        return TruncatedError(path, "posting offsets not monotone");
      }
    }
    for (uint64_t k = 0; k < h.num_postings; ++k) {
      if (corpus->postings_[k] >= h.num_entities) {
        return TruncatedError(path, "posting entity index out of range");
      }
    }
  }

  // Materialize the small derived objects (schema, blocking property
  // names, the mapped blocking index).
  std::vector<std::string> property_names;
  property_names.reserve(h.num_properties);
  for (uint64_t p = 0; p < h.num_properties; ++p) {
    property_names.emplace_back(corpus->View(schema_ids[p]));
  }
  corpus->schema_ = Schema(property_names);
  corpus->blocking_properties_.reserve(h.num_blocking_properties);
  for (uint64_t p = 0; p < h.num_blocking_properties; ++p) {
    corpus->blocking_properties_.emplace_back(corpus->View(blocking_prop_ids[p]));
  }
  if (has_blocking) {
    corpus->blocking_ = std::make_unique<MappedBlockingIndex>(corpus.get());
  }
  return std::shared_ptr<const MappedCorpus>(std::move(corpus));
}

}  // namespace genlink

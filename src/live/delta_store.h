// The append-only delta store of the live corpus layer
// (live/live_corpus.h): upserted entities land here between
// compactions, pre-evaluated for the deployed rule so queries score
// them exactly as the value-store path scores base entities.
//
// Storage shape: fixed-capacity chunks referenced by shared_ptr. The
// writer appends into the tail chunk's next free slot; a published
// snapshot holds the chunk pointers plus a count and only ever reads
// slots below that count, so the writer never mutates memory a reader
// can see — the same rule that keeps a MatcherIndex generation's value
// store unwritten once published. Publication of the enclosing snapshot
// (std::atomic_store on a shared_ptr) is the release barrier that
// makes a freshly written entry visible.

#ifndef GENLINK_LIVE_DELTA_STORE_H_
#define GENLINK_LIVE_DELTA_STORE_H_

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "model/entity.h"
#include "model/value.h"

namespace genlink {

/// One upserted entity as the live layer stores it: the record itself
/// (under the corpus schema), its target-side value sets evaluated once
/// per comparison site of the deployed rule's program
/// (rule/rule_program.h — the same site order every scorer uses), and
/// its blocking keys. All
/// immutable once appended; a rule swap re-appends into a fresh log.
struct DeltaEntry {
  Entity entity;
  /// site_values[k] = program site k's target subtree evaluated
  /// on `entity`. Scoring hands a set-measure site's values to the
  /// measure's reference Distance and a per-value site's to
  /// DistanceViews as the base index hands it interned store spans,
  /// which is what keeps delta scores bit-identical to a fresh build.
  std::vector<ValueSet> site_values;
  /// Unweighted blocking keys (matcher/blocking.h EntityBlockingKeys);
  /// empty when blocking is off.
  std::vector<std::string> tokens;
  /// Approximate heap bytes (strings + vectors), for /varz accounting.
  size_t approx_bytes = 0;
};

/// Chunked append-only log of DeltaEntry. Not thread-safe by itself:
/// the live corpus serializes all writers under its writer lock and
/// hands readers immutable View prefixes.
class DeltaLog {
 public:
  static constexpr size_t kChunkCapacity = 256;
  struct Chunk {
    std::array<DeltaEntry, kChunkCapacity> entries;
  };

  /// Entries appended so far.
  size_t size() const { return count_; }

  /// Appends `entry` and returns its slot index.
  size_t Append(DeltaEntry entry);

  /// The entry at `slot` (< size()).
  const DeltaEntry& entry(size_t slot) const {
    return chunks_[slot / kChunkCapacity]->entries[slot % kChunkCapacity];
  }

  /// Drops every entry (compaction / rule swap installs a fresh log by
  /// move-assignment; Reset exists for the compaction path that reuses
  /// the member).
  void Reset() {
    chunks_.clear();
    count_ = 0;
  }

  /// An immutable prefix of the log: the chunk references plus the
  /// count at snapshot time. Entries below `count` are frozen; the
  /// writer only ever constructs into slots >= count, so concurrent
  /// reads through a View are race-free.
  struct View {
    std::vector<std::shared_ptr<const Chunk>> chunks;
    size_t count = 0;

    const DeltaEntry& entry(size_t slot) const {
      return chunks[slot / kChunkCapacity]->entries[slot % kChunkCapacity];
    }
  };

  /// The current prefix as an immutable view.
  View MakeView() const;

 private:
  std::vector<std::shared_ptr<Chunk>> chunks_;
  size_t count_ = 0;
};

/// Approximate heap footprint of an entry (id + property values +
/// evaluated site values + tokens), used for delta_store_bytes.
size_t ApproxDeltaEntryBytes(const DeltaEntry& entry);

}  // namespace genlink

#endif  // GENLINK_LIVE_DELTA_STORE_H_

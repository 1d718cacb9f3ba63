// Rule execution over whole datasets: generates the set of links
// M_l = {(a,b) : l(a,b) >= 0.5} (Definition 3 of the paper), using token
// blocking or the exhaustive cross product.
//
// GenerateLinks is the one-shot convenience surface: it rebuilds every
// execution artifact (blocking index, value store, compiled rule) per
// call. Long-lived deployments — request serving, repeated matching,
// rule hot swap — should build a MatcherIndex (api/matcher_index.h)
// once and query it; GenerateLinks forwards to that layer and is
// bit-identical to MatcherIndex::MatchDataset.

#ifndef GENLINK_MATCHER_MATCHER_H_
#define GENLINK_MATCHER_MATCHER_H_

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "matcher/blocking.h"
#include "model/dataset.h"
#include "rule/linkage_rule.h"

namespace genlink {

class CancelToken;  // common/clock.h

/// A generated link with its similarity score.
struct GeneratedLink {
  std::string id_a;
  std::string id_b;
  double score = 0.0;
};

/// Options for link generation.
struct MatchOptions {
  /// Use the token blocking index (recommended); exhaustive cross
  /// product otherwise.
  bool use_blocking = true;
  /// Minimum similarity for a link to be emitted.
  double threshold = 0.5;
  /// Keep only the best-scoring target per source entity when true.
  /// Ties are broken deterministically: highest score first, then the
  /// lexicographically smallest id_b — so the kept link never depends
  /// on candidate enumeration order or thread count
  /// (tests/matcher_test.cc, BestMatchTieBreak*).
  bool best_match_only = false;
  /// Worker threads (0 = hardware concurrency).
  size_t num_threads = 0;
  /// Weighted blocking (opt-in): index each target entity under only
  /// its k rarest tokens (document frequency ascending, ties by token)
  /// instead of every token. 0 = index all tokens — the default path,
  /// unchanged. Shrinks candidate sets to a subset of the unweighted
  /// ones at a small recall risk; floors are gated by
  /// tests/blocking_scale_test.cc and bench/blocking_scale.cc.
  size_t blocking_max_tokens = 0;
  /// Skip blocking tokens seen in fewer than this many target entities.
  /// 1 = keep all (default). See TokenBlockingOptions::min_token_df.
  size_t blocking_min_token_df = 1;
  /// Cooperative cancellation (common/clock.h). Not a matching knob:
  /// never serialized into artifacts and never part of result
  /// identity. When non-null, the full-join and batch surfaces poll it
  /// between entities (and within large candidate scans) and return
  /// early with whatever links were already scored — the caller must
  /// treat the result as truncated when the token fired (the CLI's
  /// SIGINT path and the serve daemon's per-request deadlines both
  /// discard-or-flag on cancellation). Null = run to completion; the
  /// non-cancelled path is bit-identical with or without a token.
  const CancelToken* cancel = nullptr;
};

/// Executes `rule` over all pairs of `a` x `b` and returns the links
/// whose similarity reaches the threshold, sorted by descending score.
std::vector<GeneratedLink> GenerateLinks(const LinkageRule& rule,
                                         const Dataset& a, const Dataset& b,
                                         const MatchOptions& options = {});

}  // namespace genlink

#endif  // GENLINK_MATCHER_MATCHER_H_

#include "matcher/blocking.h"

#include <algorithm>
#include <unordered_set>

#include "text/case_fold.h"
#include "text/tokenizer.h"

namespace genlink {
namespace {

void CollectPropertiesFromValue(const ValueOperator* op,
                                std::unordered_set<std::string>& out) {
  if (op == nullptr) return;
  if (op->kind() == OperatorKind::kProperty) {
    out.insert(static_cast<const PropertyOperator*>(op)->property());
    return;
  }
  const auto* tf = static_cast<const TransformOperator*>(op);
  for (const auto& input : tf->inputs()) {
    CollectPropertiesFromValue(input.get(), out);
  }
}

std::vector<std::string> CollectSideProperties(const LinkageRule& rule,
                                               bool source_side) {
  std::unordered_set<std::string> names;
  for (const auto* cmp : CollectComparisons(rule)) {
    CollectPropertiesFromValue(source_side ? cmp->source() : cmp->target(), names);
  }
  std::vector<std::string> out(names.begin(), names.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<PropertyId> ResolveProperties(
    const Schema& schema, const std::vector<std::string>& properties) {
  std::vector<PropertyId> out;
  if (properties.empty()) {
    for (PropertyId p = 0; p < schema.NumProperties(); ++p) {
      out.push_back(p);
    }
  } else {
    for (const auto& name : properties) {
      if (auto id = schema.FindProperty(name)) {
        out.push_back(*id);
      }
    }
  }
  return out;
}

void AppendEntityTokens(const Entity& entity,
                        const std::vector<PropertyId>& properties,
                        std::vector<std::string>& out) {
  std::unordered_set<std::string> seen;
  for (PropertyId p : properties) {
    for (const auto& value : entity.Values(p)) {
      for (auto& token : TokenizeAlnum(ToLowerAscii(value))) {
        if (seen.insert(token).second) out.push_back(std::move(token));
      }
    }
  }
}

/// The blocking keys of every entity of `dataset`: lowercased alnum
/// tokens of the resolved properties, deduplicated per entity and, with
/// weighted options, pruned to the `max_tokens_per_entity` rarest
/// tokens (document frequency ascending, ties by token — a total order,
/// so the selection is deterministic) with df >= min_token_df.
std::vector<std::vector<std::string>> ComputeEntityKeys(
    const Dataset& dataset, const std::vector<PropertyId>& properties,
    const TokenBlockingOptions& options) {
  std::vector<std::vector<std::string>> keys(dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    AppendEntityTokens(dataset.entity(i), properties, keys[i]);
  }
  const bool weighted =
      options.max_tokens_per_entity > 0 || options.min_token_df > 1;
  if (!weighted) return keys;

  // Document frequencies over the per-entity deduplicated token lists.
  std::unordered_map<std::string, size_t> df;
  for (const auto& entity_keys : keys) {
    for (const auto& token : entity_keys) ++df[token];
  }
  for (auto& entity_keys : keys) {
    if (options.min_token_df > 1) {
      entity_keys.erase(
          std::remove_if(entity_keys.begin(), entity_keys.end(),
                         [&](const std::string& token) {
                           return df.find(token)->second < options.min_token_df;
                         }),
          entity_keys.end());
    }
    const size_t k = options.max_tokens_per_entity;
    if (k > 0 && entity_keys.size() > k) {
      std::sort(entity_keys.begin(), entity_keys.end(),
                [&](const std::string& a, const std::string& b) {
                  const size_t da = df.find(a)->second;
                  const size_t db = df.find(b)->second;
                  if (da != db) return da < db;
                  return a < b;
                });
      entity_keys.resize(k);
    }
  }
  return keys;
}

/// Thread-local epoch-stamped membership scratch for candidate
/// deduplication: candidate sets run to hundreds of entries per query
/// (one per shared token) and this path sits inside the matcher's
/// per-source-entity loop, so a hash set per call would dominate.
/// Thread-local so concurrent queries — from the matcher pool or
/// external callers — never share it; the epoch bump makes clearing
/// O(1). Shared by all index instances on a thread, in-memory and
/// mapped alike: every call bumps the epoch and no probe nests inside
/// another, so stale stamps from another index can never collide
/// within a call. tests/blocking_concurrency_test.cc exercises this
/// under TSan.
struct StampScratch {
  std::vector<uint32_t> stamp;
  uint32_t epoch = 0;

  /// Starts a new deduplication round over entity indexes [0, n).
  void Begin(size_t n) {
    if (stamp.size() < n) stamp.resize(n, 0);
    if (++epoch == 0) {  // wrapped: all stamps are stale but may collide
      std::fill(stamp.begin(), stamp.end(), 0);
      epoch = 1;
    }
  }

  /// True the first time `j` is seen this round.
  bool Insert(size_t j) {
    if (stamp[j] == epoch) return false;
    stamp[j] = epoch;
    return true;
  }
};

StampScratch& TlsStamp() {
  thread_local StampScratch scratch;
  return scratch;
}

}  // namespace

std::vector<std::vector<std::string>> ComputeBlockingKeys(
    const Dataset& dataset, const std::vector<std::string>& properties,
    const TokenBlockingOptions& options) {
  return ComputeEntityKeys(dataset, ResolveProperties(dataset.schema(), properties),
                           options);
}

std::vector<std::string> EntityBlockingKeys(
    const Entity& entity, const Schema& schema,
    const std::vector<std::string>& properties) {
  std::vector<std::string> out;
  AppendEntityTokens(entity, ResolveProperties(schema, properties), out);
  return out;
}

TokenBlockingIndex::TokenBlockingIndex(const Dataset& dataset,
                                       const std::vector<std::string>& properties,
                                       const TokenBlockingOptions& options)
    : dataset_(&dataset) {
  const std::vector<PropertyId> resolved = ResolveProperties(dataset.schema(), properties);
  std::vector<std::vector<std::string>> keys =
      ComputeEntityKeys(dataset, resolved, options);
  for (size_t i = 0; i < keys.size(); ++i) {
    for (auto& token : keys[i]) {
      index_[std::move(token)].push_back(static_cast<uint32_t>(i));
      ++postings_;
    }
  }
}

std::vector<size_t> ProbeCandidates(
    const Entity& entity, const Schema& schema, size_t num_entities,
    const std::function<std::span<const uint32_t>(const std::string&)>&
        postings) {
  StampScratch& scratch = TlsStamp();
  scratch.Begin(num_entities);
  std::vector<size_t> out;
  for (PropertyId p = 0; p < schema.NumProperties(); ++p) {
    for (const auto& value : entity.Values(p)) {
      for (const std::string& token : TokenizeAlnum(ToLowerAscii(value))) {
        for (const uint32_t j : postings(token)) {
          if (scratch.Insert(j)) out.push_back(j);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<size_t> TokenBlockingIndex::Candidates(const Entity& entity,
                                                   const Schema& schema) const {
  return ProbeCandidates(
      entity, schema, dataset_->size(),
      [&](const std::string& token) -> std::span<const uint32_t> {
        const auto it = index_.find(token);
        if (it == index_.end()) return {};
        return it->second;
      });
}

std::vector<std::string> SourceProperties(const LinkageRule& rule) {
  return CollectSideProperties(rule, /*source_side=*/true);
}

std::vector<std::string> TargetProperties(const LinkageRule& rule) {
  return CollectSideProperties(rule, /*source_side=*/false);
}

}  // namespace genlink

#include "rule/rule_hash.h"

#include <cstdint>

#include "common/hash.h"

namespace genlink {
namespace {

// Domain-separation tags, one per operator kind.
constexpr uint64_t kTagProperty = 0x2545F4914F6CDD1DULL;
constexpr uint64_t kTagTransform = 0x9E6C63D0876A9A47ULL;
constexpr uint64_t kTagComparison = 0xBF58476D1CE4E5B9ULL;
constexpr uint64_t kTagAggregation = 0x94D049BB133111EBULL;

// `sites` may be null (CanonicalRuleHash needs no site list).
uint64_t HashSimilarity(const SimilarityOperator& op,
                        std::vector<ComparisonSite>* sites) {
  switch (op.kind()) {
    case OperatorKind::kComparison: {
      const auto& cmp = static_cast<const ComparisonOperator&>(op);
      const uint64_t signature = ComparisonSignature(cmp);
      if (sites != nullptr) sites->push_back({&cmp, signature});
      const uint64_t h = HashCombine(signature, HashDouble(cmp.threshold()));
      return HashCombine(h, HashDouble(cmp.weight()));
    }
    case OperatorKind::kAggregation: {
      const auto& agg = static_cast<const AggregationOperator&>(op);
      uint64_t h =
          HashCombine(kTagAggregation, HashBytes(agg.function()->name()));
      h = HashCombine(h, HashDouble(agg.weight()));
      h = HashCombine(h, agg.operands().size());
      for (const auto& operand : agg.operands()) {
        h = HashCombine(h, HashSimilarity(*operand, sites));
      }
      return h;
    }
    default:
      return 0;  // unreachable: similarity operators are comparison/aggregation
  }
}

}  // namespace

uint64_t ValueOperatorHash(const ValueOperator& op) {
  switch (op.kind()) {
    case OperatorKind::kProperty: {
      const auto& prop = static_cast<const PropertyOperator&>(op);
      return HashCombine(kTagProperty, HashBytes(prop.property()));
    }
    case OperatorKind::kTransform: {
      const auto& transform = static_cast<const TransformOperator&>(op);
      uint64_t h =
          HashCombine(kTagTransform, HashBytes(transform.function()->name()));
      h = HashCombine(h, transform.inputs().size());
      for (const auto& input : transform.inputs()) {
        h = HashCombine(h, ValueOperatorHash(*input));
      }
      return h;
    }
    default:
      return 0;  // unreachable: value operators are property or transform
  }
}

uint64_t ComparisonSignature(const ComparisonOperator& op) {
  uint64_t h = HashCombine(kTagComparison, HashBytes(op.measure()->name()));
  h = HashCombine(h, ValueOperatorHash(*op.source()));
  return HashCombine(h, ValueOperatorHash(*op.target()));
}

uint64_t CanonicalRuleHash(const LinkageRule& rule) {
  return rule.empty() ? 0 : HashSimilarity(*rule.root(), nullptr);
}

RuleHashInfo AnalyzeRule(const LinkageRule& rule) {
  RuleHashInfo info;
  if (!rule.empty()) {
    info.canonical = HashSimilarity(*rule.root(), &info.comparisons);
  }
  return info;
}

}  // namespace genlink

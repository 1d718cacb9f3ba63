// LinkageRule: the unit the learner evolves and the matcher executes
// (Definition 3 of the paper). Wraps the root similarity operator and
// provides tree-wide utilities (validation, node collection for the
// genetic operators). Rule and subtree identity (breeding dedup, the
// fitness memo, plan keys) is decided by the hashes of rule/rule_hash.h.

#ifndef GENLINK_RULE_LINKAGE_RULE_H_
#define GENLINK_RULE_LINKAGE_RULE_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "rule/operators.h"

namespace genlink {

/// Pairs above this similarity are considered matches (Definition 3).
inline constexpr double kMatchThreshold = 0.5;

/// A learnable, executable linkage rule. Move-only; use Clone() for deep
/// copies (copies are always intentional in GP code).
class LinkageRule {
 public:
  /// The empty rule; evaluates to 0 for every pair.
  LinkageRule() = default;

  explicit LinkageRule(std::unique_ptr<SimilarityOperator> root)
      : root_(std::move(root)) {}

  LinkageRule(LinkageRule&&) = default;
  LinkageRule& operator=(LinkageRule&&) = default;
  LinkageRule(const LinkageRule&) = delete;
  LinkageRule& operator=(const LinkageRule&) = delete;

  bool empty() const { return root_ == nullptr; }
  const SimilarityOperator* root() const { return root_.get(); }
  std::unique_ptr<SimilarityOperator>& mutable_root() { return root_; }

  /// Similarity of the pair (a, b) in [0,1]; 0 for the empty rule.
  double Evaluate(const Entity& a, const Entity& b, const Schema& schema_a,
                  const Schema& schema_b) const {
    if (!root_) return 0.0;
    return root_->Evaluate(a, b, schema_a, schema_b);
  }

  /// True when Evaluate(...) >= 0.5.
  bool Matches(const Entity& a, const Entity& b, const Schema& schema_a,
               const Schema& schema_b) const {
    return Evaluate(a, b, schema_a, schema_b) >= kMatchThreshold;
  }

  /// Deep copy.
  LinkageRule Clone() const {
    return root_ ? LinkageRule(root_->Clone()) : LinkageRule();
  }

  /// Total number of operators (used by the parsimony pressure).
  size_t OperatorCount() const { return root_ ? root_->CountOperators() : 0; }

  /// Checks the strong typing constraints of Figure 1: non-null children,
  /// transformation arity respected, aggregations non-empty, thresholds
  /// finite and non-negative, weights finite and positive. Both rule
  /// parsers (rule/parse.h, rule/xml.h) return its status.
  Status Validate() const;

 private:
  std::unique_ptr<SimilarityOperator> root_;
};

// ---------------------------------------------------------------------------
// Tree navigation helpers used by the genetic operators. "Slots" are
// pointers to the owning unique_ptr of a node, so callers can replace
// whole subtrees in place.
// ---------------------------------------------------------------------------

/// All similarity-operator slots of a rule, including the root slot.
std::vector<std::unique_ptr<SimilarityOperator>*> CollectSimilaritySlots(
    LinkageRule& rule);

/// All value-operator slots (comparison source/target slots and
/// transformation input slots).
std::vector<std::unique_ptr<ValueOperator>*> CollectValueSlots(LinkageRule& rule);

/// All comparison operators in the tree.
std::vector<ComparisonOperator*> CollectComparisons(const LinkageRule& rule);

/// All aggregation operators in the tree.
std::vector<AggregationOperator*> CollectAggregations(const LinkageRule& rule);

/// All transformation operators in the tree.
std::vector<TransformOperator*> CollectTransforms(const LinkageRule& rule);

/// All value-operator slots that hold a TransformOperator.
std::vector<std::unique_ptr<ValueOperator>*> CollectTransformSlots(
    LinkageRule& rule);

}  // namespace genlink

#endif  // GENLINK_RULE_LINKAGE_RULE_H_

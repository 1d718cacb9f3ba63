#include "rule/linkage_rule.h"

#include <cmath>
#include <string>

#include "common/string_util.h"

namespace genlink {
namespace {

Status ValidateValue(const ValueOperator* op) {
  if (op == nullptr) return Status::Internal("null value operator");
  switch (op->kind()) {
    case OperatorKind::kProperty: {
      const auto* prop = static_cast<const PropertyOperator*>(op);
      if (prop->property().empty()) {
        return Status::InvalidArgument("property operator with empty name");
      }
      return Status::Ok();
    }
    case OperatorKind::kTransform: {
      const auto* tf = static_cast<const TransformOperator*>(op);
      if (tf->function() == nullptr) {
        return Status::InvalidArgument("transform operator without function");
      }
      if (tf->inputs().size() != tf->function()->arity()) {
        return Status::InvalidArgument(
            std::string("transformation ") + std::string(tf->function()->name()) +
            " expects " + std::to_string(tf->function()->arity()) + " inputs, got " +
            std::to_string(tf->inputs().size()));
      }
      for (const auto& input : tf->inputs()) {
        GENLINK_RETURN_IF_ERROR(ValidateValue(input.get()));
      }
      return Status::Ok();
    }
    default:
      return Status::InvalidArgument(
          "similarity operator found in value position");
  }
}

Status ValidateSimilarity(const SimilarityOperator* op) {
  if (op == nullptr) return Status::Internal("null similarity operator");
  if (!std::isfinite(op->weight()) || op->weight() <= 0.0) {
    return Status::InvalidArgument(
        "operator weight must be a finite positive number, got " +
        FormatDoubleExact(op->weight()));
  }
  switch (op->kind()) {
    case OperatorKind::kComparison: {
      const auto* cmp = static_cast<const ComparisonOperator*>(op);
      if (cmp->measure() == nullptr) {
        return Status::InvalidArgument("comparison without distance measure");
      }
      if (!std::isfinite(cmp->threshold()) || cmp->threshold() < 0.0) {
        return Status::InvalidArgument(
            "comparison threshold must be a finite number >= 0, got " +
            FormatDoubleExact(cmp->threshold()));
      }
      if (cmp->source() == nullptr || cmp->target() == nullptr) {
        return Status::InvalidArgument("comparison missing a value operator");
      }
      GENLINK_RETURN_IF_ERROR(ValidateValue(cmp->source()));
      GENLINK_RETURN_IF_ERROR(ValidateValue(cmp->target()));
      return Status::Ok();
    }
    case OperatorKind::kAggregation: {
      const auto* agg = static_cast<const AggregationOperator*>(op);
      if (agg->function() == nullptr) {
        return Status::InvalidArgument("aggregation without function");
      }
      if (agg->operands().empty()) {
        return Status::InvalidArgument("aggregation with no operands");
      }
      for (const auto& child : agg->operands()) {
        GENLINK_RETURN_IF_ERROR(ValidateSimilarity(child.get()));
      }
      return Status::Ok();
    }
    default:
      return Status::InvalidArgument(
          "value operator found in similarity position");
  }
}

void WalkValueSlots(std::unique_ptr<ValueOperator>* slot,
                    std::vector<std::unique_ptr<ValueOperator>*>& out) {
  out.push_back(slot);
  if ((*slot)->kind() == OperatorKind::kTransform) {
    auto* tf = static_cast<TransformOperator*>(slot->get());
    for (auto& input : tf->mutable_inputs()) WalkValueSlots(&input, out);
  }
}

void WalkSimilaritySlots(std::unique_ptr<SimilarityOperator>* slot,
                         std::vector<std::unique_ptr<SimilarityOperator>*>& out) {
  out.push_back(slot);
  if ((*slot)->kind() == OperatorKind::kAggregation) {
    auto* agg = static_cast<AggregationOperator*>(slot->get());
    for (auto& child : agg->mutable_operands()) WalkSimilaritySlots(&child, out);
  }
}

template <typename T, OperatorKind kKind, typename Node>
void CollectNodesOfKind(Node* node, std::vector<T*>& out);

template <typename T, OperatorKind kKind>
void CollectFromSimilarity(SimilarityOperator* node, std::vector<T*>& out) {
  if (node == nullptr) return;
  if (node->kind() == kKind) out.push_back(static_cast<T*>(node));
  if (node->kind() == OperatorKind::kAggregation) {
    auto* agg = static_cast<AggregationOperator*>(node);
    for (auto& child : agg->mutable_operands()) {
      CollectFromSimilarity<T, kKind>(child.get(), out);
    }
  }
}

void CollectTransformsFromValue(ValueOperator* node,
                                std::vector<TransformOperator*>& out) {
  if (node == nullptr) return;
  if (node->kind() == OperatorKind::kTransform) {
    auto* tf = static_cast<TransformOperator*>(node);
    out.push_back(tf);
    for (auto& input : tf->mutable_inputs()) {
      CollectTransformsFromValue(input.get(), out);
    }
  }
}

}  // namespace

Status LinkageRule::Validate() const {
  if (!root_) return Status::InvalidArgument("empty linkage rule");
  return ValidateSimilarity(root_.get());
}

std::vector<std::unique_ptr<SimilarityOperator>*> CollectSimilaritySlots(
    LinkageRule& rule) {
  std::vector<std::unique_ptr<SimilarityOperator>*> slots;
  if (!rule.empty()) WalkSimilaritySlots(&rule.mutable_root(), slots);
  return slots;
}

std::vector<std::unique_ptr<ValueOperator>*> CollectValueSlots(LinkageRule& rule) {
  std::vector<std::unique_ptr<ValueOperator>*> slots;
  for (auto* sim_slot : CollectSimilaritySlots(rule)) {
    if ((*sim_slot)->kind() == OperatorKind::kComparison) {
      auto* cmp = static_cast<ComparisonOperator*>(sim_slot->get());
      WalkValueSlots(&cmp->mutable_source(), slots);
      WalkValueSlots(&cmp->mutable_target(), slots);
    }
  }
  return slots;
}

std::vector<ComparisonOperator*> CollectComparisons(const LinkageRule& rule) {
  std::vector<ComparisonOperator*> out;
  CollectFromSimilarity<ComparisonOperator, OperatorKind::kComparison>(
      const_cast<SimilarityOperator*>(rule.root()), out);
  return out;
}

std::vector<AggregationOperator*> CollectAggregations(const LinkageRule& rule) {
  std::vector<AggregationOperator*> out;
  CollectFromSimilarity<AggregationOperator, OperatorKind::kAggregation>(
      const_cast<SimilarityOperator*>(rule.root()), out);
  return out;
}

std::vector<TransformOperator*> CollectTransforms(const LinkageRule& rule) {
  std::vector<TransformOperator*> out;
  for (auto* cmp : CollectComparisons(rule)) {
    CollectTransformsFromValue(cmp->mutable_source().get(), out);
    CollectTransformsFromValue(cmp->mutable_target().get(), out);
  }
  return out;
}

std::vector<std::unique_ptr<ValueOperator>*> CollectTransformSlots(
    LinkageRule& rule) {
  std::vector<std::unique_ptr<ValueOperator>*> out;
  for (auto* slot : CollectValueSlots(rule)) {
    if ((*slot)->kind() == OperatorKind::kTransform) out.push_back(slot);
  }
  return out;
}

}  // namespace genlink

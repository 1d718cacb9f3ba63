#include "rule/rule_program.h"

#include <algorithm>

namespace genlink {

RuleProgram::RuleProgram(const LinkageRule& rule) {
  if (rule.empty()) return;
  size_t depth = 0;
  Compile(*rule.root(), depth);
}

void RuleProgram::Compile(const SimilarityOperator& node, size_t& depth) {
  if (node.kind() == OperatorKind::kComparison) {
    const auto& cmp = static_cast<const ComparisonOperator&>(node);
    sites_.push_back({&cmp, cmp.threshold()});
    code_.push_back({});
    max_stack_ = std::max(max_stack_, ++depth);
    return;
  }
  const auto& agg = static_cast<const AggregationOperator&>(node);
  for (const auto& operand : agg.operands()) Compile(*operand, depth);
  Op op;
  op.function = agg.function();
  op.arity = static_cast<uint32_t>(agg.operands().size());
  op.weights = static_cast<uint32_t>(weights_.size());
  for (const auto& operand : agg.operands()) {
    weights_.push_back(operand->weight());
  }
  code_.push_back(op);
  depth = depth - op.arity + 1;
  max_stack_ = std::max(max_stack_, depth);
}

}  // namespace genlink

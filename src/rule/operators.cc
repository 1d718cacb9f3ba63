#include "rule/operators.h"

namespace genlink {

// ---------------------------------------------------------------- Property

ValueSet PropertyOperator::Evaluate(const Entity& e, const Schema& schema) const {
  auto id = schema.FindProperty(property_);
  if (!id) return {};
  return e.Values(*id);
}

const ValueSet& PropertyOperator::EvaluateRef(const Entity& e,
                                              const Schema& schema,
                                              ValueSet& /*scratch*/) const {
  static const ValueSet kEmpty;
  auto id = schema.FindProperty(property_);
  if (!id) return kEmpty;
  return e.Values(*id);
}

std::unique_ptr<ValueOperator> PropertyOperator::Clone() const {
  return std::make_unique<PropertyOperator>(property_);
}

// --------------------------------------------------------------- Transform

ValueSet TransformOperator::Evaluate(const Entity& e, const Schema& schema) const {
  // Unary transformations (all but `concatenate`) read their input by
  // reference — a plain property input costs no string copies.
  if (inputs_.size() == 1) {
    ValueSet scratch;
    const ValueSet& input = inputs_[0]->EvaluateRef(e, schema, scratch);
    return function_->Apply({&input, 1});
  }
  std::vector<ValueSet> inputs;
  inputs.reserve(inputs_.size());
  for (const auto& op : inputs_) inputs.push_back(op->Evaluate(e, schema));
  return function_->Apply(inputs);
}

std::unique_ptr<ValueOperator> TransformOperator::Clone() const {
  std::vector<std::unique_ptr<ValueOperator>> inputs;
  inputs.reserve(inputs_.size());
  for (const auto& op : inputs_) inputs.push_back(op->Clone());
  return std::make_unique<TransformOperator>(function_, std::move(inputs));
}

size_t TransformOperator::CountOperators() const {
  size_t n = 1;
  for (const auto& op : inputs_) n += op->CountOperators();
  return n;
}

// -------------------------------------------------------------- Comparison

ComparisonOperator::ComparisonOperator(std::unique_ptr<ValueOperator> source,
                                       std::unique_ptr<ValueOperator> target,
                                       const DistanceMeasure* measure,
                                       double threshold)
    : source_(std::move(source)),
      target_(std::move(target)),
      measure_(measure),
      threshold_(threshold) {}

double ComparisonOperator::Evaluate(const Entity& a, const Entity& b,
                                    const Schema& schema_a,
                                    const Schema& schema_b) const {
  ValueSet scratch_a, scratch_b;
  const ValueSet& va = source_->EvaluateRef(a, schema_a, scratch_a);
  const ValueSet& vb = target_->EvaluateRef(b, schema_b, scratch_b);
  if (va.empty() || vb.empty()) return 0.0;
  double d = measure_->Distance(va, vb);
  return ThresholdedScore(d, threshold_);
}

std::unique_ptr<SimilarityOperator> ComparisonOperator::Clone() const {
  auto clone = std::make_unique<ComparisonOperator>(source_->Clone(),
                                                    target_->Clone(), measure_,
                                                    threshold_);
  clone->set_weight(weight_);
  return clone;
}

size_t ComparisonOperator::CountOperators() const {
  return 1 + source_->CountOperators() + target_->CountOperators();
}

// ------------------------------------------------------------- Aggregation

AggregationOperator::AggregationOperator(
    const AggregationFunction* function,
    std::vector<std::unique_ptr<SimilarityOperator>> operands)
    : function_(function), operands_(std::move(operands)) {}

double AggregationOperator::Evaluate(const Entity& a, const Entity& b,
                                     const Schema& schema_a,
                                     const Schema& schema_b) const {
  if (operands_.empty()) return 0.0;
  // Stack buffers for the common small-fanout case.
  double scores_buf[8];
  double weights_buf[8];
  std::vector<double> scores_vec, weights_vec;
  double* scores = scores_buf;
  double* weights = weights_buf;
  if (operands_.size() > 8) {
    scores_vec.resize(operands_.size());
    weights_vec.resize(operands_.size());
    scores = scores_vec.data();
    weights = weights_vec.data();
  }
  for (size_t i = 0; i < operands_.size(); ++i) {
    scores[i] = operands_[i]->Evaluate(a, b, schema_a, schema_b);
    weights[i] = operands_[i]->weight();
  }
  return function_->Aggregate({scores, operands_.size()},
                              {weights, operands_.size()});
}

std::unique_ptr<SimilarityOperator> AggregationOperator::Clone() const {
  std::vector<std::unique_ptr<SimilarityOperator>> operands;
  operands.reserve(operands_.size());
  for (const auto& op : operands_) operands.push_back(op->Clone());
  auto clone =
      std::make_unique<AggregationOperator>(function_, std::move(operands));
  clone->set_weight(weight_);
  return clone;
}

size_t AggregationOperator::CountOperators() const {
  size_t n = 1;
  for (const auto& op : operands_) n += op->CountOperators();
  return n;
}

}  // namespace genlink

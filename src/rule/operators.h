// The four linkage-rule operators of Section 3 of the paper, arranged as
// a strongly typed tree (Figure 1):
//
//   value operators:      PropertyOperator, TransformOperator
//   similarity operators: ComparisonOperator, AggregationOperator
//
// A comparison holds one source-side and one target-side value operator;
// an aggregation holds similarity operators and may be nested, which is
// what makes the representation non-linear. Whether two operator
// subtrees are the same is decided by the name-based hashes of
// rule/rule_hash.h.

#ifndef GENLINK_RULE_OPERATORS_H_
#define GENLINK_RULE_OPERATORS_H_

#include <memory>
#include <string>
#include <vector>

#include "distance/distance_measure.h"
#include "model/entity.h"
#include "model/schema.h"
#include "model/value.h"
#include "rule/aggregation_function.h"
#include "transform/transformation.h"

namespace genlink {

/// Discriminator for the four operator kinds.
enum class OperatorKind {
  kProperty,
  kTransform,
  kComparison,
  kAggregation,
};

/// A value operator maps one entity to a set of discriminative values
/// (the paper's V := [A ∪ B → Σ]).
class ValueOperator {
 public:
  virtual ~ValueOperator() = default;

  virtual OperatorKind kind() const = 0;

  /// Evaluates the operator for entity `e` whose properties are described
  /// by `schema`.
  virtual ValueSet Evaluate(const Entity& e, const Schema& schema) const = 0;

  /// Allocation-avoiding variant: returns a reference to the entity's
  /// stored values when the operator is a plain property read, and
  /// otherwise evaluates into `scratch` and returns that. The returned
  /// reference is valid while both `e` and `scratch` live and `scratch`
  /// is not reused.
  virtual const ValueSet& EvaluateRef(const Entity& e, const Schema& schema,
                                      ValueSet& scratch) const {
    scratch = Evaluate(e, schema);
    return scratch;
  }

  /// Deep copy.
  virtual std::unique_ptr<ValueOperator> Clone() const = 0;

  /// Number of operators in this subtree (for parsimony pressure).
  virtual size_t CountOperators() const = 0;
};

/// Retrieves all values of a property (Definition 5). Unknown properties
/// evaluate to the empty value set.
class PropertyOperator : public ValueOperator {
 public:
  explicit PropertyOperator(std::string property)
      : property_(std::move(property)) {}

  OperatorKind kind() const override { return OperatorKind::kProperty; }
  const std::string& property() const { return property_; }
  void set_property(std::string property) { property_ = std::move(property); }

  ValueSet Evaluate(const Entity& e, const Schema& schema) const override;
  const ValueSet& EvaluateRef(const Entity& e, const Schema& schema,
                              ValueSet& scratch) const override;
  std::unique_ptr<ValueOperator> Clone() const override;
  size_t CountOperators() const override { return 1; }

 private:
  std::string property_;
};

/// Applies a transformation function to the outputs of its input value
/// operators (Definition 6). Nesting builds transformation chains.
class TransformOperator : public ValueOperator {
 public:
  TransformOperator(const Transformation* function,
                    std::vector<std::unique_ptr<ValueOperator>> inputs)
      : function_(function), inputs_(std::move(inputs)) {}

  OperatorKind kind() const override { return OperatorKind::kTransform; }
  const Transformation* function() const { return function_; }
  void set_function(const Transformation* function) { function_ = function; }

  const std::vector<std::unique_ptr<ValueOperator>>& inputs() const {
    return inputs_;
  }
  std::vector<std::unique_ptr<ValueOperator>>& mutable_inputs() { return inputs_; }

  ValueSet Evaluate(const Entity& e, const Schema& schema) const override;
  std::unique_ptr<ValueOperator> Clone() const override;
  size_t CountOperators() const override;

 private:
  const Transformation* function_;
  std::vector<std::unique_ptr<ValueOperator>> inputs_;
};

/// A similarity operator assigns a score in [0,1] to an entity pair
/// (the paper's S := [A × B → [0,1]]). Every similarity operator carries
/// a weight consumed by a parent weighted-mean aggregation.
class SimilarityOperator {
 public:
  virtual ~SimilarityOperator() = default;

  virtual OperatorKind kind() const = 0;

  /// Evaluates the operator on the pair (a, b).
  virtual double Evaluate(const Entity& a, const Entity& b,
                          const Schema& schema_a,
                          const Schema& schema_b) const = 0;

  virtual std::unique_ptr<SimilarityOperator> Clone() const = 0;
  virtual size_t CountOperators() const = 0;

  double weight() const { return weight_; }
  void set_weight(double weight) { weight_ = weight; }

 protected:
  double weight_ = 1.0;
};

/// Compares a source-side and a target-side value operator with a
/// distance measure and threshold (Definition 7). The similarity is
///   1 - d/θ  if d <= θ, else 0.
class ComparisonOperator : public SimilarityOperator {
 public:
  ComparisonOperator(std::unique_ptr<ValueOperator> source,
                     std::unique_ptr<ValueOperator> target,
                     const DistanceMeasure* measure, double threshold);

  OperatorKind kind() const override { return OperatorKind::kComparison; }

  const DistanceMeasure* measure() const { return measure_; }
  void set_measure(const DistanceMeasure* measure) { measure_ = measure; }

  double threshold() const { return threshold_; }
  void set_threshold(double threshold) { threshold_ = threshold; }

  const ValueOperator* source() const { return source_.get(); }
  const ValueOperator* target() const { return target_.get(); }
  std::unique_ptr<ValueOperator>& mutable_source() { return source_; }
  std::unique_ptr<ValueOperator>& mutable_target() { return target_; }

  double Evaluate(const Entity& a, const Entity& b, const Schema& schema_a,
                  const Schema& schema_b) const override;
  std::unique_ptr<SimilarityOperator> Clone() const override;
  size_t CountOperators() const override;

 private:
  std::unique_ptr<ValueOperator> source_;
  std::unique_ptr<ValueOperator> target_;
  const DistanceMeasure* measure_;
  double threshold_;
};

/// Combines child similarity scores with an aggregation function
/// (Definition 8). Aggregations may be nested.
class AggregationOperator : public SimilarityOperator {
 public:
  AggregationOperator(const AggregationFunction* function,
                      std::vector<std::unique_ptr<SimilarityOperator>> operands);

  OperatorKind kind() const override { return OperatorKind::kAggregation; }

  const AggregationFunction* function() const { return function_; }
  void set_function(const AggregationFunction* function) { function_ = function; }

  const std::vector<std::unique_ptr<SimilarityOperator>>& operands() const {
    return operands_;
  }
  std::vector<std::unique_ptr<SimilarityOperator>>& mutable_operands() {
    return operands_;
  }

  double Evaluate(const Entity& a, const Entity& b, const Schema& schema_a,
                  const Schema& schema_b) const override;
  std::unique_ptr<SimilarityOperator> Clone() const override;
  size_t CountOperators() const override;

 private:
  const AggregationFunction* function_;
  std::vector<std::unique_ptr<SimilarityOperator>> operands_;
};

}  // namespace genlink

#endif  // GENLINK_RULE_OPERATORS_H_

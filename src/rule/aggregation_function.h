// Aggregation functions f_a: R^n × N^n → R (Definition 8, Table 3 of the
// paper): min, max and weighted mean.
//
// Each function has two surfaces. Aggregate combines one pair's operand
// scores; the spec (AggregationOperator::Evaluate) and Score() in
// rule/rule_program.h call it. AggregateColumns combines the operand
// score columns of a block of pairs in one call; ScoreBlock, the
// engine's block evaluator, calls it. Each output element must be the
// double Aggregate returns for that element's operand scores: the same
// operations in the same operand order, nothing reassociated
// (tests/rule_test.cc, tests/rule_oracle_test.cc).

#ifndef GENLINK_RULE_AGGREGATION_FUNCTION_H_
#define GENLINK_RULE_AGGREGATION_FUNCTION_H_

#include <cstddef>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

namespace genlink {

/// Combines the scores of an aggregation operator's children into one
/// similarity score.
class AggregationFunction {
 public:
  virtual ~AggregationFunction() = default;

  /// Stable identifier used in serialized rules ("min", "max", "wmean").
  virtual std::string_view name() const = 0;

  /// Aggregates `scores` (each in [0,1]) with the corresponding
  /// `weights`. Both spans are non-empty and of equal length.
  virtual double Aggregate(std::span<const double> scores,
                           std::span<const double> weights) const = 0;

  /// Column form of Aggregate over `n` pairs: for every i < n,
  ///   out[i] = Aggregate({columns[0][i], ..., columns[k-1][i]}, weights)
  /// bit for bit. `columns` (each n doubles) and `weights` are non-empty
  /// and of equal length; `out` may alias columns[0], no other column.
  virtual void AggregateColumns(std::span<const double* const> columns,
                                std::span<const double> weights, size_t n,
                                double* out) const = 0;
};

/// min(s): equivalent to the conjunction of all child comparisons.
class MinAggregation : public AggregationFunction {
 public:
  std::string_view name() const override { return "min"; }
  double Aggregate(std::span<const double> scores,
                   std::span<const double> weights) const override;
  void AggregateColumns(std::span<const double* const> columns,
                        std::span<const double> weights, size_t n,
                        double* out) const override;
};

/// max(s): equivalent to the disjunction of all child comparisons.
class MaxAggregation : public AggregationFunction {
 public:
  std::string_view name() const override { return "max"; }
  double Aggregate(std::span<const double> scores,
                   std::span<const double> weights) const override;
  void AggregateColumns(std::span<const double* const> columns,
                        std::span<const double> weights, size_t n,
                        double* out) const override;
};

/// Weighted mean: Σ w_i s_i / Σ w_i (the linear-classifier aggregation of
/// Definition 9).
class WeightedMeanAggregation : public AggregationFunction {
 public:
  std::string_view name() const override { return "wmean"; }
  double Aggregate(std::span<const double> scores,
                   std::span<const double> weights) const override;
  void AggregateColumns(std::span<const double* const> columns,
                        std::span<const double> weights, size_t n,
                        double* out) const override;
};

/// Registry of the built-in aggregation functions.
class AggregationRegistry {
 public:
  static const AggregationRegistry& Default();

  AggregationRegistry();

  /// Returns the function with the given name, or nullptr.
  const AggregationFunction* Find(std::string_view name) const;

  const std::vector<const AggregationFunction*>& functions() const {
    return views_;
  }

 private:
  std::vector<std::unique_ptr<AggregationFunction>> functions_;
  std::vector<const AggregationFunction*> views_;
};

}  // namespace genlink

#endif  // GENLINK_RULE_AGGREGATION_FUNCTION_H_

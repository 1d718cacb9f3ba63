#include "rule/aggregation_function.h"

#include <algorithm>

namespace genlink {

double MinAggregation::Aggregate(std::span<const double> scores,
                                 std::span<const double>) const {
  double best = 1.0;
  for (double s : scores) best = std::min(best, s);
  return best;
}

void MinAggregation::AggregateColumns(std::span<const double* const> columns,
                                      std::span<const double>, size_t n,
                                      double* out) const {
  // Aggregate's fold, one operand column at a time. The first pass
  // reads columns[0][i] before it writes out[i], so out may alias it.
  for (size_t i = 0; i < n; ++i) out[i] = std::min(1.0, columns[0][i]);
  for (const double* column : columns.subspan(1)) {
    for (size_t i = 0; i < n; ++i) out[i] = std::min(out[i], column[i]);
  }
}

double MaxAggregation::Aggregate(std::span<const double> scores,
                                 std::span<const double>) const {
  double best = 0.0;
  for (double s : scores) best = std::max(best, s);
  return best;
}

void MaxAggregation::AggregateColumns(std::span<const double* const> columns,
                                      std::span<const double>, size_t n,
                                      double* out) const {
  for (size_t i = 0; i < n; ++i) out[i] = std::max(0.0, columns[0][i]);
  for (const double* column : columns.subspan(1)) {
    for (size_t i = 0; i < n; ++i) out[i] = std::max(out[i], column[i]);
  }
}

double WeightedMeanAggregation::Aggregate(std::span<const double> scores,
                                          std::span<const double> weights) const {
  double sum = 0.0;
  double weight_sum = 0.0;
  for (size_t i = 0; i < scores.size(); ++i) {
    sum += weights[i] * scores[i];
    weight_sum += weights[i];
  }
  if (weight_sum <= 0.0) return 0.0;
  return sum / weight_sum;
}

void WeightedMeanAggregation::AggregateColumns(
    std::span<const double* const> columns, std::span<const double> weights,
    size_t n, double* out) const {
  // The weight sum does not depend on the scores: Aggregate's sum in
  // operand order, taken once. Per element, the weighted scores are
  // then summed from 0.0 in operand order and divided once.
  double weight_sum = 0.0;
  for (double weight : weights) weight_sum += weight;
  if (weight_sum <= 0.0) {
    std::fill_n(out, n, 0.0);
    return;
  }
  for (size_t i = 0; i < n; ++i) out[i] = 0.0 + weights[0] * columns[0][i];
  for (size_t k = 1; k < columns.size(); ++k) {
    const double weight = weights[k];
    const double* column = columns[k];
    for (size_t i = 0; i < n; ++i) out[i] += weight * column[i];
  }
  for (size_t i = 0; i < n; ++i) out[i] /= weight_sum;
}

AggregationRegistry::AggregationRegistry() {
  auto add = [this](std::unique_ptr<AggregationFunction> fn) {
    views_.push_back(fn.get());
    functions_.push_back(std::move(fn));
  };
  add(std::make_unique<MinAggregation>());
  add(std::make_unique<MaxAggregation>());
  add(std::make_unique<WeightedMeanAggregation>());
}

const AggregationRegistry& AggregationRegistry::Default() {
  static const AggregationRegistry* registry = new AggregationRegistry();
  return *registry;
}

const AggregationFunction* AggregationRegistry::Find(std::string_view name) const {
  for (const auto* fn : views_) {
    if (fn->name() == name) return fn;
  }
  return nullptr;
}

}  // namespace genlink

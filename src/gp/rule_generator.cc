#include "gp/rule_generator.h"

#include <cassert>

namespace genlink {
namespace {

/// Probability of appending a random transformation to each property
/// of an initial comparison (the paper uses 50%).
constexpr double kTransformationProbability = 0.5;
/// Initial rules contain up to this many comparisons (the paper: 2).
constexpr int64_t kMaxInitialComparisons = 2;
/// Probability of keeping the measure that detected a compatible pair
/// (otherwise a random measure is drawn).
constexpr double kKeepDetectedMeasureProbability = 0.8;
/// Maximum integer weight assigned to operators.
constexpr int64_t kMaxWeight = 10;

}  // namespace

std::string_view RepresentationModeName(RepresentationMode mode) {
  switch (mode) {
    case RepresentationMode::kBoolean:
      return "boolean";
    case RepresentationMode::kLinear:
      return "linear";
    case RepresentationMode::kNonlinear:
      return "nonlinear";
    case RepresentationMode::kFull:
      return "full";
  }
  return "unknown";
}

RuleGenerator::RuleGenerator(std::vector<CompatiblePair> compatible_pairs,
                             std::vector<std::string> properties_a,
                             std::vector<std::string> properties_b,
                             RuleGeneratorConfig config,
                             const DistanceRegistry& distances,
                             const TransformRegistry& transforms,
                             const AggregationRegistry& aggregations)
    : compatible_pairs_(std::move(compatible_pairs)),
      properties_a_(std::move(properties_a)),
      properties_b_(std::move(properties_b)),
      config_(config),
      distances_(distances),
      transforms_(transforms),
      aggregations_(aggregations) {
  unary_transforms_ = transforms_.UnaryTransformations();
  switch (config_.mode) {
    case RepresentationMode::kBoolean:
      allowed_aggregations_ = {aggregations_.Find("min"), aggregations_.Find("max")};
      break;
    case RepresentationMode::kLinear:
      allowed_aggregations_ = {aggregations_.Find("wmean")};
      break;
    case RepresentationMode::kNonlinear:
    case RepresentationMode::kFull:
      allowed_aggregations_ = aggregations_.functions();
      break;
  }
}

const AggregationFunction* RuleGenerator::RandomAggregationFunction(Rng& rng) const {
  return allowed_aggregations_[rng.PickIndex(allowed_aggregations_.size())];
}

const DistanceMeasure* RuleGenerator::RandomMeasure(Rng& rng) const {
  const auto& measures = distances_.measures();
  return measures[rng.PickIndex(measures.size())];
}

const Transformation* RuleGenerator::RandomUnaryTransformation(Rng& rng) const {
  return unary_transforms_[rng.PickIndex(unary_transforms_.size())];
}

double RuleGenerator::RandomThreshold(const DistanceMeasure& measure,
                                      Rng& rng) const {
  double max = measure.MaxThreshold();
  double t = rng.Uniform(0.0, max);
  // Avoid degenerate zero thresholds: keep at least 2% of the range.
  return std::max(t, 0.02 * max);
}

double RuleGenerator::RandomWeight(Rng& rng) const {
  if (config_.mode == RepresentationMode::kBoolean) return 1.0;
  return static_cast<double>(rng.UniformInt(1, kMaxWeight));
}

std::unique_ptr<SimilarityOperator> RuleGenerator::RandomComparison(Rng& rng) const {
  std::string prop_a, prop_b;
  const DistanceMeasure* measure = nullptr;

  if (config_.seeded && !compatible_pairs_.empty()) {
    const CompatiblePair& pair =
        compatible_pairs_[rng.PickIndex(compatible_pairs_.size())];
    prop_a = pair.property_a;
    prop_b = pair.property_b;
    measure = rng.Bernoulli(kKeepDetectedMeasureProbability)
                  ? pair.measure
                  : RandomMeasure(rng);
  } else {
    // Fully random fallback (Table 14's "Random" configuration, and the
    // escape hatch when no compatible pair was found).
    assert(!properties_a_.empty() && !properties_b_.empty());
    prop_a = properties_a_[rng.PickIndex(properties_a_.size())];
    prop_b = properties_b_[rng.PickIndex(properties_b_.size())];
    measure = RandomMeasure(rng);
  }

  std::unique_ptr<ValueOperator> source =
      std::make_unique<PropertyOperator>(prop_a);
  std::unique_ptr<ValueOperator> target =
      std::make_unique<PropertyOperator>(prop_b);

  if (config_.mode == RepresentationMode::kFull) {
    // With probability 50%, append a random transformation to each
    // property (Section 5.1).
    if (rng.Bernoulli(kTransformationProbability)) {
      std::vector<std::unique_ptr<ValueOperator>> inputs;
      inputs.push_back(std::move(source));
      source = std::make_unique<TransformOperator>(RandomUnaryTransformation(rng),
                                                   std::move(inputs));
    }
    if (rng.Bernoulli(kTransformationProbability)) {
      std::vector<std::unique_ptr<ValueOperator>> inputs;
      inputs.push_back(std::move(target));
      target = std::make_unique<TransformOperator>(RandomUnaryTransformation(rng),
                                                   std::move(inputs));
    }
  }

  auto cmp = std::make_unique<ComparisonOperator>(
      std::move(source), std::move(target), measure,
      RandomThreshold(*measure, rng));
  cmp->set_weight(RandomWeight(rng));
  return cmp;
}

LinkageRule RuleGenerator::RandomRule(Rng& rng) const {
  // A random aggregation with up to two comparisons (Section 5.1). The
  // initial trees are intentionally small; the genetic operators grow
  // them as needed.
  size_t num_comparisons =
      static_cast<size_t>(rng.UniformInt(1, kMaxInitialComparisons));
  std::vector<std::unique_ptr<SimilarityOperator>> operands;
  operands.reserve(num_comparisons);
  for (size_t i = 0; i < num_comparisons; ++i) {
    operands.push_back(RandomComparison(rng));
  }
  auto agg = std::make_unique<AggregationOperator>(RandomAggregationFunction(rng),
                                                   std::move(operands));
  agg->set_weight(RandomWeight(rng));
  return LinkageRule(std::move(agg));
}

}  // namespace genlink

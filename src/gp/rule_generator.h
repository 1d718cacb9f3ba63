// Random linkage-rule generation (Section 5.1 of the paper): a random
// aggregation over up to two comparisons drawn from the compatible
// property list; with probability 50% a random transformation is
// appended to each property.
//
// The generator also enforces the representation restrictions evaluated
// in Table 13 (boolean / linear / non-linear / full).

#ifndef GENLINK_GP_RULE_GENERATOR_H_
#define GENLINK_GP_RULE_GENERATOR_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "distance/registry.h"
#include "gp/compatible_properties.h"
#include "rule/linkage_rule.h"
#include "transform/registry.h"

namespace genlink {

/// The four linkage-rule representations compared in Section 6.3.
enum class RepresentationMode {
  /// Flat min/max aggregation of comparisons; no transformations;
  /// unit weights (threshold-based boolean classifier, Definition 10).
  kBoolean,
  /// Single weighted-mean aggregation; no transformations (linear
  /// classifier, Definition 9).
  kLinear,
  /// Nested aggregations with all aggregation functions; no
  /// transformations.
  kNonlinear,
  /// The paper's full representation: non-linear plus transformations.
  kFull,
};

/// Returns a stable display name ("boolean", "linear", ...).
std::string_view RepresentationModeName(RepresentationMode mode);

/// Configuration of the random generator.
struct RuleGeneratorConfig {
  RepresentationMode mode = RepresentationMode::kFull;
  /// When false, compatible pairs are ignored and property pairs are
  /// drawn uniformly at random (the "Random" column of Table 14).
  bool seeded = true;
};

/// Generates random linkage rules and random rule fragments.
class RuleGenerator {
 public:
  /// `compatible_pairs` may be empty; generation then falls back to
  /// uniform property pairs from the schema property lists.
  RuleGenerator(std::vector<CompatiblePair> compatible_pairs,
                std::vector<std::string> properties_a,
                std::vector<std::string> properties_b,
                RuleGeneratorConfig config = {},
                const DistanceRegistry& distances = DistanceRegistry::Default(),
                const TransformRegistry& transforms = TransformRegistry::Default(),
                const AggregationRegistry& aggregations =
                    AggregationRegistry::Default());

  /// Generates a full random linkage rule (Section 5.1).
  LinkageRule RandomRule(Rng& rng) const;

  /// Generates a random comparison (used by rule generation and by some
  /// crossover fallbacks).
  std::unique_ptr<SimilarityOperator> RandomComparison(Rng& rng) const;

  /// Draws a random aggregation function permitted by the mode.
  const AggregationFunction* RandomAggregationFunction(Rng& rng) const;

  /// Draws a random distance measure.
  const DistanceMeasure* RandomMeasure(Rng& rng) const;

  /// Draws a random unary transformation.
  const Transformation* RandomUnaryTransformation(Rng& rng) const;

  /// Draws a random threshold for `measure` (uniform in (0, max]).
  double RandomThreshold(const DistanceMeasure& measure, Rng& rng) const;

  /// Draws a random integer weight in [1, 10] (1 in boolean mode).
  double RandomWeight(Rng& rng) const;

  const RuleGeneratorConfig& config() const { return config_; }

 private:
  std::vector<CompatiblePair> compatible_pairs_;
  std::vector<std::string> properties_a_;
  std::vector<std::string> properties_b_;
  RuleGeneratorConfig config_;
  const DistanceRegistry& distances_;
  const TransformRegistry& transforms_;
  const AggregationRegistry& aggregations_;
  std::vector<const Transformation*> unary_transforms_;
  std::vector<const AggregationFunction*> allowed_aggregations_;
};

}  // namespace genlink

#endif  // GENLINK_GP_RULE_GENERATOR_H_

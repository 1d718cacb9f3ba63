// Distance measures f_d: Σ × Σ → R (Definition 7 of the paper).
//
// A measure computes the distance between two *value sets*. Most measures
// are defined per value and lift to sets by taking the minimum over all
// value pairs (an entity matches if any of its values matches — RDF
// properties are multi-valued). Token-based measures (Jaccard, Dice,
// Cosine) compare the sets as a whole.
//
// Every measure has the reference surface
//   * Distance(const ValueSet&, const ValueSet&) — owning strings; used
//     by per-pair operator-tree evaluation and the live delta scorer's
//     set-measure sites,
// and one interned hot-path surface, chosen by IsSetMeasure():
//   * per-value measures: DistanceViews(span<string_view>,
//     span<string_view>) — non-owning views into an interned pool
//     (eval/value_store.h);
//   * set measures: TokenIdDistance over pre-sorted interned token-id
//     spans with multiplicities. A set measure must implement it;
//     DistanceViews serves per-value measures only.
// Both surfaces MUST return bit-identical doubles for equal inputs; the
// engine and every MatcherIndex surface rely on it
// (tests/distance_kernels_test.cc, tests/rule_oracle_test.cc).

#ifndef GENLINK_DISTANCE_DISTANCE_MEASURE_H_
#define GENLINK_DISTANCE_DISTANCE_MEASURE_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string_view>

#include "model/value.h"

namespace genlink {

/// Distance returned when a distance is undefined for the given input
/// (e.g. empty value sets, unparseable numbers). Comparisons treat it as
/// "beyond any threshold", yielding similarity 0.
inline constexpr double kInfiniteDistance = std::numeric_limits<double>::infinity();

/// Abstract distance measure over value sets.
class DistanceMeasure {
 public:
  virtual ~DistanceMeasure() = default;

  /// Stable identifier used in serialized rules (e.g. "levenshtein").
  virtual std::string_view name() const = 0;

  /// Distance between two value sets. Returns kInfiniteDistance when
  /// either set is empty or no pair of values is comparable. The default
  /// implementation takes the minimum of ValueDistance over all pairs.
  virtual double Distance(const ValueSet& a, const ValueSet& b) const;

  /// Same contract over non-owning views (the interned hot path of a
  /// per-value measure; never called for a set measure). `bound`: the
  /// caller only distinguishes distances <= bound; any value > bound
  /// may stand in for a larger true distance (pass kInfiniteDistance —
  /// the default — for the exact distance). The base implementation
  /// min-lifts BoundedValueDistance with early exit at 0, visiting
  /// pairs in the same order as the ValueSet overload.
  virtual double DistanceViews(std::span<const std::string_view> a,
                               std::span<const std::string_view> b,
                               double bound = kInfiniteDistance) const;

  /// Distance between two individual values. Measures that only operate
  /// on whole sets (see IsSetMeasure) need not override this.
  virtual double ValueDistance(std::string_view a, std::string_view b) const;

  /// ValueDistance with a cutoff: when the true distance exceeds
  /// `bound`, any return value > bound is allowed (kernels may stop
  /// early). Default: the exact ValueDistance.
  virtual double BoundedValueDistance(std::string_view a, std::string_view b,
                                      double bound) const {
    (void)bound;
    return ValueDistance(a, b);
  }

  /// Largest threshold θ that makes sense for this measure; the rule
  /// generator samples thresholds from (0, MaxThreshold()].
  virtual double MaxThreshold() const = 0;

  /// True when Distance() compares the value sets as a whole rather than
  /// lifting a per-value distance. Such a measure must implement
  /// TokenIdDistance.
  virtual bool IsSetMeasure() const { return false; }

  /// Set distance over interned token ids. `ids_*` are strictly
  /// increasing; `counts_*[k]` is the multiplicity of `ids_*[k]` in the
  /// original value set. Id equality is string equality (one pool, or
  /// query ids mapped into a target plan's vocabulary). Only called
  /// for set measures, with both spans non-empty.
  virtual double TokenIdDistance(std::span<const uint32_t> ids_a,
                                 std::span<const uint32_t> counts_a,
                                 std::span<const uint32_t> ids_b,
                                 std::span<const uint32_t> counts_b) const;
};

/// Similarity score of a comparison operator (Definition 7):
///   1 - d/θ  if d <= θ, else 0.
/// θ == 0 degenerates to exact match (1 if d == 0 else 0).
double ThresholdedScore(double distance, double threshold);

/// ThresholdedScore over a column: out[i] = ThresholdedScore(
/// distances[i], threshold) for every i, bit for bit. `out` holds
/// distances.size() doubles and may alias `distances`.
void ThresholdedScores(std::span<const double> distances, double threshold,
                       double* out);

}  // namespace genlink

#endif  // GENLINK_DISTANCE_DISTANCE_MEASURE_H_

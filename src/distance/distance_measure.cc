#include "distance/distance_measure.h"

#include <algorithm>
#include <cassert>

namespace genlink {

double DistanceMeasure::Distance(const ValueSet& a, const ValueSet& b) const {
  double best = kInfiniteDistance;
  for (const auto& va : a) {
    for (const auto& vb : b) {
      best = std::min(best, ValueDistance(va, vb));
      if (best == 0.0) return 0.0;
    }
  }
  return best;
}

double DistanceMeasure::DistanceViews(std::span<const std::string_view> a,
                                      std::span<const std::string_view> b,
                                      double bound) const {
  assert(!IsSetMeasure() && "set measures score through TokenIdDistance");
  // Min-lift in the same pair order as the ValueSet overload. The
  // cutoff tightens to the best distance seen: a bounded kernel may
  // return any value > its bound for larger true distances, which can
  // never lower the minimum, while distances at or below the bound are
  // exact — so the result is bit-identical to the unbounded lift
  // whenever it is <= the caller's bound, and > bound otherwise.
  double best = kInfiniteDistance;
  for (const auto& va : a) {
    for (const auto& vb : b) {
      best = std::min(best, BoundedValueDistance(va, vb, std::min(bound, best)));
      if (best == 0.0) return 0.0;
    }
  }
  return best;
}

double DistanceMeasure::ValueDistance(std::string_view, std::string_view) const {
  return kInfiniteDistance;
}

double DistanceMeasure::TokenIdDistance(std::span<const uint32_t>,
                                        std::span<const uint32_t>,
                                        std::span<const uint32_t>,
                                        std::span<const uint32_t>) const {
  return kInfiniteDistance;
}

double ThresholdedScore(double distance, double threshold) {
  if (threshold <= 0.0) return distance == 0.0 ? 1.0 : 0.0;
  if (distance > threshold) return 0.0;
  return 1.0 - distance / threshold;
}

void ThresholdedScores(std::span<const double> distances, double threshold,
                       double* out) {
  // Branch-free, so the loops vectorize. For θ > 0, rounding is
  // monotone: where d > θ the quotient d/θ rounds to at least 1, so
  // 1 - d/θ is negative or +0 and clamping it at 0 gives the scalar
  // form's 0.0; where d <= θ it rounds to at most 1, so 1 - d/θ >= +0
  // passes the clamp unchanged. std::max returns a NaN first argument,
  // as the scalar form returns NaN for a NaN distance or threshold.
  const size_t n = distances.size();
  if (threshold <= 0.0) {
    for (size_t i = 0; i < n; ++i) out[i] = distances[i] == 0.0 ? 1.0 : 0.0;
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    out[i] = std::max(1.0 - distances[i] / threshold, 0.0);
  }
}

}  // namespace genlink

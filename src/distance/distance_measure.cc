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

}  // namespace genlink

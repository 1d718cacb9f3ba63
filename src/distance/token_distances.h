// Token/set-based distances: Jaccard (Table 2), Dice and Cosine. These
// treat the whole value set as a bag of tokens; chains like
// `tokenize -> jaccard` give token-level matching as described in
// Section 3 of the paper.

#ifndef GENLINK_DISTANCE_TOKEN_DISTANCES_H_
#define GENLINK_DISTANCE_TOKEN_DISTANCES_H_

#include "distance/distance_measure.h"

namespace genlink {

/// Jaccard distance: 1 - |A ∩ B| / |A ∪ B| over distinct values.
class JaccardDistance : public DistanceMeasure {
 public:
  std::string_view name() const override { return "jaccard"; }
  double Distance(const ValueSet& a, const ValueSet& b) const override;
  double MaxThreshold() const override { return 1.0; }
  bool IsSetMeasure() const override { return true; }
  double TokenIdDistance(std::span<const uint32_t> ids_a,
                         std::span<const uint32_t> counts_a,
                         std::span<const uint32_t> ids_b,
                         std::span<const uint32_t> counts_b) const override;
};

/// Dice distance: 1 - 2|A ∩ B| / (|A| + |B|) over distinct values.
class DiceDistance : public DistanceMeasure {
 public:
  std::string_view name() const override { return "dice"; }
  double Distance(const ValueSet& a, const ValueSet& b) const override;
  double MaxThreshold() const override { return 1.0; }
  bool IsSetMeasure() const override { return true; }
  double TokenIdDistance(std::span<const uint32_t> ids_a,
                         std::span<const uint32_t> counts_a,
                         std::span<const uint32_t> ids_b,
                         std::span<const uint32_t> counts_b) const override;
};

/// Cosine distance: 1 - cosine similarity of token count vectors.
class CosineDistance : public DistanceMeasure {
 public:
  std::string_view name() const override { return "cosine"; }
  double Distance(const ValueSet& a, const ValueSet& b) const override;
  double MaxThreshold() const override { return 1.0; }
  bool IsSetMeasure() const override { return true; }
  double TokenIdDistance(std::span<const uint32_t> ids_a,
                         std::span<const uint32_t> counts_a,
                         std::span<const uint32_t> ids_b,
                         std::span<const uint32_t> counts_b) const override;
};

/// Number of common ids of two strictly increasing id spans (merge walk;
/// shared by the TokenIdDistance implementations).
size_t SortedIdIntersectionSize(std::span<const uint32_t> a,
                                std::span<const uint32_t> b);

}  // namespace genlink

#endif  // GENLINK_DISTANCE_TOKEN_DISTANCES_H_

#include "gp/population.h"

#include <cassert>

namespace genlink {

size_t Population::BestIndex() const {
  assert(!individuals_.empty());
  size_t best = 0;
  for (size_t i = 1; i < individuals_.size(); ++i) {
    if (individuals_[i].fitness.fitness > individuals_[best].fitness.fitness) {
      best = i;
    }
  }
  return best;
}

double Population::MeanOperatorCount() const {
  if (individuals_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& ind : individuals_) {
    // lint:allow(float-accum) -- serial loop over the population vector in index order
    sum += static_cast<double>(ind.rule.OperatorCount());
  }
  return sum / static_cast<double>(individuals_.size());
}

}  // namespace genlink

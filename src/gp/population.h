// Population of candidate linkage rules with cached fitness. The
// learner (gp/islands.cc) fills the fitness of unevaluated individuals
// through the evaluation engine (eval/engine.h).

#ifndef GENLINK_GP_POPULATION_H_
#define GENLINK_GP_POPULATION_H_

#include <vector>

#include "eval/fitness.h"
#include "rule/linkage_rule.h"

namespace genlink {

/// One candidate solution.
struct Individual {
  LinkageRule rule;
  FitnessResult fitness;
  bool evaluated = false;
};

/// A generation of candidate rules.
class Population {
 public:
  Population() = default;
  explicit Population(std::vector<Individual> individuals)
      : individuals_(std::move(individuals)) {}

  size_t size() const { return individuals_.size(); }
  bool empty() const { return individuals_.empty(); }

  Individual& operator[](size_t i) { return individuals_[i]; }
  const Individual& operator[](size_t i) const { return individuals_[i]; }

  std::vector<Individual>& individuals() { return individuals_; }
  const std::vector<Individual>& individuals() const { return individuals_; }

  void Add(Individual individual) { individuals_.push_back(std::move(individual)); }

  /// Pre-allocates room for `capacity` individuals. The breeding loop
  /// reserves the full population size up front so a generation is bred
  /// without a single vector reallocation.
  void Reserve(size_t capacity) { individuals_.reserve(capacity); }

  /// Drops all individuals but keeps the allocation, so a population
  /// object can be reused as the breeding buffer of the next generation
  /// (no per-generation vector churn).
  void Clear() { individuals_.clear(); }

  /// Index of the individual with the highest fitness. Requires a
  /// non-empty, evaluated population.
  size_t BestIndex() const;

  /// Mean operator count across the population (bloat metric).
  double MeanOperatorCount() const;

 private:
  std::vector<Individual> individuals_;
};

}  // namespace genlink

#endif  // GENLINK_GP_POPULATION_H_

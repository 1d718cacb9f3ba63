// The GenLink learning algorithm (Algorithm 1 of the paper).
//
// Starting from a seeded initial population, each generation breeds a new
// population: two rules are picked by tournament selection, a random
// specialized crossover operator is applied, and with the mutation
// probability the second parent is replaced by a freshly generated
// random rule (headless-chicken crossover). Evolution stops at the
// iteration limit or when a rule reaches the full training F-measure.

#ifndef GENLINK_GP_GENLINK_H_
#define GENLINK_GP_GENLINK_H_

#include <atomic>
#include <functional>
#include <memory>
#include <utility>

#include "eval/cross_validation.h"
#include "eval/engine.h"
#include "eval/fitness.h"
#include "gp/compatible_properties.h"
#include "gp/crossover.h"
#include "gp/population.h"
#include "gp/rule_generator.h"
#include "model/dataset.h"
#include "model/reference_links.h"

namespace genlink {

/// All parameters of the learner. Defaults are the paper's Table 4
/// values; they are meant to work unchanged across data sets.
struct GenLinkConfig {
  size_t population_size = 500;
  size_t max_iterations = 50;
  size_t tournament_size = 5;
  /// Probability that a breeding event is a mutation, i.e. crossover with
  /// a random rule (the paper: 25%; the remaining 75% are crossovers).
  double mutation_probability = 0.25;
  /// Stop as soon as the best training F-measure reaches this value.
  double stop_f_measure = 1.0;

  /// Representation restriction (Table 13 ablation).
  RepresentationMode mode = RepresentationMode::kFull;
  /// Seeded vs fully random initial population (Table 14 ablation).
  bool seeded_population = true;
  /// Replace the specialized operator set with plain subtree crossover
  /// (Table 15 ablation).
  bool subtree_crossover_only = false;

  /// Number of best individuals copied unchanged into the next
  /// generation. Algorithm 1 as printed has no elitism; the Silk
  /// implementation preserves the best rule, which we follow (set to 0
  /// for the verbatim algorithm).
  size_t elitism = 1;
  /// Children exceeding this operator count are rejected (bloat guard on
  /// top of the parsimony pressure).
  size_t max_operators = 50;

  FitnessConfig fitness;
  CompatiblePropertyConfig seeding;

  /// Worker threads for fitness evaluation (0 = hardware concurrency).
  size_t num_threads = 0;

  /// Number of populations. Learn evolves one population (Algorithm 1)
  /// and rejects any other value with InvalidArgument; the field is
  /// kept only for callers that still assign it.
  size_t num_islands = 1;

  /// External interrupt (may be set from a signal handler): when
  /// non-null and true, learning finishes the current generation and
  /// returns the best rule found so far with the trajectory recorded
  /// up to that point (LearnResult::interrupted is set). The flag is
  /// only ever *read* here; the CLI's SIGINT/SIGTERM handling owns the
  /// write side. Null = run to completion.
  const std::atomic<bool>* stop_requested = nullptr;
};

/// Output of one learning run.
struct LearnResult {
  LinkageRule best_rule;
  RunTrajectory trajectory;
  /// Mean F-measure of the rules in the initial population (the
  /// quantity Table 14 reports).
  double initial_population_mean_f1 = 0.0;
  /// Compatible pairs found by the seeding step (empty when unseeded).
  std::vector<CompatiblePair> compatible_pairs;
  /// Final counters of the evaluation engine (cache hit rates etc.).
  EngineStats eval_stats;
  /// True when the run ended because GenLinkConfig::stop_requested
  /// fired rather than by iteration budget or stop_f_measure; the best
  /// rule is still the best of the completed generations.
  bool interrupted = false;
};

/// Per-iteration observer (iteration stats plus read access to the
/// population).
using IterationCallback =
    std::function<void(const IterationStats&, const Population&)>;

/// The GenLink learner for one pair of datasets.
class GenLink {
 public:
  GenLink(const Dataset& a, const Dataset& b, GenLinkConfig config = {})
      : a_(&a), b_(&b), config_(std::move(config)) {}

  /// Learns a linkage rule from `train` (gp/genlink.cc). When
  /// `validation` is non-null, per-iteration validation scores of the
  /// current best rule are recorded in the trajectory. `callback`
  /// receives each iteration's stats and the population; it may be
  /// null. Fails with InvalidArgument when `population_size` is 0 or
  /// `num_islands` is not 1.
  Result<LearnResult> Learn(const ReferenceLinkSet& train,
                            const ReferenceLinkSet* validation, Rng& rng,
                            const IterationCallback& callback = nullptr) const;

  const GenLinkConfig& config() const { return config_; }

 private:
  const Dataset* a_;
  const Dataset* b_;
  GenLinkConfig config_;
};

}  // namespace genlink

#endif  // GENLINK_GP_GENLINK_H_

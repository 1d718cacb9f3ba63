// GenLink::Learn: the GenLink evolution loop (Algorithm 1 of the
// paper) over one population.
//
// Every random draw comes from the caller's RNG in a fixed order:
// seeding, the initial population, then each generation's breeding.
// Fitness goes through the memoized evaluation engine, whose batches
// are bit-identical at any thread count, and breeding is serial, so a
// seed fixes the whole run. The trajectory goldens
// (tests/golden/learn_*.txt) pin that order bit for bit at threads
// {1, 4, 8}.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "eval/metrics.h"
#include "gp/genlink.h"
#include "gp/selection.h"
#include "rule/rule_hash.h"
#include "rule/serialize.h"

namespace genlink {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Everything the evolution loop needs besides the population. Built
// once per Learn call; the engine span points into `train_pairs`, whose
// heap buffer is stable under moves of the struct.
struct SearchSetup {
  std::vector<LabeledPair> train_pairs;
  std::vector<LabeledPair> val_pairs;
  std::vector<CompatiblePair> compatible_pairs;
  std::unique_ptr<EvaluationEngine> engine;
  std::unique_ptr<RuleGenerator> generator;
  std::vector<std::unique_ptr<CrossoverOperator>> crossover_set;
};

// Resolves the labelled pairs, builds the engine, runs the seeding step
// (Section 5.1 / Algorithm 2), which draws from `rng` before the
// initial population does, and constructs the rule generator and
// crossover set.
Result<SearchSetup> PrepareSearch(const Dataset& a, const Dataset& b,
                                  const GenLinkConfig& config,
                                  const ReferenceLinkSet& train,
                                  const ReferenceLinkSet* validation,
                                  Rng& rng) {
  SearchSetup setup;

  auto train_pairs = train.Resolve(a, b);
  if (!train_pairs.ok()) return train_pairs.status();
  setup.train_pairs = std::move(*train_pairs);

  if (validation != nullptr) {
    auto resolved = validation->Resolve(a, b);
    if (!resolved.ok()) return resolved.status();
    setup.val_pairs = std::move(*resolved);
  }

  EngineConfig engine_config;
  engine_config.num_threads = config.num_threads;
  setup.engine = std::make_unique<EvaluationEngine>(
      setup.train_pairs, a.schema(), b.schema(), config.fitness, engine_config);

  // --- Seeding (Section 5.1 / Algorithm 2).
  if (config.seeded_population) {
    setup.compatible_pairs =
        FindCompatibleProperties(a, b, train, config.seeding, rng);
  }
  RuleGeneratorConfig gen_config;
  gen_config.mode = config.mode;
  gen_config.seeded =
      config.seeded_population && !setup.compatible_pairs.empty();
  setup.generator = std::make_unique<RuleGenerator>(
      setup.compatible_pairs, a.schema().property_names(),
      b.schema().property_names(), gen_config);

  setup.crossover_set =
      MakeCrossoverSet(config.mode, config.subtree_crossover_only);
  return setup;
}

// Breeds one generation from `population` into `next` (Algorithm 1's
// inner loop: elitism, tournament selection, specialized crossover,
// headless-chicken mutation, duplicate suppression). `next` is a reused
// buffer: it is cleared but keeps its allocation, so after the first
// generation breeding does not reallocate.
void BreedNextGeneration(
    const Population& population, Population& next,
    const RuleGenerator& generator,
    const std::vector<std::unique_ptr<CrossoverOperator>>& crossover_set,
    const GenLinkConfig& config, Rng& rng) {
  next.Clear();
  next.Reserve(config.population_size);

  // Elitism: carry over the best individuals unchanged.
  if (config.elitism > 0) {
    std::vector<size_t> order(population.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::partial_sort(order.begin(),
                      order.begin() + std::min(config.elitism, order.size()),
                      order.end(), [&](size_t x, size_t y) {
                        return population[x].fitness.fitness >
                               population[y].fitness.fitness;
                      });
    for (size_t e = 0; e < std::min(config.elitism, order.size()); ++e) {
      const Individual& elite = population[order[e]];
      next.Add(Individual{elite.rule.Clone(), elite.fitness, true});
    }
  }

  // Rule hashes (CanonicalRuleHash) already in the next generation.
  // Suppressing duplicates keeps the population diverse: without it,
  // tournament selection floods the population with copies of the
  // current best rule within a few generations and recombination has
  // no material left to discover multi-comparison rules.
  std::unordered_set<uint64_t> seen;
  for (const auto& individual : next.individuals()) {
    seen.insert(CanonicalRuleHash(individual.rule));
  }

  while (next.size() < config.population_size) {
    const LinkageRule& parent1 =
        population[TournamentSelect(population, config.tournament_size, rng)]
            .rule;
    const LinkageRule& parent2 =
        population[TournamentSelect(population, config.tournament_size, rng)]
            .rule;

    LinkageRule child;
    bool produced = false;
    // A drawn operator can be inapplicable (e.g. transformation
    // crossover without transformations), produce an oversized or
    // invalid child, or duplicate an existing individual; redraw a few
    // times before falling back to reproduction.
    for (int attempt = 0; attempt < 6 && !produced; ++attempt) {
      const CrossoverOperator& op =
          *crossover_set[rng.PickIndex(crossover_set.size())];
      std::optional<LinkageRule> bred;
      if (rng.Bernoulli(config.mutation_probability)) {
        // Headless-chicken mutation: cross with a random rule.
        LinkageRule random_rule = generator.RandomRule(rng);
        bred = op.Cross(parent1, random_rule, rng);
      } else {
        bred = op.Cross(parent1, parent2, rng);
      }
      if (bred.has_value() && bred->OperatorCount() <= config.max_operators &&
          bred->Validate().ok()) {
        // Keep the Silk invariant: rules are aggregation-rooted, so
        // that operators crossover can always recombine comparisons.
        EnsureAggregationRoot(*bred, generator.RandomAggregationFunction(rng));
        if (!seen.insert(CanonicalRuleHash(*bred)).second) continue;
        child = std::move(*bred);
        produced = true;
      }
    }
    if (!produced) {
      // Fall back to a fresh random rule rather than a clone: clones
      // would reintroduce exactly the duplicates we just rejected.
      child = generator.RandomRule(rng);
      seen.insert(CanonicalRuleHash(child));
    }
    next.Add(Individual{std::move(child), {}, false});
  }
}

// Scores every unevaluated individual of `population` through one
// engine batch, in population order.
void EvaluatePopulation(Population& population, EvaluationEngine& engine) {
  std::vector<size_t> where;
  std::vector<const LinkageRule*> rules;
  for (size_t k = 0; k < population.size(); ++k) {
    if (population[k].evaluated) continue;
    where.push_back(k);
    rules.push_back(&population[k].rule);
  }
  std::vector<FitnessResult> results(rules.size());
  engine.EvaluateBatch(rules, results);
  for (size_t n = 0; n < where.size(); ++n) {
    population[where[n]].fitness = results[n];
    population[where[n]].evaluated = true;
  }
}

}  // namespace

Result<LearnResult> GenLink::Learn(const ReferenceLinkSet& train,
                                   const ReferenceLinkSet* validation, Rng& rng,
                                   const IterationCallback& callback) const {
  if (config_.population_size == 0) {
    return Status::InvalidArgument(
        "GenLinkConfig::population_size must be at least 1");
  }
  if (config_.num_islands != 1) {
    return Status::InvalidArgument(
        "GenLinkConfig::num_islands must be 1: Learn evolves one population");
  }
  const Dataset& a = *a_;
  const Dataset& b = *b_;
  const GenLinkConfig& config = config_;
  auto start = Clock::now();

  auto setup = PrepareSearch(a, b, config, train, validation, rng);
  if (!setup.ok()) return setup.status();
  EvaluationEngine& engine = *setup->engine;
  const RuleGenerator& generator = *setup->generator;

  LearnResult result;
  result.compatible_pairs = setup->compatible_pairs;

  // --- Initial population. `next` is the breeding double-buffer.
  Population population;
  Population next;
  population.Reserve(config.population_size);
  for (size_t k = 0; k < config.population_size; ++k) {
    population.Add(Individual{generator.RandomRule(rng), {}, false});
  }
  EvaluatePopulation(population, engine);

  double f1_sum = 0.0;
  for (const auto& individual : population.individuals()) {
    // lint:allow(float-accum) -- serial loop over the population in index order
    f1_sum += individual.fitness.f_measure;
  }
  result.initial_population_mean_f1 =
      f1_sum / static_cast<double>(population.size());

  // Validation scores of previously seen best rules (rule hash ->
  // {val_f1, val_mcc}). The per-generation best rule rarely changes, so
  // this memo removes almost all validation scoring from the
  // per-iteration stats; the values are bit-identical, just not
  // recomputed.
  std::unordered_map<uint64_t, std::pair<double, double>> val_memo;

  // Records the stats of the current best rule (`iteration` 0 is the
  // initial population, matching the tables in Section 6.2 of the
  // paper).
  auto record = [&](size_t iteration) {
    const Individual& best = population[population.BestIndex()];
    IterationStats stats;
    stats.iteration = iteration;
    stats.seconds = SecondsSince(start);
    stats.train_f1 = best.fitness.f_measure;
    stats.train_mcc = best.fitness.mcc;
    stats.mean_operators = population.MeanOperatorCount();
    stats.best_operators = static_cast<double>(best.rule.OperatorCount());
    if (!setup->val_pairs.empty()) {
      auto [it, missing] = val_memo.try_emplace(CanonicalRuleHash(best.rule));
      if (missing) {
        ConfusionMatrix cm = EvaluateRuleOnPairs(best.rule, setup->val_pairs,
                                                 a.schema(), b.schema());
        it->second = {FMeasure(cm), MatthewsCorrelation(cm)};
      }
      stats.val_f1 = it->second.first;
      stats.val_mcc = it->second.second;
    }
    result.trajectory.iterations.push_back(stats);
    if (callback) callback(stats, population);
  };

  record(0);

  auto reached_stop = [&] {
    return result.trajectory.iterations.back().train_f1 >=
           config.stop_f_measure;
  };
  // External interrupt (GenLinkConfig::stop_requested): checked only at
  // generation boundaries, so an interrupted run still ends on a fully
  // evaluated population.
  auto interrupted = [&config] {
    return config.stop_requested != nullptr &&
           config.stop_requested->load(std::memory_order_relaxed);
  };

  // --- Evolution loop (Algorithm 1).
  for (size_t iteration = 1; iteration <= config.max_iterations &&
                             !reached_stop() && !interrupted();
       ++iteration) {
    BreedNextGeneration(population, next, generator, setup->crossover_set,
                        config, rng);
    std::swap(population, next);
    EvaluatePopulation(population, engine);
    record(iteration);
  }

  const Individual& best = population[population.BestIndex()];
  result.eval_stats = engine.stats();
  result.interrupted = interrupted();
  result.best_rule = best.rule.Clone();
  result.trajectory.best_rule_sexpr = ToPrettySexpr(result.best_rule);
  result.trajectory.final_val_f1 = result.trajectory.iterations.back().val_f1;
  return result;
}

}  // namespace genlink

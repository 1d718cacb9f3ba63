#include "gp/islands.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "eval/metrics.h"
#include "gp/selection.h"
#include "rule/serialize.h"

namespace genlink {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Everything the evolution loop needs that is independent of the
// population organization. Built once per Learn call; the engine span
// points into `train_pairs`, whose heap buffer is stable under moves of
// the struct.
struct SearchSetup {
  std::vector<LabeledPair> train_pairs;
  std::vector<LabeledPair> val_pairs;
  std::vector<CompatiblePair> compatible_pairs;
  std::unique_ptr<EvaluationEngine> engine;
  std::unique_ptr<RuleGenerator> generator;
  std::vector<std::unique_ptr<CrossoverOperator>> crossover_set;
};

// Resolves the labelled pairs, builds the shared engine and — drawing
// from the master RNG exactly like the legacy loop did — runs the
// seeding step (Section 5.1 / Algorithm 2) and constructs the rule
// generator and crossover set.
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
  engine_config.cache_fitness = config.cache_fitness;
  engine_config.cache_distances = config.cache_distances;
  setup.engine = std::make_unique<EvaluationEngine>(
      setup.train_pairs, a.schema(), b.schema(), config.fitness, engine_config);

  // --- Seeding (Section 5.1 / Algorithm 2).
  if (config.seeded_population) {
    setup.compatible_pairs =
        FindCompatibleProperties(a, b, train, config.seeding, rng);
  }
  RuleGeneratorConfig gen_config = config.generator;
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

  // Structural hashes already present in the next generation.
  // Suppressing duplicates keeps the population diverse: without it,
  // tournament selection floods the population with copies of the
  // current best rule within a few generations and recombination has
  // no material left to discover multi-comparison rules.
  std::unordered_set<uint64_t> seen;
  for (const auto& individual : next.individuals()) {
    seen.insert(individual.rule.StructuralHash());
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
        if (!seen.insert(bred->StructuralHash()).second) continue;
        child = std::move(*bred);
        produced = true;
      }
    }
    if (!produced) {
      // Fall back to a fresh random rule rather than a clone: clones
      // would reintroduce exactly the duplicates we just rejected.
      child = generator.RandomRule(rng);
      seen.insert(child.StructuralHash());
    }
    next.Add(Individual{std::move(child), {}, false});
  }
}

// ------------------------------------------------------------ islands

// One island: a population, its breeding double-buffer, its RNG stream
// and its trajectory. `stream` points at `rng`, except in the
// single-island configuration where it points at the master RNG so the
// draw sequence matches the legacy loop exactly.
struct Island {
  Population population;
  Population scratch;
  Rng rng{0};
  Rng* stream = nullptr;
  RunTrajectory trajectory;
  IterationStats last;
  /// Validation scores of previously seen best rules (structural hash
  /// -> {val_f1, val_mcc}). The per-generation best rule rarely
  /// changes, so this memo removes almost all validation scoring from
  /// the per-iteration stats — the values are bit-identical, they are
  /// just not recomputed.
  std::unordered_map<uint64_t, std::pair<double, double>> val_memo;
};

// Cross-island coordination state of one LearnIslands run. Everything
// else an island task touches is that island's own (population, RNG
// stream, trajectory — disjoint by index, see the determinism
// invariants in the header); the two pieces that ARE shared live here,
// each with its concurrency regime made explicit.
struct SearchPhaseState {
  /// The global early-stop flag: set by any island's record task once
  /// that island's best rule reaches stop_f_measure, read only in the
  /// serial loop conditions between generations. A one-way monotonic
  /// flag written with relaxed stores: concurrent tasks only ever
  /// write `true`, so the value observed after the parallel phase
  /// joins is the OR of the per-island conditions — deterministic for
  /// any thread count.
  std::atomic<bool> early_stop{false};
  /// Serial-phase discipline token (common/mutex.h): held by the main
  /// thread between parallel sections. Guards the migration buffers so
  /// `clang -Wthread-safety` rejects any attempt to migrate from
  /// inside a breeding or record task.
  PhaseRole serial_phase;
  /// Reused per-island emigrant buffers, filled and consumed by
  /// Migrate in the serial phase between generations.
  std::vector<std::vector<Individual>> migration_buffers
      GENLINK_GUARDED_BY(serial_phase);
};

// Evaluates every unevaluated individual of every island through ONE
// engine batch (islands in index order, individuals in population
// order). Cross-island duplicates dedup inside the batch and all
// islands share the fitness memo and distance rows. For a single
// island this is exactly EvaluatePopulation.
void EvaluateIslands(std::vector<Island>& islands, EvaluationEngine& engine) {
  std::vector<std::pair<size_t, size_t>> where;  // (island, individual)
  std::vector<const LinkageRule*> rules;
  for (size_t i = 0; i < islands.size(); ++i) {
    Population& population = islands[i].population;
    for (size_t k = 0; k < population.size(); ++k) {
      if (population[k].evaluated) continue;
      where.push_back({i, k});
      rules.push_back(&population[k].rule);
    }
  }
  std::vector<FitnessResult> results(rules.size());
  engine.EvaluateBatch(rules, results);
  for (size_t n = 0; n < where.size(); ++n) {
    Individual& individual = islands[where[n].first].population[where[n].second];
    individual.fitness = results[n];
    individual.evaluated = true;
  }
}

// Index of the island whose best individual has the highest fitness —
// the island that provides the merged trajectory's stats and the final
// best rule. Ties resolve to the lowest island index, deterministically.
size_t LeaderIndex(const std::vector<Island>& islands) {
  size_t leader = 0;
  double leader_fitness = 0.0;
  for (size_t i = 0; i < islands.size(); ++i) {
    const Population& population = islands[i].population;
    double best = population[population.BestIndex()].fitness.fitness;
    if (i == 0 || best > leader_fitness) {
      leader = i;
      leader_fitness = best;
    }
  }
  return leader;
}

// Ring migration: the best `migration_size` rules of island i replace
// the worst rules of island (i+1) mod K. All emigrant sets are selected
// from the pre-migration populations before any replacement is applied,
// so the result is independent of the visit order. Both selections are
// tie-broken by the structural hash, which is name-based and therefore
// stable across processes — the same seed migrates the same rules in
// every run.
void Migrate(std::vector<Island>& islands, size_t migration_size,
             SearchPhaseState& state)
    GENLINK_REQUIRES(state.serial_phase) {
  const size_t num_islands = islands.size();
  std::vector<std::vector<Individual>>& emigrants = state.migration_buffers;
  emigrants.resize(num_islands);
  for (size_t i = 0; i < num_islands; ++i) {
    emigrants[i].clear();
    const Population& population = islands[i].population;
    const size_t count = std::min(migration_size, population.size());
    std::vector<size_t> order(population.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::partial_sort(order.begin(), order.begin() + count, order.end(),
                      [&](size_t x, size_t y) {
                        if (population[x].fitness.fitness !=
                            population[y].fitness.fitness) {
                          return population[x].fitness.fitness >
                                 population[y].fitness.fitness;
                        }
                        return population[x].rule.StructuralHash() <
                               population[y].rule.StructuralHash();
                      });
    emigrants[i].reserve(count);
    for (size_t k = 0; k < count; ++k) {
      const Individual& source = population[order[k]];
      emigrants[i].push_back(
          Individual{source.rule.Clone(), source.fitness, true});
    }
  }
  for (size_t j = 0; j < num_islands; ++j) {
    std::vector<Individual>& incoming =
        emigrants[(j + num_islands - 1) % num_islands];
    Population& population = islands[j].population;
    const size_t count = std::min(incoming.size(), population.size());
    std::vector<size_t> order(population.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::partial_sort(order.begin(), order.begin() + count, order.end(),
                      [&](size_t x, size_t y) {
                        if (population[x].fitness.fitness !=
                            population[y].fitness.fitness) {
                          return population[x].fitness.fitness <
                                 population[y].fitness.fitness;
                        }
                        return population[x].rule.StructuralHash() >
                               population[y].rule.StructuralHash();
                      });
    for (size_t k = 0; k < count; ++k) {
      population[order[k]] = std::move(incoming[k]);
    }
  }
}

}  // namespace

Result<LearnResult> LearnIslands(const Dataset& a, const Dataset& b,
                                 const GenLinkConfig& config,
                                 const ReferenceLinkSet& train,
                                 const ReferenceLinkSet* validation, Rng& rng,
                                 const IterationCallback& callback) {
  auto start = Clock::now();
  const size_t num_islands = std::max<size_t>(1, config.num_islands);

  auto setup = PrepareSearch(a, b, config, train, validation, rng);
  if (!setup.ok()) return setup.status();
  EvaluationEngine& engine = *setup->engine;
  const RuleGenerator& generator = *setup->generator;
  ThreadPool& pool = engine.pool();

  LearnResult result;
  result.compatible_pairs = setup->compatible_pairs;
  SearchPhaseState state;

  // --- Island setup. The single-island stream IS the master RNG (the
  // legacy draw order); K > 1 splits one child stream per island off
  // the master, in island order.
  std::vector<Island> islands(num_islands);
  if (num_islands == 1) {
    islands[0].stream = &rng;
  } else {
    for (Island& island : islands) {
      island.rng = rng.Fork();
      island.stream = &island.rng;
    }
  }

  // --- Initial populations, one breeding task per island: each task
  // draws only from its own stream and writes only its own island, so
  // results do not depend on the scheduling.
  pool.ParallelForEach(num_islands, [&](size_t i) {
    Island& island = islands[i];
    island.population.Reserve(config.population_size);
    island.scratch.Reserve(config.population_size);
    for (size_t k = 0; k < config.population_size; ++k) {
      island.population.Add(
          Individual{generator.RandomRule(*island.stream), {}, false});
    }
  });
  EvaluateIslands(islands, engine);

  {
    double f1_sum = 0.0;
    size_t total = 0;
    for (const Island& island : islands) {
      for (const auto& individual : island.population.individuals()) {
        // lint:allow(float-accum) -- serial phase, fixed island/individual order for any thread count
        f1_sum += individual.fitness.f_measure;
      }
      total += island.population.size();
    }
    result.initial_population_mean_f1 =
        total == 0 ? 0.0 : f1_sum / static_cast<double>(total);
  }

  // Records per-iteration statistics for every island plus the merged
  // view (the leading island's stats; `iteration` 0 is the initial
  // population, matching the tables in Section 6.2 of the paper). Any
  // island whose best rule reaches stop_f_measure raises the global
  // early-stop flag, which drives the serial loop conditions below.
  // The per-island computation — validation scoring is the expensive
  // part — runs one task per island; each task touches only its own
  // island (plus the monotonic flag), so the stats are
  // scheduling-independent, and the merge below is serial.
  auto record = [&](size_t iteration) {
    const double seconds = SecondsSince(start);
    pool.ParallelForEach(num_islands, [&](size_t i) {
      Island& island = islands[i];
      const Individual& best_ind =
          island.population[island.population.BestIndex()];
      IterationStats stats;
      stats.iteration = iteration;
      stats.seconds = seconds;
      stats.train_f1 = best_ind.fitness.f_measure;
      stats.train_mcc = best_ind.fitness.mcc;
      stats.mean_operators = island.population.MeanOperatorCount();
      stats.best_operators =
          static_cast<double>(best_ind.rule.OperatorCount());
      if (!setup->val_pairs.empty()) {
        auto [it, missing] =
            island.val_memo.try_emplace(best_ind.rule.StructuralHash());
        if (missing) {
          ConfusionMatrix cm = EvaluateRuleOnPairs(
              best_ind.rule, setup->val_pairs, a.schema(), b.schema());
          it->second = {FMeasure(cm), MatthewsCorrelation(cm)};
        }
        stats.val_f1 = it->second.first;
        stats.val_mcc = it->second.second;
      }
      island.trajectory.iterations.push_back(stats);
      island.last = stats;
      if (stats.train_f1 >= config.stop_f_measure) {
        // One-way flag; OR across islands, order-independent.
        state.early_stop.store(true, std::memory_order_relaxed);
      }
    });

    const size_t leader = LeaderIndex(islands);
    double operator_sum = 0.0;
    size_t total = 0;
    for (const Island& island : islands) {
      // Same accumulation order as Population::MeanOperatorCount, so a
      // single island reproduces the legacy mean bit for bit.
      for (const auto& individual : island.population.individuals()) {
        // lint:allow(float-accum) -- serial merge phase, fixed island/population order
        operator_sum += static_cast<double>(individual.rule.OperatorCount());
      }
      total += island.population.size();
    }
    IterationStats merged = islands[leader].last;
    merged.mean_operators =
        total == 0 ? 0.0 : operator_sum / static_cast<double>(total);
    result.trajectory.iterations.push_back(merged);
    if (callback) callback(merged, islands[leader].population);
  };

  record(0);

  // External interrupt (GenLinkConfig::stop_requested): checked only at
  // generation boundaries, in the serial phase, so an interrupted run
  // still ends on a fully evaluated population.
  auto interrupted = [&config] {
    return config.stop_requested != nullptr &&
           config.stop_requested->load(std::memory_order_relaxed);
  };

  // --- Evolution loop (Algorithm 1 per island). Breeding runs one
  // task per island on the shared pool; evaluation is one cross-island
  // engine batch; migration happens in the serial phase between
  // generations.
  for (size_t iteration = 1;
       iteration <= config.max_iterations &&
       !state.early_stop.load(std::memory_order_relaxed) && !interrupted();
       ++iteration) {
    pool.ParallelForEach(num_islands, [&](size_t i) {
      Island& island = islands[i];
      BreedNextGeneration(island.population, island.scratch, generator,
                          setup->crossover_set, config, *island.stream);
      std::swap(island.population, island.scratch);
    });
    EvaluateIslands(islands, engine);
    record(iteration);

    if (num_islands > 1 && config.migration_interval > 0 &&
        config.migration_size > 0 &&
        iteration % config.migration_interval == 0 &&
        iteration < config.max_iterations &&
        !state.early_stop.load(std::memory_order_relaxed) && !interrupted()) {
      PhaseGuard serial(state.serial_phase);
      Migrate(islands, config.migration_size, state);
    }
  }

  // --- Global best: the leading island's best individual.
  const Population& winning = islands[LeaderIndex(islands)].population;
  const Individual& best = winning[winning.BestIndex()];
  result.eval_stats = engine.stats();
  result.interrupted = interrupted();
  result.best_rule = best.rule.Clone();
  result.trajectory.best_rule_sexpr = ToPrettySexpr(result.best_rule);
  result.trajectory.final_val_f1 =
      result.trajectory.iterations.empty()
          ? 0.0
          : result.trajectory.iterations.back().val_f1;
  result.island_trajectories.reserve(num_islands);
  for (Island& island : islands) {
    island.trajectory.best_rule_sexpr = ToPrettySexpr(
        island.population[island.population.BestIndex()].rule);
    island.trajectory.final_val_f1 =
        island.trajectory.iterations.empty()
            ? 0.0
            : island.trajectory.iterations.back().val_f1;
    result.island_trajectories.push_back(std::move(island.trajectory));
  }
  return result;
}

Result<LearnResult> LearnSinglePopulation(const Dataset& a, const Dataset& b,
                                          const GenLinkConfig& config,
                                          const ReferenceLinkSet& train,
                                          const ReferenceLinkSet* validation,
                                          Rng& rng,
                                          const IterationCallback& callback) {
  auto start = Clock::now();

  auto setup = PrepareSearch(a, b, config, train, validation, rng);
  if (!setup.ok()) return setup.status();
  EvaluationEngine& engine = *setup->engine;
  const RuleGenerator& generator = *setup->generator;

  LearnResult result;
  result.compatible_pairs = setup->compatible_pairs;

  // --- Initial population.
  Population population;
  population.Reserve(config.population_size);
  for (size_t i = 0; i < config.population_size; ++i) {
    population.Add(Individual{generator.RandomRule(rng), {}, false});
  }
  EvaluatePopulation(population, engine);

  {
    double f1_sum = 0.0;
    for (const auto& ind : population.individuals()) {
      // lint:allow(float-accum) -- serial loop over the population vector in index order
      f1_sum += ind.fitness.f_measure;
    }
    result.initial_population_mean_f1 =
        f1_sum / static_cast<double>(population.size());
  }

  // Records per-iteration statistics; `iteration` 0 is the initial
  // population, matching the tables in Section 6.2 of the paper.
  auto record = [&](size_t iteration) {
    size_t best = population.BestIndex();
    const Individual& best_ind = population[best];
    IterationStats stats;
    stats.iteration = iteration;
    stats.seconds = SecondsSince(start);
    stats.train_f1 = best_ind.fitness.f_measure;
    stats.train_mcc = best_ind.fitness.mcc;
    stats.mean_operators = population.MeanOperatorCount();
    stats.best_operators = static_cast<double>(best_ind.rule.OperatorCount());
    if (!setup->val_pairs.empty()) {
      ConfusionMatrix cm = EvaluateRuleOnPairs(best_ind.rule, setup->val_pairs,
                                               a.schema(), b.schema());
      stats.val_f1 = FMeasure(cm);
      stats.val_mcc = MatthewsCorrelation(cm);
    }
    result.trajectory.iterations.push_back(stats);
    if (callback) callback(stats, population);
    return stats;
  };

  IterationStats last = record(0);

  // --- Evolution loop (Algorithm 1).
  Population next;
  next.Reserve(config.population_size);
  for (size_t iteration = 1; iteration <= config.max_iterations &&
                             last.train_f1 < config.stop_f_measure;
       ++iteration) {
    BreedNextGeneration(population, next, generator, setup->crossover_set,
                        config, rng);
    std::swap(population, next);
    EvaluatePopulation(population, engine);
    last = record(iteration);
  }

  const Individual& best = population[population.BestIndex()];
  result.eval_stats = engine.stats();
  result.best_rule = best.rule.Clone();
  result.trajectory.best_rule_sexpr = ToPrettySexpr(result.best_rule);
  result.trajectory.final_val_f1 =
      result.trajectory.iterations.empty()
          ? 0.0
          : result.trajectory.iterations.back().val_f1;
  result.island_trajectories.push_back(result.trajectory);
  return result;
}

}  // namespace genlink

// Island-count scaling of the GenLink search (gp/islands.cc): one
// learning run per island count on Restaurant and Cora at the SAME
// total evaluation budget — the base population is split evenly across
// the islands, so every configuration breeds and scores the same number
// of rules per generation — measuring wall time and gating one
// invariant: results must not depend on the thread count (checked for
// the 4-island configuration at 1 vs hardware threads). A divergence
// makes the bench exit non-zero, so CI's bench-smoke step doubles as a
// regression gate. (The 1-island trajectory itself is pinned by the
// goldens in tests/golden/learn_*.txt.)
//
// Emits BENCH_scaling_islands.json; `extra` carries the island count,
// the per-island population, the speedup vs the 1-island run and the
// gate outcome. Wall-clock speedup comes from breeding in parallel
// (one task per island) and from the cross-island fitness memo, so it
// needs real cores: `extra.hardware_concurrency` records what the
// machine offered — on a 1-core container all speedups are ~1.

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "datasets/cora.h"
#include "datasets/restaurant.h"
#include "gp/genlink.h"
#include "harness.h"
#include "rule/serialize.h"

using namespace genlink;
using namespace genlink::bench;

namespace {

constexpr uint64_t kSeed = 8017;

// The deterministic outcome of one learning run: everything that must
// be identical between thread counts.
struct RunMeasurement {
  bool ok = false;
  double seconds = 0.0;
  double train_f1 = 0.0;
  double val_f1 = 0.0;
  uint64_t rule_hash = 0;
  std::string rule_sexpr;
  std::vector<double> trajectory;  // train_f1, val_f1 per iteration
};

RunMeasurement Measure(const Result<LearnResult>& result, double seconds) {
  RunMeasurement m;
  m.seconds = seconds;
  if (!result.ok()) {
    std::fprintf(stderr, "learn failed: %s\n",
                 result.status().ToString().c_str());
    return m;
  }
  m.ok = true;
  const IterationStats& last = result->trajectory.iterations.back();
  m.train_f1 = last.train_f1;
  m.val_f1 = last.val_f1;
  m.rule_hash = result->best_rule.StructuralHash();
  m.rule_sexpr = ToSexpr(result->best_rule);
  for (const IterationStats& stats : result->trajectory.iterations) {
    m.trajectory.push_back(stats.train_f1);
    m.trajectory.push_back(stats.val_f1);
  }
  return m;
}

GenLinkConfig MakeConfig(const BenchScale& scale, size_t base_population,
                         size_t num_islands, size_t threads) {
  GenLinkConfig config = MakeGenLinkConfig(scale);
  config.num_islands = num_islands;
  // Same total budget for every island count: splitting the base
  // population keeps rules-bred-per-generation constant.
  config.population_size = base_population / num_islands;
  config.num_threads = threads;
  // Disable early stopping: Restaurant reaches full training F1 within
  // a couple of generations, which would leave nothing to measure.
  config.stop_f_measure = 1.1;
  return config;
}

// Same seed for every configuration: fold split and evolution draw from
// the same master stream, so any divergence comes from the search
// organization itself.
RunMeasurement RunIslands(const MatchingTask& task, const GenLinkConfig& config) {
  Rng rng(kSeed);
  auto folds = task.links.SplitFolds(2, rng);
  GenLink learner(task.Source(), task.Target(), config);
  auto start = std::chrono::steady_clock::now();
  auto result = learner.Learn(folds[0], &folds[1], rng);
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return Measure(result, seconds);
}

bool Identical(const RunMeasurement& a, const RunMeasurement& b) {
  return a.ok && b.ok && a.rule_hash == b.rule_hash &&
         a.rule_sexpr == b.rule_sexpr && a.trajectory == b.trajectory;
}

}  // namespace

int main() {
  BenchScale scale = GetBenchScale();
  const unsigned hardware = std::thread::hardware_concurrency();
  // Round the base population up to a multiple of 8 so it splits evenly
  // across every island count.
  const size_t base_population = ((scale.population + 7) / 8) * 8;

  RestaurantConfig restaurant_config;
  restaurant_config.scale = scale.name == "smoke" ? 0.3 : 1.0;
  CoraConfig cora_config;
  cora_config.scale = scale.name == "smoke" ? 0.05 : scale.data_scale;

  std::vector<MatchingTask> tasks;
  tasks.push_back(GenerateRestaurant(restaurant_config));
  tasks.push_back(GenerateCora(cora_config));
  const double data_scales[] = {restaurant_config.scale, cora_config.scale};

  std::printf("base population %zu, %zu iterations, %u hardware threads\n",
              base_population, scale.iterations, hardware);

  bool gate_passes = true;
  std::vector<BenchRecord> records;
  for (size_t t = 0; t < tasks.size(); ++t) {
    const MatchingTask& task = tasks[t];
    std::printf("\n%s: %zu source records, %zu/%zu reference links\n",
                task.name.c_str(), task.a.size(),
                task.links.positives().size(),
                task.links.negatives().size());

    // Warm-up first so first-touch costs do not bias the 1-island run.
    RunIslands(task, MakeConfig(scale, base_population, 1, 0));

    double island1_seconds = 0.0;
    for (size_t num_islands : {1, 2, 4, 8}) {
      GenLinkConfig config =
          MakeConfig(scale, base_population, num_islands, 0);
      RunMeasurement m = RunIslands(task, config);
      if (num_islands == 1) island1_seconds = m.seconds;

      // Gate: thread-count invariance of the migrating configuration.
      bool thread_invariant = true;
      if (num_islands == 4 && hardware > 1) {
        GenLinkConfig serial = config;
        serial.num_threads = 1;
        thread_invariant = Identical(RunIslands(task, serial), m);
        if (!thread_invariant) {
          gate_passes = false;
          std::fprintf(stderr,
                       "ERROR: 4-island result depends on the thread count "
                       "on %s\n",
                       task.name.c_str());
        }
      }

      double speedup = m.seconds > 0.0 ? island1_seconds / m.seconds : 0.0;
      std::printf(
          "  islands=%zu   %6.2fs  train F1 %.3f  val F1 %.3f  "
          "speedup vs 1 island %.2fx\n",
          num_islands, m.seconds, m.train_f1, m.val_f1, speedup);

      BenchRecord record;
      record.dataset = task.name;
      record.system = "genlink/islands=" + std::to_string(num_islands);
      record.data_scale = data_scales[t];
      record.population = config.population_size;
      record.iterations = scale.iterations;
      record.runs = 1;
      record.train_f1 = {m.train_f1, 0.0};
      record.val_f1 = {m.val_f1, 0.0};
      record.seconds = {m.seconds, 0.0};
      record.extra = {
          {"num_islands", static_cast<double>(num_islands)},
          {"per_island_population",
           static_cast<double>(config.population_size)},
          {"speedup_vs_i1", speedup},
          {"thread_invariant", thread_invariant ? 1.0 : 0.0},
          {"hardware_concurrency", static_cast<double>(hardware)},
      };
      records.push_back(std::move(record));
    }
  }

  WriteBenchJson("scaling_islands", scale, records);
  if (!gate_passes) {
    std::fprintf(stderr, "ERROR: island gate failed (see above)\n");
    return 1;
  }
  std::printf("\nisland gate passed: results thread-invariant\n");
  return 0;
}

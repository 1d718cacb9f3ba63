// Thread-scaling of the evaluation engine (eval/engine.h): one
// Restaurant learning run per thread count, identical seed, measuring
// wall time and asserting that the learned rule and F1 do not depend on
// the thread count (the engine's determinism invariant).
//
// Emits BENCH_scaling_threads.json with one record per thread count;
// `extra` carries the thread count, the measured speedup vs the
// single-thread run, and whether the learned rule matched the 1-thread
// rule bit for bit. Exit status is non-zero when determinism is
// violated, so CI's bench-smoke step doubles as a regression gate.
//
// Interpreting the speedup requires knowing the hardware: the engine
// parallelizes over individuals and distance rows with no serial
// reduction, so on an N-core machine the speedup approaches
// min(threads, N). `extra.hardware_concurrency` records what the
// machine offered; on a single-core container all speedups are ~1.

#include <chrono>
#include <cstdio>
#include <thread>

#include "datasets/restaurant.h"
#include "harness.h"
#include "rule/rule_hash.h"
#include "rule/serialize.h"

using namespace genlink;
using namespace genlink::bench;

namespace {

struct RunMeasurement {
  size_t threads = 0;
  bool ok = false;
  double seconds = 0.0;
  double train_f1 = 0.0;
  double val_f1 = 0.0;
  uint64_t rule_hash = 0;
  std::string rule_sexpr;
};

RunMeasurement RunOnce(const MatchingTask& task, const BenchScale& scale,
                       size_t threads) {
  GenLinkConfig config = MakeGenLinkConfig(scale);
  config.num_threads = threads;
  // Disable early stopping: Restaurant reaches full training F1 within
  // a couple of generations, which would leave nothing to measure. A
  // scaling bench needs fixed work per configuration.
  config.stop_f_measure = 1.1;

  // Same seed for every thread count: fold split and evolution draw
  // from the same stream, so any divergence comes from evaluation.
  Rng rng(/*seed=*/8003);
  auto folds = task.links.SplitFolds(2, rng);
  GenLink learner(task.Source(), task.Target(), config);

  auto start = std::chrono::steady_clock::now();
  auto result = learner.Learn(folds[0], &folds[1], rng);
  auto elapsed = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();

  RunMeasurement m;
  m.threads = threads;
  m.seconds = elapsed;
  if (!result.ok()) {
    std::fprintf(stderr, "learn failed at %zu threads: %s\n", threads,
                 result.status().ToString().c_str());
    return m;
  }
  m.ok = true;
  const IterationStats& last = result->trajectory.iterations.back();
  m.train_f1 = last.train_f1;
  m.val_f1 = last.val_f1;
  m.rule_hash = CanonicalRuleHash(result->best_rule);
  m.rule_sexpr = ToSexpr(result->best_rule);
  std::printf(
      "threads=%zu  %6.2fs  train F1 %.3f  val F1 %.3f  "
      "fitness-hit %4.1f%%  distance-row-hit %4.1f%%\n",
      threads, elapsed, m.train_f1, m.val_f1,
      100.0 * result->eval_stats.FitnessHitRate(),
      100.0 * result->eval_stats.DistanceRowHitRate());
  return m;
}

}  // namespace

int main() {
  BenchScale scale = GetBenchScale();

  RestaurantConfig data;
  // Restaurant is already small (864 records); only shrink for smoke.
  data.scale = scale.name == "smoke" ? 0.3 : 1.0;
  MatchingTask task = GenerateRestaurant(data);
  const unsigned hardware = std::thread::hardware_concurrency();
  std::printf("restaurant: %zu records, %zu/%zu reference links, "
              "%u hardware threads\n",
              task.a.size(), task.links.positives().size(),
              task.links.negatives().size(), hardware);

  // Warm-up run so first-touch costs (page faults, allocator growth) do
  // not bias the 1-thread measurement.
  RunOnce(task, scale, 1);

  std::vector<RunMeasurement> runs;
  for (size_t threads : {1, 2, 4, 8}) {
    runs.push_back(RunOnce(task, scale, threads));
  }
  const double t1_seconds = runs.front().seconds;

  bool deterministic = true;
  std::vector<BenchRecord> records;
  for (const RunMeasurement& m : runs) {
    // Determinism must hold across thread counts: every run learns the
    // same rule. A failed run fails the gate too — all-zero
    // measurements must not pass it vacuously.
    bool identical = m.ok && runs.front().ok &&
                     m.rule_hash == runs.front().rule_hash &&
                     m.train_f1 == runs.front().train_f1 &&
                     m.val_f1 == runs.front().val_f1;
    deterministic = deterministic && identical;
    if (!identical && m.ok && runs.front().ok) {
      std::fprintf(stderr,
                   "divergent rule at threads=%zu:\n  t1:  %s\n  now: %s\n",
                   m.threads, runs.front().rule_sexpr.c_str(),
                   m.rule_sexpr.c_str());
    }
    const double speedup = m.seconds > 0.0 ? t1_seconds / m.seconds : 0.0;
    BenchRecord record;
    record.dataset = "restaurant";
    record.system = "genlink/threads=" + std::to_string(m.threads);
    record.data_scale = data.scale;
    record.population = scale.population;
    record.iterations = scale.iterations;
    record.runs = 1;
    record.train_f1 = {m.train_f1, 0.0};
    record.val_f1 = {m.val_f1, 0.0};
    record.seconds = {m.seconds, 0.0};
    record.extra = {
        {"threads", static_cast<double>(m.threads)},
        {"speedup_vs_t1", speedup},
        {"rule_identical_to_t1", identical ? 1.0 : 0.0},
        {"hardware_concurrency", static_cast<double>(hardware)},
    };
    records.push_back(std::move(record));
  }

  std::printf("\nspeedup vs the 1-thread run:");
  for (const RunMeasurement& m : runs) {
    std::printf("  t%zu: %.2fx", m.threads,
                m.seconds > 0.0 ? t1_seconds / m.seconds : 0.0);
  }
  std::printf("\n");

  if (!deterministic) {
    std::fprintf(stderr,
                 "ERROR: a run failed or the learned rule/F1 differs across "
                 "thread counts\n");
  } else {
    std::printf("learned rule identical across all thread counts\n");
  }

  WriteBenchJson("scaling_threads", scale, records);
  return deterministic ? 0 : 1;
}

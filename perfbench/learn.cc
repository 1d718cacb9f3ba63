// Workload `learn`: GenLink::Learn on the synthetic person task — the
// paper's own measurement (learning time and validation F1 at a fixed
// budget). The only workload where gp breeding and the eval engine do
// the work.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/random.h"
#include "datasets/synthetic.h"
#include "eval/engine.h"
#include "gp/compatible_properties.h"
#include "gp/genlink.h"
#include "io/csv.h"
#include "io/link_io.h"
#include "rule/serialize.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace genlink;

constexpr size_t kEntities = 20000;
constexpr size_t kPopulation = 500;
constexpr size_t kGenerations = 25;
constexpr size_t kThreads = 2;

struct Task {
  Dataset a;
  Dataset b;
  ReferenceLinkSet train;
  ReferenceLinkSet validation;
};

/// The system's set-up: parse the task CSVs as `genlink learn` does
/// and split the links into the paper's two folds.
Task LoadTask(const std::string& dir, uint64_t seed) {
  Span load("io.task_load");
  CsvDatasetOptions csv;
  csv.id_column = "id";
  auto a_text = ReadFileToString(dir + "/source.csv");
  auto b_text = ReadFileToString(dir + "/target.csv");
  auto links_text = ReadFileToString(dir + "/links.csv");
  Require(a_text.ok() && b_text.ok() && links_text.ok(), "task files unreadable");
  auto a = ReadCsvDataset(*a_text, "source", csv);
  auto b = ReadCsvDataset(*b_text, "target", csv);
  auto links = ReadLinksCsv(*links_text);
  Require(a.ok() && b.ok() && links.ok(), "task files do not parse");
  load.End();
  Rng split_rng(seed);
  std::vector<ReferenceLinkSet> folds = links->SplitFolds(2, split_rng);
  return Task{std::move(*a), std::move(*b), std::move(folds[0]),
              std::move(folds[1])};
}

}  // namespace

void RunLearn(const RunArgs& args, Report& report) {
  // --- Inputs (not timed): the synthetic task, written as CSV files.
  SyntheticConfig synthetic;
  synthetic.num_entities = kEntities;
  synthetic.num_threads = 1;
  synthetic.seed = args.seed;
  {
    const MatchingTask task = GenerateSynthetic(synthetic);
    std::printf("task fingerprint %016llx: %zu+%zu entities, %zu+%zu links\n",
                static_cast<unsigned long long>(FingerprintTask(task)),
                task.a.size(), task.b.size(), task.links.positives().size(),
                task.links.negatives().size());
    const auto write = [&](const Dataset& dataset, const char* file) {
      std::vector<const Entity*> rows;
      for (const Entity& e : dataset.entities()) rows.push_back(&e);
      Require(WriteStringToFile(args.work_dir + "/" + file,
                                DatasetCsv(dataset.schema(), rows))
                  .ok(),
              "cannot write task files");
    };
    write(task.a, "source.csv");
    write(task.b, "target.csv");
    Require(WriteStringToFile(args.work_dir + "/links.csv",
                              WriteLinksCsv(task.links))
                .ok(),
            "cannot write task files");
  }
  MarkRssBaseline();

  // --- Set-up, timed kSetupRepeats times; the last one is kept.
  const uint64_t split_seed = args.seed * 2 + 1;
  std::vector<double> setups;
  Task task;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Span setup("bench.setup");
    task = LoadTask(args.work_dir, split_seed);
    setups.push_back(setup.End());
  }

  GenLinkConfig config;
  config.population_size = kPopulation;
  config.max_iterations = kGenerations;
  config.num_islands = 1;
  config.num_threads = kThreads;
  // Never reached: every repetition breeds all kGenerations, so the
  // work is fixed by the operation count, not by when F1 hits 1.0.
  config.stop_f_measure = 2.0;
  const uint64_t learn_seed = args.seed * 2 + 2;

  // --- Measurement: identical Learn repetitions with one seed.
  const size_t reps = std::max(3, args.seconds / 2);
  std::vector<double> learn_seconds;
  std::vector<double> learn_cpu_ms;
  std::vector<double> gen0_ms;
  std::vector<double> generation_ms;
  std::vector<std::vector<LinkageRule>> generations;  // traced rep 0 only
  std::string best_rule;
  double val_f1 = 0.0;
  EngineStats eval_stats;
  for (size_t r = 0; r < reps; ++r) {
    report.Attempted(1);
    const GenLink learner(task.a, task.b, config);
    Rng rng(learn_seed);
    const Clock::time_point start = Clock::now();
    std::vector<double> marks;
    const bool capture = args.trace && r == 0;
    IterationCallback callback;
    if (args.trace) {
      callback = [&](const IterationStats&, const Population& population) {
        marks.push_back(MillisSince(start));
        if (!capture) return;
        std::vector<LinkageRule>& rules = generations.emplace_back();
        for (const Individual& individual : population.individuals()) {
          rules.push_back(individual.rule.Clone());
        }
      };
    }
    const double cpu = ProcessCpuSeconds();
    Span learn("gp.learn");
    Result<LearnResult> result =
        learner.Learn(task.train, &task.validation, rng, callback);
    learn_seconds.push_back(learn.End());
    learn_cpu_ms.push_back((ProcessCpuSeconds() - cpu) * 1e3);
    if (!result.ok()) {
      report.Failed("Learn: " + result.status().ToString());
      continue;
    }
    for (size_t g = 0; g < marks.size(); ++g) {
      (g == 0 ? gen0_ms : generation_ms)
          .push_back(g == 0 ? marks[0] : marks[g] - marks[g - 1]);
    }
    const std::string rule = ToSexpr(result->best_rule);
    if (r == 0) {
      best_rule = rule;
      val_f1 = result->trajectory.final_val_f1;
      eval_stats = result->eval_stats;
      std::printf("learned (val F1 %.6f): %s\n", val_f1, rule.c_str());
    } else if (rule != best_rule || result->trajectory.final_val_f1 != val_f1) {
      report.Failed("repetition " + std::to_string(r) +
                    " learned a different rule or val F1");
    }
  }
  const double peak_rss = PeakRssMb();
  if (val_f1 <= 0.0) report.CheckFailed("learned rule has no validation F1");

  EndToEnd(args, report, "setup_s", Median(setups), "s");
  EndToEnd(args, report, "peak_rss_mb", peak_rss, "MB");
  EndToEnd(args, report, "op_cpu_ms", Median(learn_cpu_ms), "ms");
  if (!args.trace) return;

  // --- Per-layer metrics.
  auto pairs = task.train.Resolve(task.a, task.b);
  Require(pairs.ok(), "training links do not resolve");

  // Seeding (Algorithm 2) on the train fold, as Learn's first step.
  for (int i = 0; i < 3; ++i) {
    Rng rng(learn_seed);
    Span seeding("gp.seeding");
    const auto found = FindCompatibleProperties(task.a, task.b, task.train,
                                                config.seeding, rng);
    Require(!found.empty(), "seeding found no compatible properties");
  }

  // The engine's batch cost, replayed over each captured generation in
  // order through one engine (elites included, so its hit counters run
  // slightly above Learn's).
  EngineConfig engine_config;
  engine_config.num_threads = kThreads;
  EvaluationEngine engine(*pairs, task.a.schema(), task.b.schema(),
                          config.fitness, engine_config);
  for (const std::vector<LinkageRule>& rules : generations) {
    std::vector<const LinkageRule*> pointers;
    for (const LinkageRule& rule : rules) pointers.push_back(&rule);
    std::vector<FitnessResult> results(rules.size());
    Span batch("eval.batch");
    engine.EvaluateBatch(pointers, results);
  }
  const EngineStats replay = engine.stats();
  const auto print_stats = [](const char* label, const EngineStats& s) {
    std::printf(
        "%-14s rules %llu (fitness hits %llu), distance rows %llu (hits "
        "%llu), value plans %llu\n",
        label, static_cast<unsigned long long>(s.rules_evaluated),
        static_cast<unsigned long long>(s.fitness_hits),
        static_cast<unsigned long long>(s.distance_rows_computed),
        static_cast<unsigned long long>(s.distance_row_hits),
        static_cast<unsigned long long>(s.value_plans_compiled));
  };
  print_stats("learn engine", eval_stats);
  print_stats("replay engine", replay);

  report.Metric("traced.op_p50_ms", Median(learn_seconds) * 1e3, "ms");
  report.Metric("traced.op_p90_ms", Percentile(learn_seconds, 90) * 1e3, "ms");
  report.Metric("traced.op_p99_ms", Percentile(learn_seconds, 99) * 1e3, "ms");
  report.Metric("gp.val_f1", val_f1, "ratio");
  report.Metric("gp.gen0_ms", Median(gen0_ms), "ms");
  report.Metric("gp.generation_ms", Median(generation_ms), "ms");
  report.Metric("gp.generations",
                static_cast<double>(std::max<size_t>(generations.size(), 1) - 1),
                "count");
  report.Metric("gp.seeding_ms", Median(SpanSeconds("gp.seeding")) * 1e3, "ms");
  report.Metric("eval.batch_ms", Median(SpanSeconds("eval.batch")) * 1e3, "ms");
  report.Metric("eval.fitness_hit_rate", eval_stats.FitnessHitRate(), "ratio");
  report.Metric("eval.distance_row_hit_rate", eval_stats.DistanceRowHitRate(),
                "ratio");
  report.Metric("eval.distance_rows_computed",
                static_cast<double>(eval_stats.distance_rows_computed), "count");
  report.Metric("eval.rules_evaluated",
                static_cast<double>(eval_stats.rules_evaluated), "count");
  report.Metric("eval.value_plans_compiled",
                static_cast<double>(eval_stats.value_plans_compiled), "count");
  report.Metric("distance.pair_distances",
                static_cast<double>(eval_stats.distance_rows_computed) *
                    static_cast<double>(pairs->size()),
                "count");
  report.Metric("io.task_load_ms", Median(SpanSeconds("io.task_load")) * 1e3,
                "ms");
}

}  // namespace perfbench

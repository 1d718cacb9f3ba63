// Microbenchmarks for linkage-rule evaluation: the inner loop of GP
// fitness computation (rule x labelled pair), at several rule sizes.

#include <benchmark/benchmark.h>

#include <cmath>
#include <limits>

#include "datasets/cora.h"
#include "eval/engine.h"
#include "eval/fitness.h"
#include "rule/builder.h"

namespace genlink {
namespace {

const MatchingTask& CoraTask() {
  static MatchingTask* task = [] {
    CoraConfig config;
    config.scale = 0.1;
    return new MatchingTask(GenerateCora(config));
  }();
  return *task;
}

LinkageRule SmallRule() {
  return std::move(RuleBuilder()
                       .Compare("levenshtein", 2.0, Prop("title"), Prop("title"))
                       .Build())
      .value();
}

LinkageRule MediumRule() {
  return std::move(
             RuleBuilder()
                 .Aggregate("min")
                 .Compare("levenshtein", 2.0, Prop("title").Lower(),
                          Prop("title").Lower())
                 .Compare("date", 365.0, Prop("date"), Prop("date"))
                 .End()
                 .Build())
      .value();
}

LinkageRule LargeRule() {
  return std::move(
             RuleBuilder()
                 .Aggregate("max")
                 .Aggregate("min")
                 .Compare("jaccard", 0.8, Prop("title").Lower().Tokenize(),
                          Prop("title").Lower().Tokenize())
                 .Compare("date", 365.0, Prop("date"), Prop("date"))
                 .End()
                 .Aggregate("wmean")
                 .Compare("levenshtein", 3.0, Prop("author"), Prop("author"), 2.0)
                 .Compare("levenshtein", 2.0, Prop("venue").Lower(),
                          Prop("venue").Lower(), 1.0)
                 .End()
                 .End()
                 .Build())
      .value();
}

void RunRuleBench(benchmark::State& state, const LinkageRule& rule) {
  const MatchingTask& task = CoraTask();
  auto pairs = task.links.Resolve(task.Source(), task.Target());
  size_t i = 0;
  for (auto _ : state) {
    const LabeledPair& pair = (*pairs)[i++ % pairs->size()];
    benchmark::DoNotOptimize(rule.Evaluate(*pair.a, *pair.b,
                                           task.Source().schema(),
                                           task.Target().schema()));
  }
}

void BM_RuleEvalSmall(benchmark::State& state) {
  RunRuleBench(state, SmallRule());
}
BENCHMARK(BM_RuleEvalSmall);

void BM_RuleEvalMedium(benchmark::State& state) {
  RunRuleBench(state, MediumRule());
}
BENCHMARK(BM_RuleEvalMedium);

void BM_RuleEvalLarge(benchmark::State& state) {
  RunRuleBench(state, LargeRule());
}
BENCHMARK(BM_RuleEvalLarge);

// Whole-fitness evaluation (one rule against all training pairs).
void BM_FitnessEvaluation(benchmark::State& state) {
  const MatchingTask& task = CoraTask();
  auto pairs = task.links.Resolve(task.Source(), task.Target());
  FitnessEvaluator evaluator(*pairs, task.Source().schema(),
                             task.Target().schema());
  LinkageRule rule = MediumRule();
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.Evaluate(rule));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pairs->size()));
}
BENCHMARK(BM_FitnessEvaluation);

// Same evaluation through the engine with warm distance rows, the
// offspring case in learning: every iteration nudges one threshold, so
// the rule is a fitness-memo miss whose distance rows all hit. No
// string distance is computed; the number covers rule hashing,
// thresholding and aggregation over the cached rows, and the memo
// insert.
void BM_EngineFitnessEvaluationWarm(benchmark::State& state) {
  const MatchingTask& task = CoraTask();
  auto pairs = task.links.Resolve(task.Source(), task.Target());
  EngineConfig config;
  config.num_threads = 1;
  EvaluationEngine engine(*pairs, task.Source().schema(),
                          task.Target().schema(), {}, config);
  LinkageRule rule = MediumRule();
  engine.Evaluate(rule);  // warm the distance rows
  ComparisonOperator* nudged = CollectComparisons(rule).front();
  for (auto _ : state) {
    nudged->set_threshold(std::nextafter(
        nudged->threshold(), std::numeric_limits<double>::infinity()));
    benchmark::DoNotOptimize(engine.Evaluate(rule));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pairs->size()));
}
BENCHMARK(BM_EngineFitnessEvaluationWarm);

}  // namespace
}  // namespace genlink

// Microbenchmarks for the genetic machinery: random rule generation,
// each crossover operator, cloning, hashing and serialization.

#include <benchmark/benchmark.h>

#include "gp/crossover.h"
#include "gp/rule_generator.h"
#include "rule/rule_hash.h"
#include "rule/serialize.h"

namespace genlink {
namespace {

RuleGenerator& Generator() {
  static RuleGenerator* generator = [] {
    std::vector<CompatiblePair> pairs;
    const auto& reg = DistanceRegistry::Default();
    pairs.push_back({"title", "name", reg.Find("levenshtein"), 5});
    pairs.push_back({"date", "released", reg.Find("date"), 3});
    pairs.push_back({"pos", "coord", reg.Find("geographic"), 2});
    return new RuleGenerator(pairs, {"title", "date", "pos"},
                             {"name", "released", "coord"});
  }();
  return *generator;
}

void BM_RandomRuleGeneration(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Generator().RandomRule(rng));
  }
}
BENCHMARK(BM_RandomRuleGeneration);

void BM_RuleClone(benchmark::State& state) {
  Rng rng(2);
  LinkageRule rule = Generator().RandomRule(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rule.Clone());
  }
}
BENCHMARK(BM_RuleClone);

void BM_CanonicalRuleHash(benchmark::State& state) {
  Rng rng(3);
  LinkageRule rule = Generator().RandomRule(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CanonicalRuleHash(rule));
  }
}
BENCHMARK(BM_CanonicalRuleHash);

void BM_Serialize(benchmark::State& state) {
  Rng rng(4);
  LinkageRule rule = Generator().RandomRule(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ToSexpr(rule));
  }
}
BENCHMARK(BM_Serialize);

template <typename Operator>
void RunCrossoverBench(benchmark::State& state) {
  Rng rng(5);
  Operator op;
  std::vector<LinkageRule> pool;
  for (int i = 0; i < 16; ++i) pool.push_back(Generator().RandomRule(rng));
  size_t i = 0;
  for (auto _ : state) {
    const LinkageRule& r1 = pool[i % pool.size()];
    const LinkageRule& r2 = pool[(i + 7) % pool.size()];
    ++i;
    benchmark::DoNotOptimize(op.Cross(r1, r2, rng));
  }
}

void BM_FunctionCrossover(benchmark::State& state) {
  RunCrossoverBench<FunctionCrossover>(state);
}
BENCHMARK(BM_FunctionCrossover);

void BM_OperatorsCrossover(benchmark::State& state) {
  RunCrossoverBench<OperatorsCrossover>(state);
}
BENCHMARK(BM_OperatorsCrossover);

void BM_AggregationCrossover(benchmark::State& state) {
  RunCrossoverBench<AggregationCrossover>(state);
}
BENCHMARK(BM_AggregationCrossover);

void BM_TransformationCrossover(benchmark::State& state) {
  RunCrossoverBench<TransformationCrossover>(state);
}
BENCHMARK(BM_TransformationCrossover);

void BM_ThresholdCrossover(benchmark::State& state) {
  RunCrossoverBench<ThresholdCrossover>(state);
}
BENCHMARK(BM_ThresholdCrossover);

void BM_SubtreeCrossover(benchmark::State& state) {
  RunCrossoverBench<SubtreeCrossover>(state);
}
BENCHMARK(BM_SubtreeCrossover);

}  // namespace
}  // namespace genlink

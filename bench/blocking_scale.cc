// Blocking at scale on the synthetic person corpus: pairs completeness
// vs candidate volume vs index-build throughput for the unweighted
// token index and the rare-token weighted index (k = 6), at 10k
// (smoke), 100k (default) and 1M (paper) entities.
//
// Doubles as a CI gate, exiting non-zero when
//   * weighted pairs completeness drops below 0.98 at any scale, or
//   * the weighted index stops buying >= 5x candidate reduction over
//     the unweighted index at >= 100k entities.
//
// Emits BENCH_blocking_scale.json; `extra.pairs_completeness` and
// `extra.reduction_vs_unweighted` are the regression metrics
// tools/compare_bench_json.py tracks.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "datasets/synthetic.h"
#include "eval/blocking_stats.h"
#include "harness.h"
#include "matcher/blocking.h"

using namespace genlink;
using namespace genlink::bench;

namespace {

constexpr size_t kWeightedTopTokens = 6;
constexpr double kRecallFloor = 0.98;
constexpr double kReductionFloor = 5.0;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct ConfigMeasurement {
  std::string system;
  double build_seconds = 0.0;
  double probe_seconds = 0.0;
  BlockingQuality quality;
};

ConfigMeasurement Measure(const std::string& system,
                          std::unique_ptr<const BlockingIndex> index,
                          double build_seconds, const MatchingTask& task,
                          size_t sample_every, ThreadPool& pool) {
  ConfigMeasurement m;
  m.system = system;
  m.build_seconds = build_seconds;
  const auto start = std::chrono::steady_clock::now();
  m.quality = MeasureBlockingQuality(*index, task.Source(), task.Target(),
                                     task.links, sample_every, &pool);
  m.probe_seconds = Seconds(start);
  return m;
}

}  // namespace

int main() {
  const BenchScale scale = GetBenchScale();
  std::vector<size_t> sizes = {10000};
  if (scale.name != "smoke") sizes.push_back(100000);
  if (scale.name == "paper") sizes.push_back(1000000);

  ThreadPool pool(0);
  std::vector<BenchRecord> records;
  bool gates_pass = true;

  for (const size_t n : sizes) {
    SyntheticConfig config;
    config.num_entities = n;
    config.num_threads = 0;
    auto start = std::chrono::steady_clock::now();
    const MatchingTask task = GenerateSynthetic(config);
    const double gen_seconds = Seconds(start);
    // Probe a query sample that keeps the unweighted measurement
    // tractable at every scale; pairs completeness always checks every
    // positive link regardless of sampling.
    const size_t sample_every = n <= 10000 ? 1 : (n <= 100000 ? 25 : 250);
    std::printf(
        "\nsynthetic n=%zu (generated in %.2fs, %zu positive links, "
        "1-in-%zu query sample)\n",
        n, gen_seconds, task.links.positives().size(), sample_every);

    TokenBlockingOptions weighted_options;
    weighted_options.max_tokens_per_entity = kWeightedTopTokens;

    std::vector<ConfigMeasurement> measured;
    start = std::chrono::steady_clock::now();
    auto unweighted =
        std::make_unique<const TokenBlockingIndex>(task.Target());
    measured.push_back(Measure("blocking/unweighted", std::move(unweighted),
                               Seconds(start), task, sample_every, pool));

    start = std::chrono::steady_clock::now();
    auto weighted = std::make_unique<const TokenBlockingIndex>(
        task.Target(), std::vector<std::string>{}, weighted_options);
    measured.push_back(Measure("blocking/weighted", std::move(weighted),
                               Seconds(start), task, sample_every, pool));

    const double unweighted_cpq = measured[0].quality.candidates_per_query;
    std::printf("%-28s %10s %12s %10s %10s %9s\n", "system", "build_s",
                "cand/query", "reduction", "PC", "probe_s");
    for (const ConfigMeasurement& m : measured) {
      const double reduction =
          m.quality.candidates_per_query > 0.0
              ? unweighted_cpq / m.quality.candidates_per_query
              : 0.0;
      std::printf("%-28s %10.2f %12.1f %9.2fx %10.4f %9.2f\n",
                  m.system.c_str(), m.build_seconds,
                  m.quality.candidates_per_query, reduction,
                  m.quality.pairs_completeness, m.probe_seconds);

      BenchRecord record;
      record.dataset = "synthetic" + std::to_string(n / 1000) + "k";
      record.system = m.system;
      record.data_scale = static_cast<double>(n);
      record.runs = 1;
      record.seconds = {m.build_seconds + m.probe_seconds, 0.0};
      record.extra = {
          {"entities", static_cast<double>(n)},
          {"pairs_completeness", m.quality.pairs_completeness},
          {"candidates_per_query", m.quality.candidates_per_query},
          {"reduction_ratio", m.quality.reduction_ratio},
          {"reduction_vs_unweighted", reduction},
          {"build_seconds", m.build_seconds},
          {"entities_per_second",
           m.build_seconds > 0.0 ? static_cast<double>(n) / m.build_seconds
                                 : 0.0},
      };
      records.push_back(std::move(record));

      const bool is_weighted = m.system != "blocking/unweighted";
      if (is_weighted && m.quality.pairs_completeness < kRecallFloor) {
        std::fprintf(stderr,
                     "ERROR: %s pairs completeness %.4f < %.2f at n=%zu\n",
                     m.system.c_str(), m.quality.pairs_completeness,
                     kRecallFloor, n);
        gates_pass = false;
      }
      if (is_weighted && n >= 100000 && reduction < kReductionFloor) {
        std::fprintf(stderr,
                     "ERROR: %s candidate reduction %.2fx < %.1fx at n=%zu\n",
                     m.system.c_str(), reduction, kReductionFloor, n);
        gates_pass = false;
      }
    }
  }

  WriteBenchJson("blocking_scale", scale, records);
  if (!gates_pass) {
    std::fprintf(stderr, "blocking_scale: gates FAILED\n");
    return 1;
  }
  std::printf("\nblocking_scale: all gates passed\n");
  return 0;
}

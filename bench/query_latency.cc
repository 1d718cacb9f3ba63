// Query-serving latency on Restaurant: the session API
// (api/matcher_index.h) against the one-shot GenerateLinks baseline.
//
// Measures, at one worker thread:
//   * fresh GenerateLinks wall time (the pre-session cost of answering
//     ANY question: rebuild blocking index + value store, full join);
//   * MatcherIndex::Build time (paid once per deployment);
//   * single-entity MatchEntity latency over every corpus entity (p50
//     -> lookups/s), the request-serving path;
//   * MatchBatch throughput over the whole corpus;
//   * the index-build amortization curve: amortized seconds/query at
//     Q = 1, 10, 100, 1000 queries against the built index.
//
// Doubles as a CI gate, exiting non-zero when either fails:
//   * bit-identity — MatchDataset AND the MatchBatch reconstruction
//     must reproduce GenerateLinks' links exactly (ids, scores,
//     order): every surface runs the index's one scorer, and this pins
//     the per-query surfaces to the full join's pairs and order;
//   * amortization — serving one entity from the prebuilt index must
//     be >= 10x faster than the per-entity rate of answering it with a
//     fresh GenerateLinks call (extra.speedup_vs_fresh in
//     BENCH_query_latency.json; tools/compare_bench_json.py tracks it
//     as a machine-independent ratio).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "api/matcher_index.h"
#include "datasets/restaurant.h"
#include "harness.h"
#include "matcher/matcher.h"
#include "rule/builder.h"

using namespace genlink;
using namespace genlink::bench;

namespace {

constexpr double kRequiredSpeedup = 10.0;

// The representative learned rule matcher_throughput also uses.
LinkageRule MatchRule() {
  auto rule = RuleBuilder()
                  .Aggregate("min")
                  .Compare("jaccard", 0.8, Prop("name").Lower().Tokenize(),
                           Prop("name").Lower().Tokenize())
                  .Compare("levenshtein", 3.0, Prop("address").Lower(),
                           Prop("address").Lower())
                  .End()
                  .Build();
  if (!rule.ok()) {
    std::fprintf(stderr, "rule construction failed: %s\n",
                 rule.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(rule).value();
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

bool SameLinks(const std::vector<GeneratedLink>& x,
               const std::vector<GeneratedLink>& y) {
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].id_a != y[i].id_a || x[i].id_b != y[i].id_b ||
        x[i].score != y[i].score) {
      return false;
    }
  }
  return true;
}

BenchRecord MakeRecord(const char* system, double data_scale, size_t reps,
                       double seconds,
                       std::vector<std::pair<std::string, double>> extra) {
  BenchRecord record;
  record.dataset = "restaurant";
  record.system = system;
  record.data_scale = data_scale;
  record.runs = reps;
  record.seconds = {seconds, 0.0};
  record.extra = std::move(extra);
  return record;
}

}  // namespace

int main() {
  BenchScale scale = GetBenchScale();
  RestaurantConfig data;
  data.scale = scale.name == "smoke" ? 0.3 : 1.0;
  MatchingTask task = GenerateRestaurant(data);
  LinkageRule rule = MatchRule();
  const size_t n = task.a.size();
  // Best-of-3 at every scale: the fresh-call baseline is milliseconds
  // long and single samples wobble too much for the CI ratio gate.
  const size_t reps = 3;

  MatchOptions options;
  options.num_threads = 1;

  // Baseline: the one-shot pipeline, everything rebuilt per call.
  double fresh_seconds = 0.0;
  std::vector<GeneratedLink> fresh_links;
  for (size_t r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    auto links = GenerateLinks(rule, task.a, task.a, options);
    const double elapsed = Seconds(start);
    if (r == 0 || elapsed < fresh_seconds) fresh_seconds = elapsed;
    fresh_links = std::move(links);
  }
  std::printf("restaurant: %zu records, fresh GenerateLinks %.4fs "
              "(%zu links)\n",
              n, fresh_seconds, fresh_links.size());

  // Session: build once...
  const auto build_start = std::chrono::steady_clock::now();
  auto index = MatcherIndex::Build(task.a, task.a, rule, options);
  const double build_seconds = Seconds(build_start);

  // ...then serve. Warm up, then time every corpus entity as a single
  // query; best p50/mean over `reps` passes (transient machine load
  // would otherwise wobble the CI gate).
  for (size_t i = 0; i < std::min<size_t>(n, 32); ++i) {
    index->MatchEntity(task.a.entity(i));
  }
  double p50 = 0.0;
  double mean = 0.0;
  size_t entity_links = 0;
  std::vector<double> latencies(n);
  for (size_t r = 0; r < reps; ++r) {
    entity_links = 0;
    for (size_t i = 0; i < n; ++i) {
      const auto start = std::chrono::steady_clock::now();
      auto links = index->MatchEntity(task.a.entity(i));
      latencies[i] = Seconds(start);
      entity_links += links.size();
    }
    std::sort(latencies.begin(), latencies.end());
    const double pass_p50 = latencies[latencies.size() / 2];
    double latency_sum = 0.0;
    for (double latency : latencies) latency_sum += latency;
    const double pass_mean = latency_sum / static_cast<double>(latencies.size());
    if (r == 0 || pass_p50 < p50) p50 = pass_p50;
    if (r == 0 || pass_mean < mean) mean = pass_mean;
  }

  // Batch serving over the whole corpus; reconstruct the full join for
  // the bit-identity gate (the self-join keeps only id_a < id_b).
  const auto batch_start = std::chrono::steady_clock::now();
  auto batch_links = index->MatchBatch(task.a.entities());
  const double batch_seconds = Seconds(batch_start);
  std::vector<GeneratedLink> reconstructed;
  for (auto& link : batch_links) {
    if (link.id_a < link.id_b) reconstructed.push_back(std::move(link));
  }
  std::sort(reconstructed.begin(), reconstructed.end(),
            [](const auto& x, const auto& y) {
              if (x.score != y.score) return x.score > y.score;
              if (x.id_a != y.id_a) return x.id_a < y.id_a;
              return x.id_b < y.id_b;
            });

  // The legacy surface on the prebuilt index.
  const auto dataset_start = std::chrono::steady_clock::now();
  auto dataset_links = index->MatchDataset();
  const double dataset_seconds = Seconds(dataset_start);

  const bool identical = SameLinks(dataset_links, fresh_links) &&
                         SameLinks(reconstructed, fresh_links) &&
                         !fresh_links.empty();
  if (!identical) {
    std::fprintf(stderr,
                 "ERROR: prebuilt-index links differ from fresh "
                 "GenerateLinks links (or no links were generated)\n");
  }

  // Serving one entity the pre-session way costs a whole fresh call;
  // the session serves it in p50. This ratio is the amortization win
  // and must clear 10x.
  const double speedup_vs_fresh = p50 > 0.0 ? fresh_seconds / p50 : 0.0;
  const bool fast_enough = speedup_vs_fresh >= kRequiredSpeedup;
  if (!fast_enough) {
    std::fprintf(stderr,
                 "ERROR: MatchEntity p50 %.6fs is only %.1fx a fresh "
                 "GenerateLinks call (%.4fs); require >= %.0fx\n",
                 p50, speedup_vs_fresh, fresh_seconds, kRequiredSpeedup);
  }

  std::printf("build once:      %.4fs\n", build_seconds);
  std::printf("MatchEntity:     p50 %.1fus, mean %.1fus  (%.0f lookups/s, "
              "%.0fx vs fresh call)\n",
              p50 * 1e6, mean * 1e6, p50 > 0.0 ? 1.0 / p50 : 0.0,
              speedup_vs_fresh);
  std::printf("MatchBatch:      %.4fs for %zu entities (%.0f entities/s)\n",
              batch_seconds, n,
              batch_seconds > 0.0 ? n / batch_seconds : 0.0);
  std::printf("MatchDataset:    %.4fs (fresh %.4fs)\n", dataset_seconds,
              fresh_seconds);
  std::printf("amortization (build + Q * p50) / Q:\n");
  std::vector<std::pair<std::string, double>> amortized;
  for (size_t q : {size_t{1}, size_t{10}, size_t{100}, size_t{1000}}) {
    const double per_query = (build_seconds + q * p50) / static_cast<double>(q);
    std::printf("  Q=%-5zu %.1fus/query (fresh call: %.1fus)\n", q,
                per_query * 1e6, fresh_seconds * 1e6);
    amortized.emplace_back("amortized_q" + std::to_string(q), per_query);
  }

  std::vector<BenchRecord> records;
  records.push_back(MakeRecord(
      "matcher/fresh-generate-links", data.scale, reps, fresh_seconds,
      {{"threads", 1.0},
       {"links", static_cast<double>(fresh_links.size())},
       {"fresh_calls_per_second",
        fresh_seconds > 0.0 ? 1.0 / fresh_seconds : 0.0},
       {"entities_per_second", fresh_seconds > 0.0 ? n / fresh_seconds : 0.0}}));
  {
    std::vector<std::pair<std::string, double>> extra = {
        {"threads", 1.0},
        {"build_seconds", build_seconds},
        {"links_identical", identical ? 1.0 : 0.0},
    };
    extra.insert(extra.end(), amortized.begin(), amortized.end());
    records.push_back(MakeRecord("api/build", data.scale, 1, build_seconds,
                                 std::move(extra)));
  }
  records.push_back(MakeRecord(
      "api/match-entity", data.scale, 1, p50,
      {{"threads", 1.0},
       {"lookups_per_second", p50 > 0.0 ? 1.0 / p50 : 0.0},
       {"lookups_per_second_mean", mean > 0.0 ? 1.0 / mean : 0.0},
       {"links", static_cast<double>(entity_links)},
       {"speedup_vs_fresh", speedup_vs_fresh},
       {"links_identical", identical ? 1.0 : 0.0}}));
  records.push_back(MakeRecord(
      "api/match-batch", data.scale, 1, batch_seconds,
      {{"threads", 1.0},
       {"entities_per_second", batch_seconds > 0.0 ? n / batch_seconds : 0.0},
       {"links_identical", identical ? 1.0 : 0.0}}));
  // No speedup ratio on this record: MatchDataset does the same work
  // as a fresh call minus the build, so the ratio hovers at ~1 and
  // would make a noisy CI gate (matcher_throughput already tracks the
  // full-join path).
  records.push_back(MakeRecord(
      "api/match-dataset", data.scale, 1, dataset_seconds,
      {{"threads", 1.0},
       {"links_identical", identical ? 1.0 : 0.0}}));
  WriteBenchJson("query_latency", scale, records);

  return identical && fast_enough ? 0 : 1;
}

// Full-dataset matching throughput on Restaurant (the CLI `match` /
// `learn --match` scenario): GenerateLinks (MatcherIndex's one scorer
// over the target-side value store, api/matcher_index.h) vs a per-pair
// operator-tree join that calls LinkageRule::Evaluate on the same
// candidates, with token blocking and over the exhaustive cross
// product, at one worker thread.
//
// Doubles as a CI gate: the two paths must produce bit-identical link
// sets (ids, scores and order); any divergence exits non-zero.
//
// Emits BENCH_matcher_throughput.json; `extra.pairs_per_second` (at
// the median round's time) is the regression metric tools/compare_bench_json.py tracks,
// and `extra.speedup_vs_operator_tree` the machine-independent ratio CI
// holds against bench/baselines. Each round times the two joins back to
// back, alternating which goes first, and the speedup is the median of
// the per-round ratios: a host speed switch then moves both sides of a
// round alike instead of one side of the whole comparison.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "datasets/restaurant.h"
#include "harness.h"
#include "matcher/blocking.h"
#include "matcher/matcher.h"
#include "rule/builder.h"

using namespace genlink;
using namespace genlink::bench;

namespace {

struct PathMeasurement {
  std::string system;
  bool use_blocking = true;
  bool operator_tree = false;
  std::vector<double> round_seconds;
  double speedup = 1.0;  // median per-round operator-tree / this path
  size_t pairs = 0;
  std::vector<GeneratedLink> links;
};

// The middle sample of an odd number of samples.
double Median(std::vector<double> samples) {
  const auto mid = samples.begin() + samples.size() / 2;
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

// A representative learned rule: transform chains on both comparisons
// (tokenize feeds a set measure, lowercase feeds an edit distance), so
// the operator-tree path pays per-pair transformation costs the way a
// real learned rule does.
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

// The operator-tree reference: LinkageRule::Evaluate per candidate pair
// over the blocking candidates (index built per call, as GenerateLinks
// does) or the cross product, with GenerateLinks' self-join dedup
// (id_a < id_b), threshold and link order (score desc, id_a, id_b).
std::vector<GeneratedLink> OperatorTreeLinks(const LinkageRule& rule,
                                             const Dataset& data,
                                             bool use_blocking) {
  const double threshold = MatchOptions().threshold;
  std::vector<GeneratedLink> links;
  auto consider = [&](const Entity& a, const Entity& b) {
    if (a.id() >= b.id()) return;
    const double score = rule.Evaluate(a, b, data.schema(), data.schema());
    if (score >= threshold) links.push_back({a.id(), b.id(), score});
  };
  if (use_blocking) {
    TokenBlockingIndex index(data, TargetProperties(rule));
    for (const Entity& a : data.entities()) {
      for (size_t j : index.Candidates(a, data.schema())) {
        consider(a, data.entity(j));
      }
    }
  } else {
    for (const Entity& a : data.entities()) {
      for (const Entity& b : data.entities()) consider(a, b);
    }
  }
  std::sort(links.begin(), links.end(), [](const auto& x, const auto& y) {
    if (x.score != y.score) return x.score > y.score;
    if (x.id_a != y.id_a) return x.id_a < y.id_a;
    return x.id_b < y.id_b;
  });
  return links;
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

}  // namespace

int main() {
  BenchScale scale = GetBenchScale();
  RestaurantConfig data;
  data.scale = scale.name == "smoke" ? 0.3 : 1.0;
  MatchingTask task = GenerateRestaurant(data);
  LinkageRule rule = MatchRule();

  // Candidate-pair counts per family, for the throughput metric: the
  // blocked paths evaluate the blocking candidates, the exhaustive
  // paths the full (deduplicated) self cross product.
  TokenBlockingIndex index(task.a, TargetProperties(rule));
  size_t blocked_pairs = 0;
  for (size_t i = 0; i < task.a.size(); ++i) {
    blocked_pairs += index.Candidates(task.a.entity(i), task.a.schema()).size();
  }
  const size_t cross_pairs = task.a.size() * task.a.size();
  std::printf("restaurant: %zu records, %zu blocked / %zu cross candidate "
              "pairs\n",
              task.a.size(), blocked_pairs, cross_pairs);

  // Paired rounds, an odd number so the median is one round's ratio.
  const size_t rounds = 11;
  std::vector<PathMeasurement> runs = {
      {"matcher/operator-tree/blocking", true, true, {}, 1.0, 0, {}},
      {"matcher/value-store/blocking", true, false, {}, 1.0, 0, {}},
      {"matcher/operator-tree/cross", false, true, {}, 1.0, 0, {}},
      {"matcher/value-store/cross", false, false, {}, 1.0, 0, {}},
  };
  for (size_t family = 0; family < runs.size(); family += 2) {
    PathMeasurement& tree = runs[family];
    PathMeasurement& store = runs[family + 1];
    MatchOptions options;
    options.use_blocking = store.use_blocking;
    options.num_threads = 1;
    tree.pairs = store.pairs = store.use_blocking ? blocked_pairs : cross_pairs;
    const auto time = [&](PathMeasurement& run) {
      const auto start = std::chrono::steady_clock::now();
      run.links = run.operator_tree
                      ? OperatorTreeLinks(rule, task.a, run.use_blocking)
                      : GenerateLinks(rule, task.a, task.a, options);
      run.round_seconds.push_back(std::chrono::duration<double>(
                                      std::chrono::steady_clock::now() - start)
                                      .count());
    };
    std::vector<double> ratios;
    for (size_t r = 0; r < rounds; ++r) {
      if (r % 2 == 0) {
        time(tree);
        time(store);
      } else {
        time(store);
        time(tree);
      }
      ratios.push_back(tree.round_seconds.back() / store.round_seconds.back());
    }
    store.speedup = Median(ratios);
  }
  for (const PathMeasurement& run : runs) {
    const double seconds = Median(run.round_seconds);
    std::printf("%-34s %8.3fs  %10.0f pairs/s  %zu links\n",
                run.system.c_str(), seconds, run.pairs / seconds,
                run.links.size());
  }

  // Bit-identity gate: value-store links == operator-tree links, per
  // blocking family.
  bool identical = SameLinks(runs[0].links, runs[1].links) &&
                   SameLinks(runs[2].links, runs[3].links) &&
                   !runs[1].links.empty();
  if (!identical) {
    std::fprintf(stderr,
                 "ERROR: value-store links differ from operator-tree links "
                 "(or no links were generated)\n");
  }

  std::vector<BenchRecord> records;
  for (const PathMeasurement& run : runs) {
    const double seconds = Median(run.round_seconds);
    BenchRecord record;
    record.dataset = "restaurant";
    record.system = run.system;
    record.data_scale = data.scale;
    record.runs = rounds;
    record.seconds = {seconds, 0.0};
    record.extra = {
        {"threads", 1.0},
        {"pairs", static_cast<double>(run.pairs)},
        {"links", static_cast<double>(run.links.size())},
        {"pairs_per_second", static_cast<double>(run.pairs) / seconds},
        {"speedup_vs_operator_tree", run.speedup},
        {"links_identical", identical ? 1.0 : 0.0},
    };
    records.push_back(std::move(record));
  }
  WriteBenchJson("matcher_throughput", scale, records);

  for (const PathMeasurement& run : runs) {
    if (!run.operator_tree) {
      std::printf("value-store speedup (%s): %.2fx, median of %zu paired "
                  "rounds\n",
                  run.use_blocking ? "blocking" : "cross", run.speedup,
                  rounds);
    }
  }
  return identical ? 0 : 1;
}

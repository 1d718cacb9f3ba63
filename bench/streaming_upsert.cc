// Streaming-mutation cost of the LiveCorpus layer (live/live_corpus.h):
// what a serving process pays for making its corpus mutable, measured
// on the synthetic person directory with the deterministic delta
// stream (datasets/synthetic.h, GenerateSyntheticDeltas).
//
// Measures:
//   * immutable baseline — per-query MatchEntity p50 on a plain
//     MatcherIndex over the base corpus (what `serve --target` pays
//     per request today);
//   * mutation throughput — ops/s streaming the whole delta batch
//     through ApplyBatch in `genlink apply`-sized chunks;
//   * query p50 under mutation — a query thread races a writer thread
//     that upserts/removes one entity at a time (one snapshot publish
//     per op, the worst-case churn). Each round times the same query
//     against the immutable index and the live corpus back to back,
//     alternating which side goes first, so both sides of a ratio see
//     the same machine speed;
//   * compaction pause — wall time of Compact() folding the full delta
//     log back into the base, while readers would keep serving the
//     previous snapshot.
//
// Doubles as a CI gate, exiting non-zero when either fails:
//   * bit-identity — after the whole stream (and again after
//     compaction) the live corpus must answer a query sample exactly
//     as a fresh MatcherIndex::Build over the materialized logical
//     corpus (ids, scores, order): extra.links_identical, held at 1.0;
//   * bounded slowdown — the median of the per-round live/immutable
//     ratios under concurrent mutation must stay <= 2x
//     (extra.p50_within_gate, held at 1.0; the median ratio rides
//     along as extra.slowdown_p50).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/matcher_index.h"
#include "datasets/synthetic.h"
#include "harness.h"
#include "live/live_corpus.h"
#include "matcher/matcher.h"
#include "rule/builder.h"

using namespace genlink;
using namespace genlink::bench;

namespace {

LinkageRule PersonRule() {
  auto rule = RuleBuilder()
                  .Aggregate("max")
                  .Compare("levenshtein", 2.0, Prop("name").Lower(),
                           Prop("name").Lower())
                  .Compare("levenshtein", 1.0, Prop("phone"), Prop("phone"))
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

/// p-th percentile (0..1) of `samples`, by sorting a copy.
double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = lo + 1 < samples.size() ? lo + 1 : lo;
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
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
  record.dataset = "synthetic-person";
  record.system = system;
  record.data_scale = data_scale;
  record.runs = reps;
  record.seconds = {seconds, 0.0};
  record.extra = std::move(extra);
  return record;
}

}  // namespace

int main() {
  const BenchScale scale = GetBenchScale();
  const bool smoke = scale.name == "smoke";
  const double max_slowdown = 2.0;

  SyntheticConfig config;
  config.num_entities = smoke ? 2000 : 20000;
  config.num_threads = 0;
  SyntheticDeltaConfig delta_config;
  delta_config.base = config;
  delta_config.num_deltas = smoke ? 800 : 5000;
  const MatchingTask task = GenerateSynthetic(config);
  const SyntheticDeltas deltas = GenerateSyntheticDeltas(delta_config);
  const LinkageRule rule = PersonRule();

  MatchOptions options;
  options.num_threads = 1;

  std::vector<LiveOp> ops;
  ops.reserve(deltas.ops.size());
  for (const SyntheticDelta& delta : deltas.ops) {
    LiveOp op;
    if (delta.remove) {
      op.kind = LiveOp::Kind::kRemove;
      op.id = delta.entity.id();
    } else {
      op.entity = delta.entity;
    }
    ops.push_back(std::move(op));
  }

  const size_t sample = smoke ? 200 : 400;
  std::vector<Entity> queries(task.a.entities().begin(),
                              task.a.entities().begin() + sample);

  // Immutable baseline: per-query p50 against a frozen MatcherIndex
  // over the base corpus.
  const auto baseline_index = MatcherIndex::Build(task.b, rule, options);
  std::vector<double> baseline_us;
  baseline_us.reserve(queries.size());
  for (const Entity& query : queries) {
    const auto start = std::chrono::steady_clock::now();
    baseline_index->MatchEntity(query, task.a.schema());
    baseline_us.push_back(Seconds(start) * 1e6);
  }
  const double p50_immutable_us = Percentile(baseline_us, 0.5);
  std::printf("streaming: %zu entities, immutable query p50 %.1fus\n",
              task.b.size(), p50_immutable_us);

  // Mutation throughput: the full delta stream through ApplyBatch in
  // `genlink apply`-sized chunks (one snapshot publish per batch).
  auto live = LiveCorpus::Create(task.b, rule, options);
  if (!live.ok()) {
    std::fprintf(stderr, "LiveCorpus::Create failed: %s\n",
                 live.status().ToString().c_str());
    return 1;
  }
  const size_t batch_size = 100;
  size_t batches = 0;
  const auto apply_start = std::chrono::steady_clock::now();
  for (size_t offset = 0; offset < ops.size(); offset += batch_size) {
    const size_t count = std::min(batch_size, ops.size() - offset);
    const Status applied = (*live)->ApplyBatch(
        std::span<const LiveOp>(ops).subspan(offset, count), deltas.schema);
    if (!applied.ok()) {
      std::fprintf(stderr, "ApplyBatch failed at offset %zu: %s\n", offset,
                   applied.ToString().c_str());
      return 1;
    }
    ++batches;
  }
  const double apply_seconds = Seconds(apply_start);
  const double ops_per_second =
      apply_seconds > 0.0 ? static_cast<double>(ops.size()) / apply_seconds
                          : 0.0;
  const LiveCorpusStats applied_stats = (*live)->stats();
  std::printf(
      "streaming: %zu ops in %zu batches, %.3fs (%.0f ops/s), epoch %llu, "
      "%zu live entities\n",
      ops.size(), batches, apply_seconds, ops_per_second,
      static_cast<unsigned long long>(applied_stats.epoch),
      applied_stats.live_entities);

  // Bit-identity after the whole stream: the live view must answer the
  // sample exactly as a fresh build over the materialized logical
  // corpus.
  auto logical = (*live)->MaterializeLogical();
  if (!logical.ok()) {
    std::fprintf(stderr, "MaterializeLogical failed: %s\n",
                 logical.status().ToString().c_str());
    return 1;
  }
  const auto fresh_index = MatcherIndex::Build(*logical, rule, options);
  const auto fresh_links = fresh_index->MatchBatch(queries, task.a.schema());
  const auto live_links = (*live)->MatchBatch(queries, task.a.schema());
  const bool identical_streamed = SameLinks(fresh_links, live_links);

  // Compaction pause: fold the full delta log back into the base.
  const size_t compacted_entries = applied_stats.delta_log_entries;
  const auto compact_start = std::chrono::steady_clock::now();
  const Status compacted = (*live)->Compact();
  const double compact_seconds = Seconds(compact_start);
  if (!compacted.ok()) {
    std::fprintf(stderr, "Compact failed: %s\n",
                 compacted.ToString().c_str());
    return 1;
  }
  const auto compacted_links = (*live)->MatchBatch(queries, task.a.schema());
  const bool identical_compacted = SameLinks(fresh_links, compacted_links);
  const bool identical = identical_streamed && identical_compacted;
  std::printf(
      "streaming: %zu sample queries -> %zu links, identical=%d "
      "(streamed=%d compacted=%d), compaction %.4fs over %zu log entries\n",
      sample, fresh_links.size(), identical ? 1 : 0, identical_streamed ? 1 : 0,
      identical_compacted ? 1 : 0, compact_seconds, compacted_entries);

  // Query p50 under mutation: a fresh live corpus, a writer thread
  // replaying the stream one op at a time (one publish per op — the
  // worst-case snapshot churn), and the query thread measuring only
  // while the writer runs. Every round pairs the live query with the
  // same query on the immutable index; a frequency swing of the host
  // then moves both sides of the round's ratio alike.
  auto racing = LiveCorpus::Create(task.b, rule, options);
  if (!racing.ok()) {
    std::fprintf(stderr, "LiveCorpus::Create (racing) failed: %s\n",
                 racing.status().ToString().c_str());
    return 1;
  }
  std::atomic<bool> writer_done{false};
  std::atomic<bool> writer_failed{false};
  std::thread writer([&] {
    for (const LiveOp& op : ops) {
      const Status status = op.kind == LiveOp::Kind::kRemove
                                ? (*racing)->Remove(op.id)
                                : (*racing)->Upsert(op.entity, deltas.schema);
      if (!status.ok()) {
        std::fprintf(stderr, "writer failed: %s\n", status.ToString().c_str());
        writer_failed.store(true);
        break;
      }
    }
    writer_done.store(true);
  });
  std::vector<double> racing_us;
  std::vector<double> ratios;
  const size_t min_racing_queries = 100;
  size_t next_query = 0;
  while (!writer_done.load() || racing_us.size() < min_racing_queries) {
    const Entity& query = queries[next_query];
    next_query = (next_query + 1) % queries.size();
    const auto time_live = [&] {
      const auto start = std::chrono::steady_clock::now();
      (*racing)->MatchEntity(query, task.a.schema());
      return Seconds(start) * 1e6;
    };
    const auto time_immutable = [&] {
      const auto start = std::chrono::steady_clock::now();
      baseline_index->MatchEntity(query, task.a.schema());
      return Seconds(start) * 1e6;
    };
    double live_us = 0.0;
    double immutable_us = 0.0;
    if (racing_us.size() % 2 == 0) {
      live_us = time_live();
      immutable_us = time_immutable();
    } else {
      immutable_us = time_immutable();
      live_us = time_live();
    }
    racing_us.push_back(live_us);
    if (immutable_us > 0.0) ratios.push_back(live_us / immutable_us);
  }
  writer.join();
  if (writer_failed.load()) return 1;
  const double p50_live_us = Percentile(racing_us, 0.5);
  const double slowdown = Percentile(ratios, 0.5);
  const bool within_gate = slowdown <= max_slowdown;
  std::printf(
      "streaming: %zu queries under mutation, p50 %.1fus (median paired "
      "ratio %.2fx immutable, gate %.1fx)\n",
      racing_us.size(), p50_live_us, slowdown, max_slowdown);

  std::vector<BenchRecord> records;
  records.push_back(MakeRecord(
      "streaming/immutable-baseline", config.num_entities, 1,
      p50_immutable_us * 1e-6,
      {{"entities", static_cast<double>(task.b.size())},
       {"sample_queries", static_cast<double>(queries.size())},
       {"p50_us", p50_immutable_us}}));
  records.push_back(MakeRecord(
      "streaming/apply-batch", config.num_entities, 1, apply_seconds,
      {{"ops_per_second", ops_per_second},
       {"deltas", static_cast<double>(ops.size())},
       {"batches", static_cast<double>(batches)},
       {"live_entities", static_cast<double>(applied_stats.live_entities)}}));
  records.push_back(MakeRecord(
      "streaming/query-under-mutation", config.num_entities, 1,
      p50_live_us * 1e-6,
      {{"p50_us", p50_live_us},
       {"slowdown_p50", slowdown},
       {"p50_within_gate", within_gate ? 1.0 : 0.0},
       {"queries_measured", static_cast<double>(racing_us.size())}}));
  records.push_back(MakeRecord(
      "streaming/compaction", config.num_entities, 1, compact_seconds,
      {{"compacted_log_entries", static_cast<double>(compacted_entries)},
       {"links_identical", identical ? 1.0 : 0.0},
       {"sample_links", static_cast<double>(fresh_links.size())}}));
  WriteBenchJson("streaming_upsert", scale, records);

  int exit_code = 0;
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: live corpus diverged from a fresh build of the "
                 "logical corpus (streamed=%d compacted=%d)\n",
                 identical_streamed ? 1 : 0, identical_compacted ? 1 : 0);
    exit_code = 1;
  }
  if (fresh_links.empty()) {
    std::fprintf(stderr, "FAIL: query sample produced no links\n");
    exit_code = 1;
  }
  if (!within_gate) {
    std::fprintf(stderr,
                 "FAIL: median paired query ratio under mutation %.2fx "
                 "immutable, above the %.1fx gate\n",
                 slowdown, max_slowdown);
    exit_code = 1;
  }
  return exit_code;
}

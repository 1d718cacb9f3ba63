// The benchmark's three workloads (README.md says why each exists and
// which modules it stresses). Each generates its inputs from
// args.seed, times kSetupRepeats identical set-ups, runs a fixed
// number of operations, checks every answer, and adds its metrics to
// `report`: end-to-end metrics in an untraced run, per-layer metrics
// (its own end-to-end numbers under a "traced." prefix among them) in a
// traced one.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "harness.h"

namespace perfbench {

void RunLearn(const RunArgs& args, Report& report);
void RunServe(const RunArgs& args, Report& report);
void RunLive(const RunArgs& args, Report& report);

/// Every metric of BENCHMARK.json, in its order. Every run prints every
/// metric of its kind: an untraced run the end-to-end ones, a traced
/// run the per-layer ones. End-to-end metrics are measured by every
/// workload on its own operation (learn: one Learn; serve: one /match
/// batch; live: one /match read or write batch). A per-layer metric
/// is measured by the workloads in `measured_by` ("" = every workload);
/// the others never call that module and print 0 for it.
struct MetricSpec {
  const char* name;
  const char* unit;
  bool end_to_end;
  const char* measured_by;
};

inline constexpr MetricSpec kMetrics[] = {
    {"setup_s", "s", true, ""},
    {"peak_rss_mb", "MB", true, ""},
    {"op_cpu_ms", "ms", true, ""},

    {"traced.setup_s", "s", false, ""},
    {"traced.peak_rss_mb", "MB", false, ""},
    {"traced.op_cpu_ms", "ms", false, ""},
    {"traced.op_p50_ms", "ms", false, ""},
    {"traced.op_p90_ms", "ms", false, ""},
    {"traced.op_p99_ms", "ms", false, ""},
    {"gp.val_f1", "ratio", false, "learn"},
    {"gp.gen0_ms", "ms", false, "learn"},
    {"gp.generation_ms", "ms", false, "learn"},
    {"gp.generations", "count", false, "learn"},
    {"gp.seeding_ms", "ms", false, "learn"},
    {"eval.batch_ms", "ms", false, "learn"},
    {"eval.fitness_hit_rate", "ratio", false, "learn"},
    {"eval.distance_row_hit_rate", "ratio", false, "learn"},
    {"eval.distance_rows_computed", "count", false, "learn"},
    {"eval.rules_evaluated", "count", false, "learn"},
    {"eval.value_plans_compiled", "count", false, "learn"},
    {"distance.pair_distances", "count", false, "learn"},
    {"io.task_load_ms", "ms", false, "learn"},
    {"io.index_write_s", "s", false, "serve"},
    {"io.artifact_load_ms", "ms", false, "serve"},
    {"serve.deploy_ms", "ms", false, "serve"},
    {"match_qps", "records/s", false, "serve live"},
    {"serve.server_p50_ms", "ms", false, "serve live"},
    {"serve.server_p99_ms", "ms", false, "serve live"},
    {"serve.transport_p50_ms", "ms", false, "serve live"},
    {"serve.http_parse_us", "us", false, "serve"},
    {"io.csv_parse_us", "us", false, "serve"},
    {"io.serialise_us", "us", false, "serve"},
    {"api.match_batch_ms", "ms", false, "serve"},
    {"rule.query_values_us", "us", false, "serve"},
    {"matcher.probe_us", "us", false, "serve"},
    {"matcher.candidates_per_query", "count", false, "serve"},
    {"matcher.links_per_candidate", "ratio", false, "serve"},
    {"upsert_p50_ms", "ms", false, "live"},
    {"upsert_p90_ms", "ms", false, "live"},
    {"upsert_p99_ms", "ms", false, "live"},
    {"live.create_ms", "ms", false, "live"},
    {"live.apply_p50_ms", "ms", false, "live"},
    {"live.apply_p99_ms", "ms", false, "live"},
    {"live.match_us", "us", false, "live"},
    {"live.compactions", "count", false, "live"},
    {"live.compact_ms", "ms", false, "live"},
    {"live.epochs", "count", false, "live"},
    {"live.delta_peak", "count", false, "live"},
    {"bench.writer_late_ms", "ms", false, "live"},
};

/// Adds an end-to-end metric, renamed "traced.<name>" in a traced run
/// so its tracing overhead shows beside the untraced run's value.
inline void EndToEnd(const RunArgs& args, Report& report, const std::string& name,
                     double value, const std::string& unit) {
  report.Metric(args.trace ? "traced." + name : name, value, unit);
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

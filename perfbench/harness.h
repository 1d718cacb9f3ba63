// Shared pieces of the perfbench program: run arguments, the result
// report (the JSON last line), statistics, peak memory, input helpers
// and the in-memory span tracer.
//
// Tracing follows the benchmark's rule of measuring from outside: the
// benchmark opens a Span around each call it makes into a genlink module's
// public functions. Spans always time themselves (so untraced and traced
// runs share one code path); they are kept only when tracing is on, and
// written as JSON lines when the run ends.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "model/dataset.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Parsed command line of one run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 0;
  /// Scales every workload's fixed operation counts (20 = the sizes
  /// README.md documents); the same value always gives the same work.
  int seconds = 20;
  bool trace = false;
  /// The checked-in rule artifact serve and live deploy.
  std::string rule_path;
  /// Scratch directory inside the checkout for this run's files.
  std::string work_dir;
};

/// Identical set-ups timed per run; setup_s is their median.
inline constexpr int kSetupRepeats = 11;

/// The run's result: counters, correctness and named metrics, printed
/// as a human summary and as the final JSON line.
class Report {
 public:
  void Metric(std::string name, double value, std::string unit);
  /// Counts `n` attempted operations.
  void Attempted(size_t n) { attempted_ += n; }
  /// Counts one failed operation and prints why on stderr.
  void Failed(std::string_view why);
  /// Marks a correctness check as failed (without an operation).
  void CheckFailed(std::string_view why);

  /// Checks the metrics against kMetrics (workloads.h), adds a 0 for
  /// every per-layer metric `args.workload` does not measure, and
  /// prints the metric table and the JSON line to stdout. Aborts the
  /// run when a metric is missing, unlisted, in another unit, or an
  /// end-to-end value is not positive.
  void Print(const RunArgs& args);

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  bool correct_ = true;
};

double SecondsSince(Clock::time_point start);
double MillisSince(Clock::time_point start);

/// CPU time used so far by the whole process, and by the calling
/// thread, in seconds. Unlike wall time, it does not count the time a
/// virtual CPU was descheduled by its host (steal).
double ProcessCpuSeconds();
double ThreadCpuSeconds();

/// Sleeps until shortly before `due`, then spins until it, so an
/// open-loop generator sends on time even when a sleeping thread wakes
/// late.
void WaitUntil(Clock::time_point due);

/// Linear-interpolation percentile (p in [0, 100]); 0 for no samples.
double Percentile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

/// Marks the end of input generation: hands freed heap back to the
/// kernel, resets the process's peak resident set to its current size
/// (writing 5 to /proc/self/clear_refs) and records that size.
void MarkRssBaseline();

/// Peak resident set size since MarkRssBaseline minus the size recorded
/// there, in MB: the memory the system takes on top of the benchmark's
/// inputs.
double PeakRssMb();

/// One CSV row per entity ("id" column first, then one column per
/// property, first value or empty) with a header row — the layout
/// `genlink gen` writes and the serve daemon reads.
std::string DatasetCsv(const genlink::Schema& schema,
                       const std::vector<const genlink::Entity*>& entities);

/// Aborts the run (exit 1, no result line) when `ok` is false.
void Require(bool ok, std::string_view what);

/// ---- Tracing.

/// Turns span recording on for the whole process (before any thread
/// starts).
void EnableTracing();

/// Times one call into the system. The span's parent is the innermost
/// span open on the same thread; `trace_id` groups the spans of one
/// request (0 = inherit the parent's).
class Span {
 public:
  explicit Span(const char* name, uint64_t trace_id = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span (idempotent) and returns its duration in seconds.
  double End();

 private:
  const char* name_;
  uint64_t id_;
  uint64_t parent_;
  uint64_t trace_id_;
  Span* outer_;
  Clock::time_point start_;
  double seconds_ = -1.0;
};

/// Durations in seconds of every recorded span named `name`.
std::vector<double> SpanSeconds(std::string_view name);

/// Writes every recorded span to `path` as JSON lines:
/// {"name","id","parent","trace","start_us","dur_us"}.
void WriteSpans(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

#include "harness.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include <time.h>

#include "io/csv.h"
#include "workloads.h"

namespace perfbench {

void Report::Metric(std::string name, double value, std::string unit) {
  Require(std::isfinite(value), "metric " + name + " is not finite");
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::Failed(std::string_view why) {
  ++failed_;
  correct_ = false;
  std::fprintf(stderr, "perfbench: FAILED: %.*s\n", static_cast<int>(why.size()),
               why.data());
}

void Report::CheckFailed(std::string_view why) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %.*s\n",
               static_cast<int>(why.size()), why.data());
}

void Report::Print(const RunArgs& args) {
  std::vector<Entry> ordered;
  for (const MetricSpec& spec : kMetrics) {
    if (spec.end_to_end == args.trace) continue;
    const std::string owners = std::string(" ") + spec.measured_by + " ";
    const bool measured = std::string_view(spec.measured_by).empty() ||
                          owners.find(" " + args.workload + " ") !=
                              std::string::npos;
    const auto it = std::find_if(
        metrics_.begin(), metrics_.end(),
        [&](const Entry& m) { return m.name == spec.name; });
    if (!measured) {
      Require(it == metrics_.end(), std::string("metric ") + spec.name +
                                        " is not measured by " + args.workload);
      ordered.push_back({spec.name, 0.0, spec.unit});
      continue;
    }
    Require(it != metrics_.end(), std::string("metric ") + spec.name +
                                      " was not measured");
    Require(it->unit == spec.unit, std::string("metric ") + spec.name +
                                       " is not in " + spec.unit);
    Require(!spec.end_to_end || it->value > 0.0,
            std::string("end-to-end metric ") + spec.name + " is not positive");
    ordered.push_back(*it);
  }
  for (const Entry& m : metrics_) {
    Require(std::any_of(std::begin(kMetrics), std::end(kMetrics),
                        [&](const MetricSpec& spec) {
                          return spec.end_to_end != args.trace &&
                                 m.name == spec.name;
                        }),
            "metric " + m.name + " is not a " +
                (args.trace ? "per-layer" : "end-to-end") +
                " metric of BENCHMARK.json");
  }
  metrics_ = std::move(ordered);

  std::printf("%-32s %18s  %s\n", "metric", "value", "unit");
  for (const Entry& m : metrics_) {
    std::printf("%-32s %18.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %zu, failed %zu, correct %s\n", attempted_, failed_,
              correct_ ? "true" : "false");
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MillisSince(Clock::time_point start) {
  return SecondsSince(start) * 1e3;
}

namespace {

double CpuSeconds(clockid_t clock) {
  timespec now{};
  Require(clock_gettime(clock, &now) == 0, "clock_gettime failed");
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

}  // namespace

double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }

void WaitUntil(Clock::time_point due) {
  std::this_thread::sleep_until(due - std::chrono::milliseconds(2));
  while (Clock::now() < due) {
  }
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

namespace {

double g_rss_baseline_kb = 0.0;

/// A "Name:   123 kB" field of /proc/self/status, in KiB.
double StatusKb(const char* field) {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  Require(status != nullptr, "cannot read /proc/self/status");
  char line[256];
  double kb = -1.0;
  while (kb < 0.0 && std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, field, std::strlen(field)) == 0) {
      kb = std::atof(line + std::strlen(field));
    }
  }
  std::fclose(status);
  Require(kb >= 0.0, std::string("no ") + field + " in /proc/self/status");
  return kb;
}

}  // namespace

void MarkRssBaseline() {
  malloc_trim(0);
  std::FILE* clear = std::fopen("/proc/self/clear_refs", "w");
  const bool reset = clear != nullptr && std::fputs("5", clear) >= 0;
  Require(clear != nullptr && std::fclose(clear) == 0 && reset,
          "cannot reset the peak resident set (/proc/self/clear_refs)");
  g_rss_baseline_kb = StatusKb("VmRSS:");
}

double PeakRssMb() {
  return (StatusKb("VmHWM:") - g_rss_baseline_kb) / 1024.0;
}

std::string DatasetCsv(const genlink::Schema& schema,
                       const std::vector<const genlink::Entity*>& entities) {
  std::vector<std::string> row{"id"};
  for (const std::string& name : schema.property_names()) row.push_back(name);
  std::string csv = genlink::WriteCsv({row});
  for (const genlink::Entity* entity : entities) {
    row.clear();
    row.push_back(entity->id());
    for (genlink::PropertyId p = 0; p < schema.NumProperties(); ++p) {
      const genlink::ValueSet& values = entity->Values(p);
      row.push_back(values.empty() ? std::string() : values.front());
    }
    csv += genlink::WriteCsv({row});
  }
  return csv;
}

void Require(bool ok, std::string_view what) {
  if (ok) return;
  std::fprintf(stderr, "perfbench: %.*s\n", static_cast<int>(what.size()),
               what.data());
  std::exit(1);
}

// ---------------------------------------------------------------- spans

namespace {

struct SpanRecord {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t trace;
  double start_s;
  double seconds;
};

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_span{1};
const Clock::time_point g_epoch = Clock::now();

/// Per-thread span buffers, owned here so they outlive their threads.
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<std::vector<SpanRecord>>> g_buffers;

thread_local Span* t_current = nullptr;
thread_local std::vector<SpanRecord>* t_buffer = nullptr;

bool TracingEnabled() { return g_tracing.load(std::memory_order_relaxed); }

std::vector<SpanRecord>& ThreadBuffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<std::vector<SpanRecord>>());
    t_buffer = g_buffers.back().get();
  }
  return *t_buffer;
}

}  // namespace

void EnableTracing() { g_tracing.store(true, std::memory_order_relaxed); }

Span::Span(const char* name, uint64_t trace_id)
    : name_(name),
      id_(g_next_span.fetch_add(1, std::memory_order_relaxed)),
      parent_(0),
      trace_id_(trace_id),
      outer_(t_current),
      start_(Clock::now()) {
  if (outer_ != nullptr) {
    parent_ = outer_->id_;
    if (trace_id_ == 0) trace_id_ = outer_->trace_id_;
  }
  t_current = this;
}

Span::~Span() { End(); }

double Span::End() {
  if (seconds_ >= 0.0) return seconds_;
  seconds_ = SecondsSince(start_);
  t_current = outer_;
  if (TracingEnabled()) {
    ThreadBuffer().push_back(
        {name_, id_, parent_, trace_id_,
         std::chrono::duration<double>(start_ - g_epoch).count(), seconds_});
  }
  return seconds_;
}

std::vector<double> SpanSeconds(std::string_view name) {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::vector<double> out;
  for (const auto& buffer : g_buffers) {
    for (const SpanRecord& record : *buffer) {
      if (name == record.name) out.push_back(record.seconds);
    }
  }
  return out;
}

void WriteSpans(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::FILE* out = std::fopen(path.c_str(), "w");
  Require(out != nullptr, "cannot write " + path);
  size_t count = 0;
  for (const auto& buffer : g_buffers) {
    for (const SpanRecord& r : *buffer) {
      std::fprintf(out,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"trace\":%llu,\"start_us\":%.3f,\"dur_us\":%.3f}\n",
                   r.name, static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(r.trace), r.start_s * 1e6,
                   r.seconds * 1e6);
      ++count;
    }
  }
  Require(std::fclose(out) == 0, "cannot write " + path);
  std::printf("spans: %zu written to %s\n", count, path.c_str());
}

}  // namespace perfbench

// Workload `live`: reads beside writes on a mutable corpus. The same
// rule serves a LiveCorpus (unweighted blocking, which the live layer
// requires; count-based online compaction) through an in-process
// ServeDaemon in live mode — `genlink serve --target --live
// --compact-threshold` — while one open-loop writer posts /upsert and
// /delete batches on a fixed schedule and two closed-loop readers post
// single-record /match requests.

#include <algorithm>
#include <cstdio>
#include <latch>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/matcher_index.h"
#include "common/random.h"
#include "datasets/synthetic.h"
#include "http_client.h"
#include "io/artifact.h"
#include "io/link_io.h"
#include "live/live_corpus.h"
#include "serve/server.h"
#include "serve/serving_state.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace genlink;

constexpr size_t kEntities = 10000;
/// Delta-stream ops per write batch (split into one /upsert and one
/// /delete request, upserts first; see MakeWriteBatches).
constexpr size_t kOpsPerWrite = 32;
/// Write batches and reads per second of --seconds.
constexpr size_t kWritesPerSecond = 20;
constexpr size_t kReadsPerSecond = 320;
/// The writer's fixed schedule: one batch due every kWriteInterval. A
/// batch costs 2-10 ms as the delta log fills, so the writer stays
/// below half utilisation even when the host slows it twofold and its
/// latency does not turn into queueing.
constexpr std::chrono::microseconds kWriteInterval{40000};
/// Online compaction once the delta log holds this many entries.
constexpr size_t kCompactThreshold = 3000;
/// Closed-loop readers. Two, because the host's speed flips per virtual
/// CPU every few seconds: one reader's median followed one CPU's state
/// (ten-seed spread 0.19-0.27), two average two independent ones.
constexpr size_t kReaders = 2;
/// One keep-alive connection each for the readers and the writer.
constexpr size_t kWorkers = kReaders + 1;
constexpr size_t kPoolThreads = 1;
/// Threads of the post-run bit-identity check.
constexpr size_t kCheckThreads = 4;

/// One scheduled write: the upserts of kOpsPerWrite consecutive delta
/// ops, then their deletes. A deleted id never reappears later in the
/// stream (GenerateSyntheticDeltas drops it from its alive set), so
/// moving a batch's deletes after its upserts keeps every delete valid
/// and leaves the same final state as stream order.
struct WriteBatch {
  std::vector<const SyntheticDelta*> upserts;
  std::vector<const SyntheticDelta*> deletes;
  std::string upsert_request;  // empty when the batch has no upserts
  std::string delete_request;  // empty when the batch has no deletes
};

std::vector<WriteBatch> MakeWriteBatches(const SyntheticDeltas& deltas,
                                         size_t count) {
  std::vector<WriteBatch> batches(count);
  for (size_t i = 0; i < count; ++i) {
    WriteBatch& batch = batches[i];
    std::vector<const Entity*> rows;
    std::string ids;
    for (size_t k = i * kOpsPerWrite; k < (i + 1) * kOpsPerWrite; ++k) {
      const SyntheticDelta& op = deltas.ops[k];
      if (op.remove) {
        batch.deletes.push_back(&op);
        ids += op.entity.id() + "\n";
      } else {
        batch.upserts.push_back(&op);
        rows.push_back(&op.entity);
      }
    }
    if (!rows.empty()) {
      batch.upsert_request =
          HttpClient::Request("/upsert", DatasetCsv(deltas.schema, rows));
    }
    if (!ids.empty()) batch.delete_request = HttpClient::Request("/delete", ids);
  }
  return batches;
}

/// True when `body` acknowledges `count` ops ("upserted 13 epoch=7").
bool Acknowledges(const std::string& body, const char* verb, size_t count) {
  return body.rfind(std::string(verb) + " " + std::to_string(count) + " ", 0) ==
         0;
}

std::vector<LiveOp> LiveOps(const std::vector<const SyntheticDelta*>& ops) {
  std::vector<LiveOp> out;
  for (const SyntheticDelta* op : ops) {
    LiveOp live;
    live.kind = op->remove ? LiveOp::Kind::kRemove : LiveOp::Kind::kUpsert;
    if (op->remove) {
      live.id = op->entity.id();
    } else {
      live.entity = op->entity;
    }
    out.push_back(std::move(live));
  }
  return out;
}

}  // namespace

void RunLive(const RunArgs& args, Report& report) {
  auto loaded = LoadArtifact(args.rule_path);
  Require(loaded.ok(), "rule artifact: " + loaded.status().ToString());
  const RuleArtifact artifact = std::move(*loaded);
  LiveCorpusOptions live_options;
  live_options.compact_delta_threshold = kCompactThreshold;

  // --- Inputs (not timed): corpus = side B, reads = side A records in
  // a seeded order, writes = the synthetic delta stream over side B.
  const size_t num_writes = kWritesPerSecond * args.seconds;
  const size_t num_reads = kReadsPerSecond * args.seconds;
  SyntheticConfig synthetic;
  synthetic.num_entities = std::max(kEntities, num_reads);
  synthetic.num_threads = 1;
  synthetic.seed = args.seed;
  const MatchingTask task = GenerateSynthetic(synthetic);
  SyntheticDeltaConfig delta_config;
  delta_config.base = synthetic;
  delta_config.num_deltas = num_writes * kOpsPerWrite;
  delta_config.seed = args.seed * 5 + 3;
  const SyntheticDeltas deltas = GenerateSyntheticDeltas(delta_config);
  std::printf("task fingerprint %016llx, deltas fingerprint %016llx: corpus "
              "%zu, %zu reads, %zu writes x %zu ops every %lldus\n",
              static_cast<unsigned long long>(FingerprintTask(task)),
              static_cast<unsigned long long>(FingerprintDeltas(deltas)),
              task.b.size(), num_reads, num_writes, kOpsPerWrite,
              static_cast<long long>(kWriteInterval.count()));
  const std::vector<WriteBatch> writes = MakeWriteBatches(deltas, num_writes);
  std::vector<size_t> order(task.a.size());
  std::iota(order.begin(), order.end(), 0);
  Rng order_rng(args.seed * 3 + 1);
  order_rng.Shuffle(order);
  std::vector<const Entity*> queries(num_reads);
  std::vector<std::string> reads(num_reads);
  for (size_t i = 0; i < num_reads; ++i) {
    queries[i] = &task.a.entity(order[i]);
    reads[i] = HttpClient::Request("/match",
                                   DatasetCsv(task.a.schema(), {queries[i]}));
  }
  MarkRssBaseline();

  // --- Set-up, timed kSetupRepeats times; the last one serves.
  ServeOptions serve_options;
  serve_options.num_workers = kWorkers;
  serve_options.csv.id_column = "id";
  std::vector<double> setups;
  std::unique_ptr<ServeDaemon> daemon;
  std::unique_ptr<ServingState> state;
  for (int i = 0; i < kSetupRepeats; ++i) {
    daemon.reset();
    state.reset();
    Span setup("bench.setup");
    state = std::make_unique<ServingState>(task.b, kPoolThreads, live_options);
    {
      Span create("live.create");
      const Status deployed = state->Deploy(artifact);
      Require(deployed.ok(), "Deploy: " + deployed.ToString());
    }
    daemon = std::make_unique<ServeDaemon>(*state, serve_options);
    const Status started = daemon->Start();
    Require(started.ok(), "ServeDaemon::Start: " + started.ToString());
    setups.push_back(setup.End());
  }
  const std::shared_ptr<LiveCorpus> live = state->live();

  // --- Measurement: the open-loop writer and the closed-loop readers;
  // reader r sends reads r, r+kReaders, ... Once every thread is done
  // and the measured phase is read off, each thread re-sends its share
  // of the reads (thread c reads c, c+kWorkers, ...), so the daemon's
  // answers over the final corpus can be checked. It does so on a new
  // connection: the daemon closes a keep-alive connection left idle
  // for its read timeout (5 s), as the writer's is while slow readers
  // finish.
  std::vector<double> write_ms(num_writes, 0.0);
  std::vector<double> late_ms(num_writes, 0.0);
  std::vector<bool> acked(num_writes, false);
  std::vector<double> read_ms(num_reads, 0.0);
  std::vector<int> read_status(num_reads, 0);
  std::vector<std::string> final_bodies(num_reads);
  std::vector<int> final_status(num_reads, 0);
  std::vector<double> compact_ms;  // traced: one per observed compaction
  size_t delta_peak = 0;
  std::latch go(1);
  std::latch measured(kWorkers);
  std::latch resend_go(1);
  Clock::time_point start;
  double writer_seconds = 0.0;
  // The system's CPU time is the process's minus the clients' own:
  // client_cpu[kReaders] is the writer's.
  std::vector<double> client_cpu(kReaders + 1, 0.0);
  const auto resend = [&](std::optional<HttpClient>& measuring, size_t first) {
    measuring.reset();
    measured.count_down();
    resend_go.wait();
    HttpClient client(daemon->port());
    for (size_t i = first; i < num_reads; i += kWorkers) {
      if (!client.Send(reads[i], &final_status[i], &final_bodies[i])) {
        final_status[i] = -1;
      }
    }
  };
  std::thread writer([&] {
    std::optional<HttpClient> client(std::in_place, daemon->port());
    go.wait();
    const double cpu = ThreadCpuSeconds();
    uint64_t compactions = 0;
    for (size_t i = 0; i < num_writes; ++i) {
      const Clock::time_point due = start + i * kWriteInterval;
      WaitUntil(due);
      late_ms[i] = MillisSince(due);
      Span write("live.write", i + 1);
      int status = 0;
      std::string body;
      bool ok = true;
      if (!writes[i].upsert_request.empty()) {
        ok = client->Send(writes[i].upsert_request, &status, &body) &&
             status == 200 &&
             Acknowledges(body, "upserted", writes[i].upserts.size());
      }
      if (ok && !writes[i].delete_request.empty()) {
        ok = client->Send(writes[i].delete_request, &status, &body) &&
             status == 200 &&
             Acknowledges(body, "deleted", writes[i].deletes.size());
      }
      write_ms[i] = MillisSince(due);
      write.End();
      acked[i] = ok;
      if (args.trace) {
        const LiveCorpusStats stats = live->stats();
        delta_peak = std::max(delta_peak, stats.delta_log_entries);
        if (stats.compactions > compactions) {
          compactions = stats.compactions;
          compact_ms.push_back(stats.last_compact_seconds * 1e3);
        }
      }
    }
    writer_seconds = SecondsSince(start);
    client_cpu[kReaders] = ThreadCpuSeconds() - cpu;
    resend(client, kReaders);
  });
  std::vector<double> read_seconds(kReaders, 0.0);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::optional<HttpClient> client(std::in_place, daemon->port());
      go.wait();
      const double cpu = ThreadCpuSeconds();
      std::string body;
      for (size_t i = r; i < num_reads; i += kReaders) {
        Span read("live.read", num_writes + i + 1);
        if (!client->Send(reads[i], &read_status[i], &body)) read_status[i] = -1;
        read_ms[i] = read.End() * 1e3;
      }
      read_seconds[r] = SecondsSince(start);
      client_cpu[r] = ThreadCpuSeconds() - cpu;
      resend(client, r);
    });
  }
  const double cpu = ProcessCpuSeconds();
  start = Clock::now();
  go.count_down();
  measured.wait();
  const double system_cpu =
      ProcessCpuSeconds() - cpu -
      std::accumulate(client_cpu.begin(), client_cpu.end(), 0.0);
  const double peak_rss = PeakRssMb();
  const double server_p50 = daemon->latency().PercentileSeconds(50);
  const double server_p99 = daemon->latency().PercentileSeconds(99);
  resend_go.count_down();
  writer.join();
  for (std::thread& reader : readers) reader.join();
  const double wall = std::max(
      writer_seconds, *std::max_element(read_seconds.begin(), read_seconds.end()));
  // The measured writes and reads, then the re-sent reads.
  report.Attempted(num_writes + 2 * num_reads);
  daemon.reset();
  const LiveCorpusStats final_stats = live->stats();
  std::printf("%zu reads and %zu writes in %.3fs; epoch %llu, %llu "
              "compactions, %zu live entities\n",
              num_reads, num_writes, wall,
              static_cast<unsigned long long>(final_stats.epoch),
              static_cast<unsigned long long>(final_stats.compactions),
              final_stats.live_entities);

  // --- Checks. Every request answered 200 and every write acknowledged.
  for (size_t i = 0; i < num_reads; ++i) {
    if (read_status[i] != 200) {
      report.Failed("read " + std::to_string(i) + " answered " +
                    std::to_string(read_status[i]));
    }
  }
  for (size_t i = 0; i < num_writes; ++i) {
    if (!acked[i]) report.Failed("write " + std::to_string(i) + " rejected");
  }
  // Every acknowledged op is visible: the logical corpus equals side B
  // with the acknowledged batches applied in order.
  std::unordered_map<std::string, const Entity*> model;
  for (const Entity& entity : task.b.entities()) model[entity.id()] = &entity;
  for (size_t i = 0; i < num_writes; ++i) {
    if (!acked[i]) continue;
    for (const SyntheticDelta* op : writes[i].upserts) {
      model[op->entity.id()] = &op->entity;
    }
    for (const SyntheticDelta* op : writes[i].deletes) {
      model.erase(op->entity.id());
    }
  }
  auto logical = live->MaterializeLogical();
  Require(logical.ok(), "MaterializeLogical: " + logical.status().ToString());
  Require(logical->schema().property_names() == deltas.schema.property_names(),
          "corpus and delta schemas differ");
  size_t visible = 0;
  for (const Entity& entity : logical->entities()) {
    const auto it = model.find(entity.id());
    bool same = it != model.end();
    for (PropertyId p = 0; same && p < logical->schema().NumProperties(); ++p) {
      same = entity.Values(p) == it->second->Values(p);
    }
    visible += same ? 1 : 0;
  }
  if (visible != model.size() || logical->size() != model.size()) {
    report.CheckFailed("logical corpus holds " + std::to_string(visible) +
                       " of " + std::to_string(model.size()) +
                       " expected entities (size " +
                       std::to_string(logical->size()) + ")");
  }
  // Every re-sent read answered byte-identically to a fresh build over
  // the logical corpus.
  MatchOptions fresh_options = artifact.options;
  fresh_options.num_threads = 1;
  const auto fresh = MatcherIndex::Build(*logical, artifact.rule, fresh_options);
  std::vector<char> identical(num_reads, 0);
  std::vector<std::thread> checkers;
  for (size_t t = 0; t < kCheckThreads; ++t) {
    checkers.emplace_back([&, t] {
      for (size_t i = t; i < num_reads; i += kCheckThreads) {
        identical[i] =
            final_status[i] == 200 &&
            final_bodies[i] == WriteGeneratedLinksCsv(fresh->MatchEntity(
                                   *queries[i], task.a.schema()));
      }
    });
  }
  for (std::thread& t : checkers) t.join();
  for (size_t i = 0; i < num_reads; ++i) {
    if (final_status[i] != 200) {
      report.Failed("re-sent read " + std::to_string(i) + " answered " +
                    std::to_string(final_status[i]));
    } else if (!identical[i]) {
      report.Failed("re-sent read " + std::to_string(i) +
                    " differs from a fresh build");
    }
  }

  const double read_p50 = Percentile(read_ms, 50);
  EndToEnd(args, report, "setup_s", Median(setups), "s");
  EndToEnd(args, report, "peak_rss_mb", peak_rss, "MB");
  // Per request, reads and write batches together: the writes' CPU
  // (ApplyBatch, publishes, compactions) is part of the fixed work.
  EndToEnd(args, report, "op_cpu_ms",
           system_cpu * 1e3 / static_cast<double>(num_reads + num_writes),
           "ms");
  if (!args.trace) return;

  // --- Per-layer: replay the writes (same schedule) and the reads
  // in-process against a fresh LiveCorpus, spanning ApplyBatch and
  // MatchEntity — the calls the daemon's handlers make.
  MatchOptions replay_options = artifact.options;
  replay_options.num_threads = kPoolThreads;
  auto replayed =
      LiveCorpus::Create(task.b, artifact.rule, replay_options, live_options);
  Require(replayed.ok(), "LiveCorpus::Create: " + replayed.status().ToString());
  LiveCorpus& corpus = **replayed;
  const Clock::time_point replay_start = Clock::now();
  std::thread replay_writer([&] {
    for (size_t i = 0; i < num_writes; ++i) {
      WaitUntil(replay_start + i * kWriteInterval);
      for (const auto* ops : {&writes[i].upserts, &writes[i].deletes}) {
        if (ops->empty()) continue;
        const std::vector<LiveOp> batch = LiveOps(*ops);
        Span apply("live.apply", i + 1);
        if (!corpus.ApplyBatch(batch, deltas.schema).ok()) {
          report.CheckFailed("replayed ApplyBatch " + std::to_string(i) +
                             " rejected");
        }
      }
    }
  });
  std::vector<std::thread> replay_readers;
  for (size_t r = 0; r < kReaders; ++r) {
    replay_readers.emplace_back([&, r] {
      for (size_t i = r; i < num_reads; i += kReaders) {
        Span match("live.match", num_writes + i + 1);
        corpus.MatchEntity(*queries[i], task.a.schema());
      }
    });
  }
  for (std::thread& reader : replay_readers) reader.join();
  replay_writer.join();

  const std::vector<double> apply = SpanSeconds("live.apply");
  report.Metric("traced.op_p50_ms", read_p50, "ms");
  report.Metric("traced.op_p90_ms", Percentile(read_ms, 90), "ms");
  report.Metric("traced.op_p99_ms", Percentile(read_ms, 99), "ms");
  report.Metric("match_qps",
                static_cast<double>(num_reads) /
                    *std::max_element(read_seconds.begin(), read_seconds.end()),
                "records/s");
  report.Metric("upsert_p50_ms", Percentile(write_ms, 50), "ms");
  report.Metric("upsert_p90_ms", Percentile(write_ms, 90), "ms");
  report.Metric("upsert_p99_ms", Percentile(write_ms, 99), "ms");
  report.Metric("live.create_ms", Median(SpanSeconds("live.create")) * 1e3, "ms");
  report.Metric("live.apply_p50_ms", Percentile(apply, 50) * 1e3, "ms");
  report.Metric("live.apply_p99_ms", Percentile(apply, 99) * 1e3, "ms");
  report.Metric("live.match_us", Median(SpanSeconds("live.match")) * 1e6, "us");
  report.Metric("live.compactions", static_cast<double>(final_stats.compactions),
                "count");
  report.Metric("live.compact_ms", Median(compact_ms), "ms");
  report.Metric("live.epochs", static_cast<double>(final_stats.epoch), "count");
  report.Metric("live.delta_peak", static_cast<double>(delta_peak), "count");
  report.Metric("bench.writer_late_ms", Percentile(late_ms, 99), "ms");
  report.Metric("serve.server_p50_ms", server_p50 * 1e3, "ms");
  report.Metric("serve.server_p99_ms", server_p99 * 1e3, "ms");
  report.Metric("serve.transport_p50_ms", read_p50 - server_p50 * 1e3, "ms");
}

}  // namespace perfbench

// Workload `serve`: the production read path. The corpus is indexed
// into a v2 artifact, mapped, deployed in a ServingState and served by
// an in-process ServeDaemon — the `genlink index` + `genlink serve
// --index` stack — while closed-loop keep-alive clients post distinct
// 8-record CSV batches to /match.

#include <algorithm>
#include <cstdio>
#include <latch>
#include <memory>
#include <numeric>
#include <sstream>
#include <thread>
#include <vector>

#include "api/matcher_index.h"
#include "common/random.h"
#include "datasets/synthetic.h"
#include "http_client.h"
#include "io/artifact.h"
#include "io/corpus_artifact.h"
#include "io/csv.h"
#include "io/link_io.h"
#include "serve/http.h"
#include "serve/server.h"
#include "serve/serving_state.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace genlink;

constexpr size_t kEntities = 20000;
constexpr size_t kRecordsPerRequest = 8;
/// Requests per second of --seconds.
constexpr size_t kRequestsPerSecond = 250;
/// Closed-loop clients == daemon workers: a keep-alive connection holds
/// its worker, so more clients than workers would queue, not load.
constexpr size_t kClients = 2;
constexpr size_t kWorkers = 2;
/// The serving index's pool (MatchBatch runs inline on the worker).
constexpr size_t kPoolThreads = 1;
constexpr size_t kBlockingTopTokens = 4;
/// Threads that compute the expected answers (before set-up, untimed).
constexpr size_t kReferenceThreads = 4;

/// One deployed serving stack. Members are declared in dependency
/// order, so destruction (and Reset) stops the daemon first.
struct Deployment {
  std::shared_ptr<const MappedCorpus> corpus;
  std::unique_ptr<ServingState> state;
  std::unique_ptr<ServeDaemon> daemon;

  void Reset() {
    daemon.reset();
    state.reset();
    corpus.reset();
  }
};

Deployment DeployCorpus(const std::string& path, const Dataset& corpus,
                        const RuleArtifact& artifact) {
  Deployment d;
  {
    Span write("io.index_write");
    const Status written =
        WriteCorpusArtifact(path, corpus, artifact.rule, artifact.options);
    Require(written.ok(), "WriteCorpusArtifact: " + written.ToString());
  }
  {
    Span load("io.artifact_load");
    auto loaded = MappedCorpus::Load(path);
    Require(loaded.ok(), "MappedCorpus::Load: " + loaded.status().ToString());
    d.corpus = std::move(*loaded);
  }
  Span deploy("serve.deploy");
  d.state = std::make_unique<ServingState>(d.corpus, kPoolThreads);
  const Status deployed = d.state->Deploy(artifact);
  Require(deployed.ok(), "Deploy: " + deployed.ToString());
  ServeOptions options;
  options.num_workers = kWorkers;
  options.csv.id_column = "id";
  d.daemon = std::make_unique<ServeDaemon>(*d.state, options);
  const Status started = d.daemon->Start();
  Require(started.ok(), "ServeDaemon::Start: " + started.ToString());
  return d;
}

}  // namespace

void RunServe(const RunArgs& args, Report& report) {
  auto loaded = LoadArtifact(args.rule_path);
  Require(loaded.ok(), "rule artifact: " + loaded.status().ToString());
  RuleArtifact artifact = std::move(*loaded);
  artifact.options.blocking_max_tokens = kBlockingTopTokens;

  // --- Inputs (not timed): corpus = side B of the seed's task; queries
  // = its side A, then side A of further tasks (derived seeds, ids
  // renamed) until every request gets fresh records, in a seeded order.
  const size_t num_requests = kRequestsPerSecond * args.seconds;
  const size_t num_records = num_requests * kRecordsPerRequest;
  SyntheticConfig synthetic;
  synthetic.num_entities = kEntities;
  synthetic.num_threads = 1;
  synthetic.seed = args.seed;
  const MatchingTask task = GenerateSynthetic(synthetic);
  std::printf("task fingerprint %016llx: corpus %zu, %zu requests x %zu "
              "records\n",
              static_cast<unsigned long long>(FingerprintTask(task)),
              task.b.size(), num_requests, kRecordsPerRequest);
  std::vector<const Entity*> records;
  for (const Entity& entity : task.a.entities()) records.push_back(&entity);
  std::vector<Entity> extra;
  extra.reserve(num_records);
  for (uint64_t k = 1; records.size() < num_records; ++k) {
    SyntheticConfig more = synthetic;
    more.seed = args.seed + k * 1000003;
    const MatchingTask other = GenerateSynthetic(more);
    std::printf("query task %llu fingerprint %016llx\n",
                static_cast<unsigned long long>(k),
                static_cast<unsigned long long>(FingerprintTask(other)));
    for (const Entity& entity : other.a.entities()) {
      if (records.size() == num_records) break;
      Entity& renamed = extra.emplace_back("q" + std::to_string(k) + "-" +
                                           entity.id());
      for (PropertyId p = 0; p < other.a.schema().NumProperties(); ++p) {
        renamed.SetValues(p, entity.Values(p));
      }
      records.push_back(&renamed);
    }
  }
  Rng order_rng(args.seed * 3 + 1);
  order_rng.Shuffle(records);
  std::vector<std::vector<const Entity*>> batches(num_requests);
  std::vector<std::string> requests(num_requests);
  for (size_t i = 0; i < num_requests; ++i) {
    batches[i].assign(records.begin() + i * kRecordsPerRequest,
                      records.begin() + (i + 1) * kRecordsPerRequest);
    requests[i] =
        HttpClient::Request("/match", DatasetCsv(task.a.schema(), batches[i]));
  }
  // The expected answers: a dataset-backed index over the same corpus
  // with the same options, built and dropped before the baseline, and
  // queried from kReferenceThreads threads.
  std::vector<std::string> expected(num_requests);
  std::vector<size_t> links_found(kReferenceThreads, 0);
  {
    MatchOptions reference_options = artifact.options;
    reference_options.num_threads = 1;
    const auto reference =
        MatcherIndex::Build(task.b, artifact.rule, reference_options);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kReferenceThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = t; i < num_requests; i += kReferenceThreads) {
          std::vector<Entity> entities;
          for (const Entity* e : batches[i]) entities.push_back(*e);
          const std::vector<GeneratedLink> found =
              reference->MatchBatch(entities, task.a.schema());
          links_found[t] += found.size();
          expected[i] = WriteGeneratedLinksCsv(found);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const size_t links =
      std::accumulate(links_found.begin(), links_found.end(), size_t{0});
  MarkRssBaseline();

  // --- Set-up, timed kSetupRepeats times; the last one serves.
  const std::string index_path = args.work_dir + "/corpus.glidx";
  std::vector<double> setups;
  Deployment deployment;
  for (int i = 0; i < kSetupRepeats; ++i) {
    deployment.Reset();
    Span setup("bench.setup");
    deployment = DeployCorpus(index_path, task.b, artifact);
    setups.push_back(setup.End());
  }

  // --- Measurement: closed loop, client c sends requests c, c+k, ...
  // The system's CPU time is the process's minus the clients' own.
  std::vector<double> latency_ms(num_requests, 0.0);
  std::vector<double> client_cpu(kClients, 0.0);
  std::vector<double> sent_at(num_requests, 0.0);
  std::vector<int> status(num_requests, 0);
  std::vector<char> same(num_requests, 0);
  std::latch go(1);
  Clock::time_point start;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client(deployment.daemon->port());
      go.wait();
      const double cpu = ThreadCpuSeconds();
      std::string body;
      for (size_t i = c; i < num_requests; i += kClients) {
        const Clock::time_point t = Clock::now();
        sent_at[i] = std::chrono::duration<double>(t - start).count();
        Span request("serve.request", i + 1);
        if (!client.Send(requests[i], &status[i], &body)) status[i] = -1;
        latency_ms[i] = request.End() * 1e3;
        same[i] = body == expected[i];
      }
      client_cpu[c] = ThreadCpuSeconds() - cpu;
    });
  }
  const double cpu = ProcessCpuSeconds();
  start = Clock::now();
  go.count_down();
  for (std::thread& t : clients) t.join();
  const double wall = SecondsSince(start);
  const double system_cpu =
      ProcessCpuSeconds() - cpu -
      std::accumulate(client_cpu.begin(), client_cpu.end(), 0.0);
  const double peak_rss = PeakRssMb();
  report.Attempted(num_requests);
  const double server_p50 = deployment.daemon->latency().PercentileSeconds(50);
  const double server_p99 = deployment.daemon->latency().PercentileSeconds(99);
  deployment.daemon.reset();

  // --- Check: every body byte-identical to the expected answer.
  for (size_t i = 0; i < num_requests; ++i) {
    if (status[i] != 200) {
      report.Failed("request " + std::to_string(i) + " answered " +
                    std::to_string(status[i]));
    } else if (!same[i]) {
      report.Failed("request " + std::to_string(i) +
                    " body differs from the dataset-backed reference");
    }
  }
  std::printf("served %zu requests, %zu links in %.3fs\n", num_requests, links,
              wall);

  const double client_p50 = Percentile(latency_ms, 50);
  EndToEnd(args, report, "setup_s", Median(setups), "s");
  EndToEnd(args, report, "peak_rss_mb", peak_rss, "MB");
  EndToEnd(args, report, "op_cpu_ms",
           system_cpu * 1e3 / static_cast<double>(num_requests), "ms");
  if (!args.trace) {
    std::remove(index_path.c_str());
    return;
  }

  // --- Per-layer: replay the recorded requests in send order through
  // the public functions the daemon calls, then the layers below
  // MatchBatch per query record.
  std::vector<size_t> replay(num_requests);
  std::iota(replay.begin(), replay.end(), 0);
  std::sort(replay.begin(), replay.end(),
            [&](size_t x, size_t y) { return sent_at[x] < sent_at[y]; });
  const std::shared_ptr<const MatcherIndex> index = deployment.state->index();
  const BlockingIndex* blocking = deployment.corpus->blocking();
  const std::vector<ComparisonOperator*> comparisons =
      CollectComparisons(artifact.rule);
  ServeOptions daemon_options;
  daemon_options.csv.id_column = "id";
  size_t queries = 0;
  size_t candidates = 0;
  size_t query_values = 0;
  size_t replay_links = 0;
  size_t response_bytes = 0;
  for (const size_t i : replay) {
    Span request("serve.replay", i + 1);
    HttpRequestParser parser(daemon_options.max_header_bytes,
                             daemon_options.max_body_bytes);
    {
      Span parse("serve.http_parse");
      parser.Consume(requests[i]);
    }
    Require(parser.state() == HttpRequestParser::State::kComplete,
            "replayed request does not parse");
    std::vector<Entity> entities;
    Schema schema;
    {
      Span parse("io.csv_parse");
      std::istringstream in{parser.request().body};
      CsvEntityStream stream(in, daemon_options.csv);
      Entity entity;
      while (stream.Next(&entity)) entities.push_back(std::move(entity));
      Require(stream.status().ok(), "replayed body does not parse");
      schema = stream.schema();
    }
    std::vector<GeneratedLink> found;
    {
      Span match("api.match_batch");
      found = index->MatchBatch(entities, schema);
    }
    HttpResponse response;
    {
      Span serialise("io.serialise");
      response.content_type = "text/csv";
      response.body = kGeneratedLinksCsvHeader;
      for (const GeneratedLink& link : found) {
        response.body += GeneratedLinkCsvRow(link);
      }
      response_bytes += SerializeHttpResponse(response).size();
    }
    if (response.body != expected[i]) {
      report.Failed("replayed request " + std::to_string(i) +
                    " differs from the dataset-backed reference");
    }
    replay_links += found.size();
    for (const Entity& entity : entities) {
      ++queries;
      {
        Span probe("matcher.probe");
        candidates += blocking->Candidates(entity, schema).size();
      }
      Span values("rule.query_values");
      for (const ComparisonOperator* comparison : comparisons) {
        query_values += comparison->source()->Evaluate(entity, schema).size();
      }
    }
  }
  std::remove(index_path.c_str());
  std::printf("replayed %zu requests: %zu query records, %zu candidates, "
              "%zu query values, %zu links, %zu response bytes\n",
              num_requests, queries, candidates, query_values, replay_links,
              response_bytes);

  report.Metric("traced.op_p50_ms", client_p50, "ms");
  report.Metric("traced.op_p90_ms", Percentile(latency_ms, 90), "ms");
  report.Metric("traced.op_p99_ms", Percentile(latency_ms, 99), "ms");
  report.Metric("match_qps",
                static_cast<double>(num_requests * kRecordsPerRequest) / wall,
                "records/s");
  report.Metric("io.index_write_s", Median(SpanSeconds("io.index_write")), "s");
  report.Metric("io.artifact_load_ms",
                Median(SpanSeconds("io.artifact_load")) * 1e3, "ms");
  report.Metric("serve.deploy_ms", Median(SpanSeconds("serve.deploy")) * 1e3,
                "ms");
  report.Metric("serve.server_p50_ms", server_p50 * 1e3, "ms");
  report.Metric("serve.server_p99_ms", server_p99 * 1e3, "ms");
  report.Metric("serve.transport_p50_ms", client_p50 - server_p50 * 1e3, "ms");
  report.Metric("serve.http_parse_us",
                Median(SpanSeconds("serve.http_parse")) * 1e6, "us");
  report.Metric("io.csv_parse_us", Median(SpanSeconds("io.csv_parse")) * 1e6,
                "us");
  report.Metric("io.serialise_us", Median(SpanSeconds("io.serialise")) * 1e6,
                "us");
  report.Metric("api.match_batch_ms",
                Median(SpanSeconds("api.match_batch")) * 1e3, "ms");
  report.Metric("rule.query_values_us",
                Median(SpanSeconds("rule.query_values")) * 1e6, "us");
  report.Metric("matcher.probe_us", Median(SpanSeconds("matcher.probe")) * 1e6,
                "us");
  report.Metric("matcher.candidates_per_query",
                static_cast<double>(candidates) / static_cast<double>(queries),
                "count");
  report.Metric("matcher.links_per_candidate",
                static_cast<double>(replay_links) /
                    static_cast<double>(candidates),
                "ratio");
}

}  // namespace perfbench

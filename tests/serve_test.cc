// Robustness tests for the serve stack (serve/http.h,
// serve/serving_state.h, serve/server.h): the HTTP parser's hard
// limits, the daemon's deadline / admission-control / drain behavior
// under injected faults (common/failpoint.h), and graceful degradation
// on corrupt artifact reloads — the old rule must keep serving
// bit-identical answers.
//
// Daemon tests bind 127.0.0.1 on an ephemeral port and talk to it over
// real sockets (HttpCall plus a few raw-socket probes for the stalled
// and shed paths), so the whole listener/queue/worker pipeline is
// exercised, not a mock.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/matcher_index.h"
#include "common/failpoint.h"
#include "io/artifact.h"
#include "io/csv.h"
#include "io/link_io.h"
#include "model/dataset.h"
#include "rule/builder.h"
#include "serve/http.h"
#include "serve/metrics.h"
#include "serve/server.h"
#include "serve/serving_state.h"
#include "test_tmpdir.h"

namespace genlink {
namespace {

using HttpState = HttpRequestParser::State;

// ---------------------------------------------------------------------------
// HTTP parser + serialization.

TEST(HttpParserTest, ParsesRequestFedByteByByte) {
  const std::string wire =
      "POST /match?debug=1 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "content-length: 5\r\n"
      "Content-Type: text/csv\r\n"
      "\r\n"
      "hello";
  HttpRequestParser parser(8192, 1 << 20);
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    ASSERT_EQ(parser.Consume(std::string_view(&wire[i], 1)),
              HttpState::kNeedMore)
        << "byte " << i;
    EXPECT_TRUE(parser.started());
  }
  ASSERT_EQ(parser.Consume(std::string_view(&wire.back(), 1)),
            HttpState::kComplete);
  const HttpRequest& request = parser.request();
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/match?debug=1");
  EXPECT_EQ(request.Path(), "/match");
  EXPECT_EQ(request.body, "hello");
  // Case-insensitive header lookup.
  ASSERT_NE(request.FindHeader("CONTENT-LENGTH"), nullptr);
  EXPECT_EQ(*request.FindHeader("CONTENT-LENGTH"), "5");
  ASSERT_NE(request.FindHeader("content-type"), nullptr);
  EXPECT_EQ(*request.FindHeader("content-type"), "text/csv");
  EXPECT_EQ(request.FindHeader("x-missing"), nullptr);
}

TEST(HttpParserTest, KeepAliveCarriesPipelinedBytesAcrossReset) {
  HttpRequestParser parser(8192, 1 << 20);
  // Two full requests in one chunk: the second must survive Reset().
  ASSERT_EQ(parser.Consume("GET /healthz HTTP/1.1\r\n\r\n"
                           "GET /varz HTTP/1.1\r\n\r\n"),
            HttpState::kComplete);
  EXPECT_EQ(parser.request().Path(), "/healthz");
  parser.Reset();
  ASSERT_EQ(parser.state(), HttpState::kComplete);
  EXPECT_EQ(parser.request().Path(), "/varz");
  parser.Reset();
  EXPECT_EQ(parser.state(), HttpState::kNeedMore);
  EXPECT_FALSE(parser.started());
}

TEST(HttpParserTest, MalformedRequestLineIs400) {
  HttpRequestParser parser(8192, 1 << 20);
  EXPECT_EQ(parser.Consume("this is not http\r\n\r\n"), HttpState::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParserTest, RejectsTransferEncoding) {
  HttpRequestParser parser(8192, 1 << 20);
  EXPECT_EQ(parser.Consume("POST /match HTTP/1.1\r\n"
                           "Transfer-Encoding: chunked\r\n\r\n"),
            HttpState::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParserTest, OversizedHeaderBlockIs431) {
  HttpRequestParser parser(/*max_header_bytes=*/128, 1 << 20);
  std::string wire = "GET / HTTP/1.1\r\nX-Padding: ";
  wire += std::string(256, 'a');
  EXPECT_EQ(parser.Consume(wire), HttpState::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParserTest, OversizedDeclaredBodyIs413) {
  HttpRequestParser parser(8192, /*max_body_bytes=*/64);
  EXPECT_EQ(parser.Consume("POST /match HTTP/1.1\r\n"
                           "Content-Length: 65\r\n\r\n"),
            HttpState::kError);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpParserTest, SerializeEmitsStatusLineAndContentLength) {
  HttpResponse response;
  response.status = 503;
  response.extra_headers.emplace_back("Retry-After", "1");
  response.body = "busy\n";
  const std::string wire = SerializeHttpResponse(response);
  EXPECT_EQ(wire.find("HTTP/1.1 503 Service Unavailable\r\n"), 0u);
  EXPECT_NE(wire.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Retry-After: 1\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\nbusy\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Shared corpus / rule / artifact helpers (mirrors
// tests/stress_swap_tsan_test.cc so answers are comparable).

Dataset MakeCorpus(size_t n) {
  Dataset dataset("corpus");
  PropertyId name = dataset.schema().AddProperty("name");
  PropertyId city = dataset.schema().AddProperty("city");
  const char* cities[] = {"berlin", "mannheim", "leipzig"};
  for (size_t i = 0; i < n; ++i) {
    std::string id = "e";
    id += std::to_string(i);
    std::string record = "record number ";
    record += std::to_string(i / 2);
    Entity entity(id);
    entity.AddValue(name, record);
    entity.AddValue(city, cities[i % 3]);
    EXPECT_TRUE(dataset.AddEntity(std::move(entity)).ok());
  }
  return dataset;
}

LinkageRule NameRule() {
  auto rule = RuleBuilder()
                  .Compare("jaccard", 0.5, Prop("name").Lower().Tokenize(),
                           Prop("name").Lower().Tokenize())
                  .Build();
  EXPECT_TRUE(rule.ok());
  return std::move(rule).value();
}

LinkageRule NameCityRule() {
  auto rule = RuleBuilder()
                  .Aggregate("min")
                  .Compare("jaccard", 0.5, Prop("name").Lower().Tokenize(),
                           Prop("name").Lower().Tokenize())
                  .Compare("levenshtein", 2.0, Prop("city").Lower(),
                           Prop("city").Lower())
                  .End()
                  .Build();
  EXPECT_TRUE(rule.ok());
  return std::move(rule).value();
}

std::string WriteArtifactFile(const std::string& path, LinkageRule rule,
                              const std::string& name) {
  RuleArtifact artifact;
  artifact.name = name;
  artifact.rule = std::move(rule);
  EXPECT_TRUE(SaveArtifact(path, artifact).ok()) << path;
  return path;
}

// ---------------------------------------------------------------------------
// ServingState: artifact failure paths degrade to stale, never broken.

TEST(ServingStateTest, FailedReloadsKeepTheOldIndexServing) {
  const Dataset corpus = MakeCorpus(20);
  const std::string good = TestTempPath("good.artifact");
  const std::string bad = TestTempPath("bad.artifact");
  WriteArtifactFile(good, NameRule(), "good");

  ServingState state(corpus, /*num_threads=*/1);
  EXPECT_EQ(state.index(), nullptr);
  ASSERT_TRUE(state.ReloadFromFile(good).ok());
  const std::shared_ptr<const MatcherIndex> live = state.index();
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(state.snapshot().generation, 1u);
  EXPECT_FALSE(state.snapshot().stale);

  const std::string good_text = ReadFileToString(good).value();
  struct Case {
    const char* label;
    std::string content;
  };
  const Case cases[] = {
      {"truncated", good_text.substr(0, good_text.find("---"))},
      {"unknown version", "genlink-artifact v99\n---\n<LinkageRule/>\n"},
      {"unknown key",
       "genlink-artifact v1\nfrobnicate: yes\n---\n<LinkageRule/>\n"},
  };
  uint64_t failures = 0;
  for (const Case& c : cases) {
    ASSERT_TRUE(WriteStringToFile(bad, c.content).ok());
    const Status status = state.ReloadFromFile(bad);
    EXPECT_FALSE(status.ok()) << c.label;
    ++failures;
    const ServingState::Snapshot snapshot = state.snapshot();
    EXPECT_TRUE(snapshot.stale) << c.label;
    EXPECT_EQ(snapshot.failed_reloads, failures) << c.label;
    EXPECT_FALSE(snapshot.last_error.empty()) << c.label;
    EXPECT_EQ(snapshot.generation, 1u) << c.label;
    // The live index is the SAME object — not rebuilt, not nulled.
    EXPECT_EQ(state.index().get(), live.get()) << c.label;
  }

  // A missing file is just another failure mode.
  EXPECT_FALSE(
      state.ReloadFromFile(TestTempPath("does_not_exist.artifact"))
          .ok());
  EXPECT_EQ(state.index().get(), live.get());

  // Recovery: a good artifact clears stale and bumps the generation.
  WriteArtifactFile(good, NameCityRule(), "good-v2");
  ASSERT_TRUE(state.ReloadFromFile(good).ok());
  EXPECT_FALSE(state.snapshot().stale);
  EXPECT_EQ(state.snapshot().generation, 2u);
  EXPECT_NE(state.index().get(), live.get());
}

// ---------------------------------------------------------------------------
// Daemon fixture + raw-socket probes.

int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendRaw(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string RecvUntilClosed(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

// Reads exactly `count` Content-Length-framed responses from `fd`.
// False on EOF, error or a response without Content-Length.
bool RecvResponses(int fd, size_t count) {
  std::string buffer;
  char chunk[4096];
  while (count > 0) {
    const size_t header_end = buffer.find("\r\n\r\n");
    if (header_end != std::string::npos) {
      const size_t field = buffer.find("Content-Length: ");
      if (field == std::string::npos || field > header_end) return false;
      const size_t total =
          header_end + 4 + std::stoul(buffer.substr(field + 16));
      if (buffer.size() >= total) {
        buffer.erase(0, total);
        --count;
        continue;
      }
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<size_t>(n));
  }
  return true;
}

class ServeDaemonTest : public ::testing::Test {
 protected:
  ServeDaemonTest() : corpus_(MakeCorpus(30)) {}

  void TearDown() override { Failpoints::Instance().DisarmAll(); }

  // Writes the artifact, deploys it into state_, starts the daemon.
  void StartDaemon(ServeOptions options, LinkageRule rule = NameRule()) {
    artifact_path_ = TestTempPath("serve.artifact");
    WriteArtifactFile(artifact_path_, std::move(rule), "serve-test");
    state_ = std::make_unique<ServingState>(corpus_, /*num_threads=*/1);
    ASSERT_TRUE(state_->ReloadFromFile(artifact_path_).ok());
    daemon_ = std::make_unique<ServeDaemon>(*state_, options);
    ASSERT_TRUE(daemon_->Start().ok());
  }

  // StartDaemon in live mode: /upsert, /delete and /compact mutate the
  // corpus between queries (live/live_corpus.h).
  void StartLiveDaemon(ServeOptions options, LinkageRule rule = NameRule(),
                       LiveCorpusOptions live_options = {}) {
    artifact_path_ = TestTempPath("serve.artifact");
    WriteArtifactFile(artifact_path_, std::move(rule), "serve-live-test");
    state_ = std::make_unique<ServingState>(corpus_, /*num_threads=*/1,
                                            live_options);
    ASSERT_TRUE(state_->ReloadFromFile(artifact_path_).ok());
    daemon_ = std::make_unique<ServeDaemon>(*state_, options);
    ASSERT_TRUE(daemon_->Start().ok());
  }

  uint16_t port() const { return daemon_->port(); }

  Dataset corpus_;
  std::string artifact_path_;
  std::unique_ptr<ServingState> state_;
  std::unique_ptr<ServeDaemon> daemon_;
};

TEST_F(ServeDaemonTest, HealthzVarzAndRouting) {
  StartDaemon({});
  auto health = HttpCall(port(), "GET", "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "ok generation=1 stale=0\n");

  auto varz = HttpCall(port(), "GET", "/varz");
  ASSERT_TRUE(varz.ok());
  EXPECT_EQ(varz->status, 200);
  EXPECT_NE(varz->body.find("serve_generation 1\n"), std::string::npos);
  EXPECT_NE(varz->body.find("serve_stale 0\n"), std::string::npos);
  EXPECT_NE(varz->body.find("serve_shed 0\n"), std::string::npos);
  EXPECT_NE(varz->body.find("serve_latency_p99_seconds "), std::string::npos);

  auto missing = HttpCall(port(), "GET", "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  auto wrong_method = HttpCall(port(), "GET", "/match");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status, 405);
  auto wrong_method2 = HttpCall(port(), "POST", "/healthz", "x");
  ASSERT_TRUE(wrong_method2.ok());
  EXPECT_EQ(wrong_method2->status, 405);
}

// Pipelined requests on one keep-alive connection are answered without
// Nagle delays: with Nagle's algorithm on, the second response of a
// pipelined pair waits for the client's delayed ACK of the first
// (~40 ms per pair). The sequential warm-up takes the connection out
// of TCP quick-ACK mode, which would otherwise mask the delay.
TEST_F(ServeDaemonTest, PipelinedResponsesAreNotDelayed) {
  StartDaemon({});
  const int fd = RawConnect(port());
  ASSERT_GE(fd, 0);
  const std::string request = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(SendRaw(fd, request));
    ASSERT_TRUE(RecvResponses(fd, 1)) << "sequential request " << i;
  }
  std::vector<double> pair_ms;
  for (int i = 0; i < 5; ++i) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(SendRaw(fd, request + request));
    ASSERT_TRUE(RecvResponses(fd, 2)) << "pipelined pair " << i;
    pair_ms.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  ::close(fd);
  std::sort(pair_ms.begin(), pair_ms.end());
  EXPECT_LT(pair_ms[pair_ms.size() / 2], 20.0)
      << "pipelined pair latencies (ms): " << pair_ms[0] << " .. "
      << pair_ms.back();
}

TEST_F(ServeDaemonTest, MatchIsBitIdenticalToDirectMatchBatch) {
  StartDaemon({});
  const std::string query_csv =
      "name,city\n"
      "record number 0,berlin\n"
      "record number 7,leipzig\n";
  auto response = HttpCall(port(), "POST", "/match", query_csv);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->status, 200);
  EXPECT_EQ(response->content_type, "text/csv");

  // Reference: the same artifact deployed by hand, the same CSV parse,
  // the same batch surface — the daemon must add nothing and lose
  // nothing in between.
  Result<RuleArtifact> artifact = LoadArtifact(artifact_path_);
  ASSERT_TRUE(artifact.ok());
  MatchOptions options = artifact->options;
  options.num_threads = 1;
  auto index = MatcherIndex::Build(corpus_, artifact->rule, options);
  std::istringstream in{query_csv};
  CsvEntityStream queries(in, CsvDatasetOptions{});
  std::vector<Entity> entities;
  Entity entity;
  while (queries.Next(&entity)) entities.push_back(std::move(entity));
  ASSERT_TRUE(queries.status().ok());
  ASSERT_EQ(entities.size(), 2u);
  std::string expected{kGeneratedLinksCsvHeader};
  for (const GeneratedLink& link :
       index->MatchBatch(entities, queries.schema())) {
    expected += GeneratedLinkCsvRow(link);
  }
  EXPECT_EQ(response->body, expected);
  // Sanity: the corpus really produces links for these queries.
  EXPECT_NE(expected, kGeneratedLinksCsvHeader);
}

TEST_F(ServeDaemonTest, MalformedQueryCsvIs400) {
  StartDaemon({});
  auto response =
      HttpCall(port(), "POST", "/match", "name\n\"unterminated quote\n");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 400);
}

TEST_F(ServeDaemonTest, DeadlineExceededAnswers504) {
  ServeOptions options;
  options.request_deadline = std::chrono::milliseconds(150);
  StartDaemon(options);
  // A handler that cannot make progress: blocks until the request's
  // CancelToken fires.
  Failpoints::Instance().Arm("serve.match_block", {});
  auto response =
      HttpCall(port(), "POST", "/match", "name\nrecord number 0\n");
  Failpoints::Instance().DisarmAll();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 504);
  EXPECT_GE(daemon_->counters().deadline_hits.load(), 1u);

  // The worker is free again: the next request is served normally.
  auto health = HttpCall(port(), "GET", "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
}

TEST_F(ServeDaemonTest, OverloadShedsWith503AndRetryAfter) {
  ServeOptions options;
  options.num_workers = 1;
  options.max_queue = 1;
  options.request_deadline = std::chrono::milliseconds(5000);
  options.read_timeout = std::chrono::milliseconds(500);
  options.retry_after_seconds = 7;
  StartDaemon(options);

  // Jam the single worker with a request that blocks in the handler
  // until the failpoint is disarmed (or its 5s deadline fires).
  Failpoints::Instance().Arm("serve.match_block", {});
  const int conn1 = RawConnect(port());
  ASSERT_GE(conn1, 0);
  ASSERT_TRUE(SendRaw(conn1, "POST /match HTTP/1.1\r\n"
                             "Content-Length: 5\r\n\r\nname\n"));
  while (daemon_->counters().requests.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Fill the one queue slot with an idle connection.
  const int conn2 = RawConnect(port());
  ASSERT_GE(conn2, 0);
  while (daemon_->counters().accepted.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto shed = HttpCall(port(), "GET", "/healthz");
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->status, 503);
  bool saw_retry_after = false;
  for (const auto& [key, value] : shed->extra_headers) {
    if (key == "Retry-After") {
      saw_retry_after = true;
      EXPECT_EQ(value, "7");
    }
  }
  EXPECT_TRUE(saw_retry_after);
  EXPECT_GE(daemon_->counters().shed.load(), 1u);

  // Release the jam; the daemon recovers and serves again.
  Failpoints::Instance().DisarmAll();
  ::close(conn1);
  ::close(conn2);
  for (int attempt = 0; attempt < 50; ++attempt) {
    auto health = HttpCall(port(), "GET", "/healthz");
    if (health.ok() && health->status == 200) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  FAIL() << "daemon did not recover after the overload was released";
}

TEST_F(ServeDaemonTest, StalledStartedRequestAnswers408) {
  ServeOptions options;
  options.read_timeout = std::chrono::milliseconds(200);
  StartDaemon(options);
  const int fd = RawConnect(port());
  ASSERT_GE(fd, 0);
  // A started-but-never-finished request: declared body never arrives.
  ASSERT_TRUE(SendRaw(fd, "POST /match HTTP/1.1\r\nContent-Length: 10\r\n\r\nab"));
  const std::string response = RecvUntilClosed(fd);
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.1 408 "), std::string::npos) << response;
  EXPECT_GE(daemon_->counters().deadline_hits.load(), 1u);
}

TEST_F(ServeDaemonTest, KeepAliveServesPipelinedRequests) {
  StartDaemon({});
  const int fd = RawConnect(port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendRaw(fd,
                      "GET /healthz HTTP/1.1\r\n\r\n"
                      "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"));
  const std::string wire = RecvUntilClosed(fd);
  ::close(fd);
  // Two full responses on one connection.
  size_t first = wire.find("ok generation=1 stale=0\n");
  ASSERT_NE(first, std::string::npos) << wire;
  EXPECT_NE(wire.find("ok generation=1 stale=0\n", first + 1),
            std::string::npos)
      << wire;
}

TEST_F(ServeDaemonTest, InjectedRecvErrorIsCountedAndSurvived) {
  StartDaemon({});
  Failpoints::Instance().Arm("serve.recv_error",
                             {.count = 1, .error_code = ECONNRESET});
  // The injected reset kills this connection before a response.
  auto failed = HttpCall(port(), "GET", "/healthz", {}, "text/plain",
                         /*timeout_ms=*/2000);
  EXPECT_FALSE(failed.ok());
  EXPECT_GE(daemon_->counters().io_errors.load(), 1u);
  // One-shot fault: the daemon keeps serving.
  auto health = HttpCall(port(), "GET", "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
}

TEST_F(ServeDaemonTest, InjectedSendErrorIsCountedAndSurvived) {
  StartDaemon({});
  Failpoints::Instance().Arm("serve.send_error",
                             {.count = 1, .error_code = EPIPE});
  auto failed = HttpCall(port(), "GET", "/healthz", {}, "text/plain",
                         /*timeout_ms=*/2000);
  EXPECT_FALSE(failed.ok());
  EXPECT_GE(daemon_->counters().io_errors.load(), 1u);
  auto health = HttpCall(port(), "GET", "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
}

TEST_F(ServeDaemonTest, CorruptReloadNeverChangesServedAnswers) {
  StartDaemon({});
  const std::string query_csv = "name,city\nrecord number 3,berlin\n";
  auto baseline = HttpCall(port(), "POST", "/match", query_csv);
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline->status, 200);

  // Corrupt the artifact file in place, then ask the daemon to reload.
  ASSERT_TRUE(WriteStringToFile(artifact_path_,
                                "genlink-artifact v99\nnot an artifact\n")
                  .ok());
  auto reload = HttpCall(port(), "POST", "/reload", artifact_path_);
  ASSERT_TRUE(reload.ok());
  EXPECT_EQ(reload->status, 500);

  // Degraded, not broken: health reports stale, answers are the exact
  // bytes the old rule served before the failed push.
  auto health = HttpCall(port(), "GET", "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->body, "ok generation=1 stale=1\n");
  auto after = HttpCall(port(), "POST", "/match", query_csv);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->status, 200);
  EXPECT_EQ(after->body, baseline->body);
  auto varz = HttpCall(port(), "GET", "/varz");
  ASSERT_TRUE(varz.ok());
  EXPECT_NE(varz->body.find("serve_failed_reloads 1\n"), std::string::npos);

  // Recovery: push a good artifact with a different rule.
  WriteArtifactFile(artifact_path_, NameCityRule(), "serve-test-v2");
  auto reload2 = HttpCall(port(), "POST", "/reload", artifact_path_);
  ASSERT_TRUE(reload2.ok());
  EXPECT_EQ(reload2->status, 200);
  EXPECT_EQ(reload2->body, "reloaded generation=2\n");
  auto health2 = HttpCall(port(), "GET", "/healthz");
  ASSERT_TRUE(health2.ok());
  EXPECT_EQ(health2->body, "ok generation=2 stale=0\n");
}

// ---------------------------------------------------------------------------
// Live mode: streaming mutations through the daemon.

TEST_F(ServeDaemonTest, LiveModeIsOffByDefault) {
  StartDaemon({});
  for (const char* path : {"/upsert", "/delete", "/compact"}) {
    auto response = HttpCall(port(), "POST", path, "x\n");
    ASSERT_TRUE(response.ok()) << path;
    EXPECT_EQ(response->status, 404) << path;
  }
  // And /healthz carries no epoch outside live mode.
  auto health = HttpCall(port(), "GET", "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->body.find("epoch="), std::string::npos);
}

TEST_F(ServeDaemonTest, LiveUpsertDeleteCompactRoundTrip) {
  ServeOptions options;
  options.csv.id_column = "id";
  StartLiveDaemon(options);

  // Live health carries generation AND epoch (the CI probe greps the
  // generation/stale prefix as a substring, so epoch is appended).
  auto health = HttpCall(port(), "GET", "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->body, "ok generation=1 stale=0 epoch=0\n");

  const std::string query_csv = "id,name,city\nq,record number 0,berlin\n";
  auto baseline = HttpCall(port(), "POST", "/match", query_csv);
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline->status, 200);
  EXPECT_NE(baseline->body, kGeneratedLinksCsvHeader);

  // Upsert a new duplicate of record 0; one batch = one epoch.
  auto upsert = HttpCall(port(), "POST", "/upsert",
                         "id,name,city\nlive0,record number 0,berlin\n");
  ASSERT_TRUE(upsert.ok());
  ASSERT_EQ(upsert->status, 200) << upsert->body;
  EXPECT_EQ(upsert->body, "upserted 1 epoch=1\n");

  // The served answer now includes the new entity, bit-identically to
  // a fresh index over the mutated corpus.
  auto after_upsert = HttpCall(port(), "POST", "/match", query_csv);
  ASSERT_TRUE(after_upsert.ok());
  ASSERT_EQ(after_upsert->status, 200);
  EXPECT_NE(after_upsert->body, baseline->body);
  EXPECT_NE(after_upsert->body.find("live0"), std::string::npos);
  {
    Dataset mutated = MakeCorpus(30);
    Entity fresh("live0");
    fresh.AddValue(*mutated.schema().FindProperty("name"), "record number 0");
    fresh.AddValue(*mutated.schema().FindProperty("city"), "berlin");
    ASSERT_TRUE(mutated.AddEntity(std::move(fresh)).ok());
    Result<RuleArtifact> artifact = LoadArtifact(artifact_path_);
    ASSERT_TRUE(artifact.ok());
    MatchOptions match_options = artifact->options;
    match_options.num_threads = 1;
    auto index = MatcherIndex::Build(mutated, artifact->rule, match_options);
    std::istringstream in{query_csv};
    CsvDatasetOptions csv;
    csv.id_column = "id";
    CsvEntityStream queries(in, csv);
    std::vector<Entity> entities;
    Entity entity;
    while (queries.Next(&entity)) entities.push_back(std::move(entity));
    ASSERT_TRUE(queries.status().ok());
    std::string expected{kGeneratedLinksCsvHeader};
    for (const GeneratedLink& link :
         index->MatchBatch(entities, queries.schema())) {
      expected += GeneratedLinkCsvRow(link);
    }
    EXPECT_EQ(after_upsert->body, expected);
  }

  // Delete restores the baseline answer bytes.
  auto removed = HttpCall(port(), "POST", "/delete", "live0\n");
  ASSERT_TRUE(removed.ok());
  ASSERT_EQ(removed->status, 200) << removed->body;
  EXPECT_EQ(removed->body, "deleted 1 epoch=2\n");
  auto after_delete = HttpCall(port(), "POST", "/match", query_csv);
  ASSERT_TRUE(after_delete.ok());
  EXPECT_EQ(after_delete->body, baseline->body);

  // Deleting an id that is not live is NotFound and changes nothing.
  auto missing = HttpCall(port(), "POST", "/delete", "live0\n");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  auto empty_upsert = HttpCall(port(), "POST", "/upsert", "");
  ASSERT_TRUE(empty_upsert.ok());
  EXPECT_EQ(empty_upsert->status, 400);

  // Compact drains the delta log and publishes another epoch; the
  // answer bytes do not move.
  auto compact = HttpCall(port(), "POST", "/compact", "");
  ASSERT_TRUE(compact.ok());
  ASSERT_EQ(compact->status, 200) << compact->body;
  EXPECT_EQ(compact->body, "compacted epoch=3\n");
  auto after_compact = HttpCall(port(), "POST", "/match", query_csv);
  ASSERT_TRUE(after_compact.ok());
  EXPECT_EQ(after_compact->body, baseline->body);

  // /varz exposes the live corpus counters; /healthz tracks the epoch.
  auto varz = HttpCall(port(), "GET", "/varz");
  ASSERT_TRUE(varz.ok());
  EXPECT_NE(varz->body.find("live_epoch 3\n"), std::string::npos);
  EXPECT_NE(varz->body.find("live_entities 30\n"), std::string::npos);
  EXPECT_NE(varz->body.find("live_delta_entities 0\n"), std::string::npos);
  EXPECT_NE(varz->body.find("live_tombstones 0\n"), std::string::npos);
  EXPECT_NE(varz->body.find("live_upserts 1\n"), std::string::npos);
  EXPECT_NE(varz->body.find("live_removes 1\n"), std::string::npos);
  EXPECT_NE(varz->body.find("live_compactions 1\n"), std::string::npos);
  EXPECT_NE(varz->body.find("live_delta_store_bytes "), std::string::npos);
  auto health2 = HttpCall(port(), "GET", "/healthz");
  ASSERT_TRUE(health2.ok());
  EXPECT_EQ(health2->body, "ok generation=1 stale=0 epoch=3\n");
}

TEST_F(ServeDaemonTest, LiveReloadHotSwapsTheRuleOverTheMutatedCorpus) {
  ServeOptions options;
  options.csv.id_column = "id";
  StartLiveDaemon(options);
  auto upsert = HttpCall(port(), "POST", "/upsert",
                         "id,name,city\nlive1,record number 1,berlin\n");
  ASSERT_TRUE(upsert.ok());
  ASSERT_EQ(upsert->status, 200);

  // Swap to the stricter name+city rule; the delta entry re-evaluates.
  WriteArtifactFile(artifact_path_, NameCityRule(), "serve-live-v2");
  auto reload = HttpCall(port(), "POST", "/reload", artifact_path_);
  ASSERT_TRUE(reload.ok());
  ASSERT_EQ(reload->status, 200) << reload->body;
  EXPECT_EQ(reload->body, "reloaded generation=2\n");

  const std::string query_csv = "id,name,city\nq,record number 1,berlin\n";
  auto response = HttpCall(port(), "POST", "/match", query_csv);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("live1"), std::string::npos);

  // A corrupt push degrades to stale; the mutated corpus keeps serving
  // the old rule's exact answers.
  ASSERT_TRUE(
      WriteStringToFile(artifact_path_, "genlink-artifact v99\nnope\n").ok());
  auto bad_reload = HttpCall(port(), "POST", "/reload", artifact_path_);
  ASSERT_TRUE(bad_reload.ok());
  EXPECT_EQ(bad_reload->status, 500);
  auto health = HttpCall(port(), "GET", "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health->body.find("generation=2 stale=1"), std::string::npos);
  auto again = HttpCall(port(), "POST", "/match", query_csv);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->body, response->body);
}

TEST_F(ServeDaemonTest, GracefulDrainFinishesInFlightRequests) {
  StartDaemon({});
  // ~80ms of injected stall so the request is reliably in flight when
  // the shutdown lands, then completes well inside the drain budget.
  Failpoints::Instance().Arm("serve.match_block", {.count = 80});
  std::atomic<int> status{0};
  std::thread client([&] {
    auto response =
        HttpCall(port(), "POST", "/match", "name\nrecord number 0\n");
    status.store(response.ok() ? response->status : -1);
  });
  // Wait until the daemon has actually dispatched the request.
  while (daemon_->counters().requests.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  daemon_->RequestShutdown();
  const bool clean = daemon_->WaitForDrain();
  client.join();
  EXPECT_TRUE(clean);
  EXPECT_EQ(daemon_->counters().drain_aborts.load(), 0u);
  EXPECT_EQ(status.load(), 200);
}

TEST_F(ServeDaemonTest, DrainAbortsARequestThatOverstaysTheBudget) {
  ServeOptions options;
  options.drain_deadline = std::chrono::milliseconds(150);
  options.read_timeout = std::chrono::milliseconds(10000);
  StartDaemon(options);
  // A started request whose body never arrives: the worker is mid-read
  // when the drain begins, and the peer outwaits the drain budget.
  const int fd = RawConnect(port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendRaw(fd, "POST /match HTTP/1.1\r\nContent-Length: 8\r\n\r\nab"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  daemon_->RequestShutdown();
  EXPECT_FALSE(daemon_->WaitForDrain());
  EXPECT_GE(daemon_->counters().drain_aborts.load(), 1u);
  ::close(fd);
}

TEST_F(ServeDaemonTest, ShutdownFdTriggersTheSameDrain) {
  StartDaemon({});
  // What a SIGTERM handler does: one byte to the self-pipe.
  const char byte = 1;
  ASSERT_EQ(::write(daemon_->shutdown_fd(), &byte, 1), 1);
  EXPECT_TRUE(daemon_->WaitForDrain());
  EXPECT_NE(daemon_->RenderVarz().find("serve_draining 1\n"),
            std::string::npos);
}

}  // namespace
}  // namespace genlink

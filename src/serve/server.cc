#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "io/link_io.h"
#include "live/live_corpus.h"

namespace genlink {

namespace {

constexpr int kPollSliceMs = 50;

HttpResponse TextResponse(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

/// Maps a library Status onto the closest HTTP status for the live
/// mutation endpoints.
int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kFailedPrecondition:
      return 409;
    default:
      return 500;
  }
}

bool HeaderEquals(const std::string& value, std::string_view expected) {
  if (value.size() != expected.size()) return false;
  for (size_t i = 0; i < value.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(value[i])) !=
        std::tolower(static_cast<unsigned char>(expected[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

ServeDaemon::ServeDaemon(ServingState& state, ServeOptions options)
    : state_(state), options_(std::move(options)) {
  if (options_.num_workers == 0) options_.num_workers = 1;
}

ServeDaemon::~ServeDaemon() {
  if (started_) {
    RequestShutdown();
    WaitForDrain();
  } else if (listen_fd_ >= 0) {
    ::close(listen_fd_);
  }
  for (const int fd : shutdown_pipe_) {
    if (fd >= 0) ::close(fd);
  }
}

Status ServeDaemon::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status::IoError("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("bind(127.0.0.1:" +
                           std::to_string(options_.port) + ") failed: " + error);
  }
  if (::listen(listen_fd_, 128) < 0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("listen() failed: " + error);
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  if (::pipe(shutdown_pipe_) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("pipe() failed");
  }

  started_ = true;
  listener_ = std::thread([this] { ListenerLoop(); });
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::Ok();
}

void ServeDaemon::RequestShutdown() {
  if (shutdown_pipe_[1] < 0) return;
  const char byte = 1;
  // Async-signal-safe; a full pipe means shutdown is already pending.
  [[maybe_unused]] const ssize_t n = ::write(shutdown_pipe_[1], &byte, 1);
}

bool ServeDaemon::WaitForDrain() {
  if (listener_.joinable()) listener_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  return counters_.drain_aborts.load(std::memory_order_relaxed) == 0;
}

Deadline ServeDaemon::DrainDeadline() const {
  MutexLock lock(queue_mutex_);
  return drain_deadline_;
}

void ServeDaemon::ListenerLoop() {
  // The canned shed response, built once: the overload path allocates
  // nothing per connection.
  const std::string shed_response =
      "HTTP/1.1 503 Service Unavailable\r\nRetry-After: " +
      std::to_string(options_.retry_after_seconds) +
      "\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";

  for (;;) {
    struct pollfd pfds[2] = {{listen_fd_, POLLIN, 0},
                             {shutdown_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(pfds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pfds[1].revents != 0) break;  // shutdown byte arrived
    if ((pfds[0].revents & POLLIN) == 0) continue;
    for (;;) {
      const int conn =
          ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (conn < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          counters_.io_errors.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
      counters_.accepted.fetch_add(1, std::memory_order_relaxed);
      // Responses go out as soon as they are written. With Nagle's
      // algorithm on, the second of two pipelined responses waits for
      // the client's delayed ACK of the first (~40 ms).
      const int nodelay = 1;
      (void)::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                         sizeof(nodelay));
      bool admit = false;
      {
        MutexLock lock(queue_mutex_);
        if (queue_.size() < options_.max_queue) {
          queue_.push_back(conn);
          admit = true;
        }
      }
      if (admit) {
        queue_cv_.NotifyOne();
      } else {
        // Admission control: turn the connection away immediately with
        // the preformatted 503 — best effort, never blocking. Drain
        // whatever request bytes already arrived first: closing a
        // socket with unread data makes the kernel send an RST, which
        // can destroy the 503 before the peer reads it.
        counters_.shed.fetch_add(1, std::memory_order_relaxed);
        char sink[4096];
        while (::recv(conn, sink, sizeof(sink), MSG_DONTWAIT) > 0) {
        }
        (void)::send(conn, shed_response.data(), shed_response.size(),
                     MSG_NOSIGNAL | MSG_DONTWAIT);
        ::close(conn);
      }
    }
  }

  // Begin the drain: publish the budget, then the flag, then wake
  // every worker (blocked ones see the empty-queue + draining exit).
  {
    MutexLock lock(queue_mutex_);
    drain_deadline_ = Deadline::After(options_.drain_deadline, options_.clock);
    draining_.store(true, std::memory_order_release);
  }
  queue_cv_.NotifyAll();
  ::close(listen_fd_);
}

int ServeDaemon::NextConnection() {
  MutexLock lock(queue_mutex_);
  while (queue_.empty() && !draining_.load(std::memory_order_acquire)) {
    queue_cv_.Wait(lock);
  }
  if (queue_.empty()) return -1;
  const int fd = queue_.front();
  queue_.pop_front();
  return fd;
}

void ServeDaemon::WorkerLoop() {
  for (;;) {
    const int fd = NextConnection();
    if (fd < 0) return;
    HandleConnection(fd);
  }
}

void ServeDaemon::HandleConnection(int fd) {
  char buf[8192];
  HttpRequestParser parser(options_.max_header_bytes, options_.max_body_bytes);
  bool close_connection = false;

  auto count_response = [this](int status) {
    if (status < 400) {
      counters_.responses_2xx.fetch_add(1, std::memory_order_relaxed);
    } else if (status < 500) {
      counters_.responses_4xx.fetch_add(1, std::memory_order_relaxed);
    } else {
      counters_.responses_5xx.fetch_add(1, std::memory_order_relaxed);
    }
  };
  auto respond = [&](HttpResponse response) -> bool {
    if (close_connection) {
      response.extra_headers.emplace_back("Connection", "close");
    }
    count_response(response.status);
    // The send budget is deliberately NOT the request deadline (which
    // is often already expired when sending a 504) — just a bound so a
    // jammed peer cannot hold the worker.
    const Deadline send_deadline =
        Deadline::After(options_.read_timeout, options_.clock);
    if (!SendAll(fd, SerializeHttpResponse(response), send_deadline)) {
      counters_.io_errors.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return true;
  };

  while (!close_connection) {
    const Deadline read_deadline =
        Deadline::After(options_.read_timeout, options_.clock);
    // --- Read until the parser holds a full request.
    while (parser.state() == HttpRequestParser::State::kNeedMore) {
      if (Draining()) {
        if (!parser.started()) goto done;  // idle keep-alive: close now
        if (DrainDeadline().Expired()) {
          counters_.drain_aborts.fetch_add(1, std::memory_order_relaxed);
          goto done;
        }
      }
      if (read_deadline.Expired()) {
        if (parser.started()) {
          close_connection = true;
          counters_.deadline_hits.fetch_add(1, std::memory_order_relaxed);
          respond(TextResponse(408, "request read timed out\n"));
        }
        goto done;
      }
      struct pollfd pfd = {fd, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, kPollSliceMs);
      if (rc < 0 && errno != EINTR) {
        counters_.io_errors.fetch_add(1, std::memory_order_relaxed);
        goto done;
      }
      if (rc <= 0) continue;
      if (GENLINK_FAILPOINT("serve.slow_read")) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      int injected_errno = 0;
      if (GENLINK_FAILPOINT_E("serve.recv_error", &injected_errno)) {
        errno = injected_errno;
        counters_.io_errors.fetch_add(1, std::memory_order_relaxed);
        goto done;
      }
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n == 0) goto done;  // peer closed
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
        counters_.io_errors.fetch_add(1, std::memory_order_relaxed);
        goto done;
      }
      parser.Consume(std::string_view(buf, static_cast<size_t>(n)));
    }
    if (parser.state() == HttpRequestParser::State::kError) {
      close_connection = true;
      counters_.requests.fetch_add(1, std::memory_order_relaxed);
      respond(TextResponse(parser.error_status(), "malformed request\n"));
      goto done;
    }

    // --- Dispatch.
    counters_.requests.fetch_add(1, std::memory_order_relaxed);
    const HttpRequest& request = parser.request();
    if (const std::string* connection = request.FindHeader("Connection");
        connection != nullptr && HeaderEquals(*connection, "close")) {
      close_connection = true;
    }
    Deadline deadline =
        Deadline::After(options_.request_deadline, options_.clock);
    if (Draining()) {
      close_connection = true;
      deadline = Deadline::Earlier(deadline, DrainDeadline());
    }
    const Clock::TimePoint start = options_.clock->Now();
    HttpResponse response = Dispatch(request, deadline);
    latency_.Record(std::chrono::duration_cast<std::chrono::nanoseconds>(
        options_.clock->Now() - start));
    if (!respond(std::move(response))) goto done;
    parser.Reset();
  }

done:
  ::close(fd);
}

HttpResponse ServeDaemon::Dispatch(const HttpRequest& request,
                                   const Deadline& deadline) {
  const std::string_view path = request.Path();
  if (path == "/healthz") {
    if (request.method != "GET") return TextResponse(405, "GET only\n");
    const ServingState::Snapshot snapshot = state_.snapshot();
    std::string body = "ok generation=" + std::to_string(snapshot.generation) +
                       " stale=" + (snapshot.stale ? "1" : "0");
    if (snapshot.live_mode) body += " epoch=" + std::to_string(snapshot.epoch);
    if (Draining()) body += " draining=1";
    body += '\n';
    return TextResponse(200, std::move(body));
  }
  if (path == "/varz") {
    if (request.method != "GET") return TextResponse(405, "GET only\n");
    return TextResponse(200, RenderVarz());
  }
  if (path == "/reload") {
    if (request.method != "POST") return TextResponse(405, "POST only\n");
    const Status status = state_.ReloadFromFile(std::string(request.body));
    if (!status.ok()) {
      // The old rule keeps serving; the failure is visible here and as
      // stale=1 on /healthz.
      return TextResponse(500, status.ToString() + "\n");
    }
    return TextResponse(
        200, "reloaded generation=" +
                 std::to_string(state_.snapshot().generation) + "\n");
  }
  if (path == "/match") {
    if (request.method != "POST") return TextResponse(405, "POST only\n");
    return HandleMatch(request, deadline);
  }
  if (path == "/upsert") {
    if (request.method != "POST") return TextResponse(405, "POST only\n");
    return HandleUpsert(request);
  }
  if (path == "/delete") {
    if (request.method != "POST") return TextResponse(405, "POST only\n");
    return HandleDelete(request);
  }
  if (path == "/compact") {
    if (request.method != "POST") return TextResponse(405, "POST only\n");
    return HandleCompact(request);
  }
  return TextResponse(404, "no such endpoint\n");
}

HttpResponse ServeDaemon::HandleMatch(const HttpRequest& request,
                                      const Deadline& deadline) {
  CancelToken cancel(deadline);
  // Fault injection: a handler that cannot make progress until its
  // deadline fires (drives the 504 and admission-control tests).
  while (GENLINK_FAILPOINT("serve.match_block") && !cancel.Cancelled()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const std::shared_ptr<LiveCorpus> live = state_.live();
  const std::shared_ptr<const MatcherIndex> index =
      live == nullptr ? state_.index() : nullptr;
  if (live == nullptr && index == nullptr) {
    return TextResponse(503, "no rule deployed\n");
  }
  std::istringstream in{request.body};
  CsvEntityStream queries(in, options_.csv);
  if (!queries.status().ok()) {
    return TextResponse(400, queries.status().ToString() + "\n");
  }
  std::vector<Entity> entities;
  Entity entity;
  while (queries.Next(&entity)) entities.push_back(std::move(entity));
  if (!queries.status().ok()) {
    return TextResponse(400, queries.status().ToString() + "\n");
  }

  const std::vector<GeneratedLink> links =
      live != nullptr
          ? live->MatchBatch(entities, queries.schema(), &cancel)
          : index->MatchBatch(entities, queries.schema(), &cancel);
  if (cancel.Cancelled()) {
    // The result is truncated — never serve partial links.
    counters_.deadline_hits.fetch_add(1, std::memory_order_relaxed);
    return TextResponse(504, "request deadline exceeded\n");
  }

  HttpResponse response;
  response.content_type = "text/csv";
  response.body.reserve(kGeneratedLinksCsvHeader.size() + links.size() * 32);
  response.body = kGeneratedLinksCsvHeader;
  for (const GeneratedLink& link : links) {
    response.body += GeneratedLinkCsvRow(link);
  }
  return response;
}

HttpResponse ServeDaemon::HandleUpsert(const HttpRequest& request) {
  const std::shared_ptr<LiveCorpus> live = state_.live();
  if (live == nullptr) {
    return TextResponse(404, "live updates are off (start with --live)\n");
  }
  std::istringstream in{request.body};
  CsvEntityStream entities(in, options_.csv);
  if (!entities.status().ok()) {
    return TextResponse(400, entities.status().ToString() + "\n");
  }
  std::vector<LiveOp> ops;
  Entity entity;
  while (entities.Next(&entity)) {
    LiveOp op;
    op.kind = LiveOp::Kind::kUpsert;
    op.entity = std::move(entity);
    ops.push_back(std::move(op));
  }
  if (!entities.status().ok()) {
    return TextResponse(400, entities.status().ToString() + "\n");
  }
  if (ops.empty()) return TextResponse(400, "no entities in body\n");
  const Status status = live->ApplyBatch(ops, entities.schema());
  if (!status.ok()) {
    return TextResponse(HttpStatusFor(status), status.ToString() + "\n");
  }
  return TextResponse(200, "upserted " + std::to_string(ops.size()) +
                               " epoch=" + std::to_string(live->epoch()) +
                               "\n");
}

HttpResponse ServeDaemon::HandleDelete(const HttpRequest& request) {
  const std::shared_ptr<LiveCorpus> live = state_.live();
  if (live == nullptr) {
    return TextResponse(404, "live updates are off (start with --live)\n");
  }
  std::vector<LiveOp> ops;
  std::string_view body = request.body;
  while (!body.empty()) {
    const size_t eol = body.find('\n');
    std::string_view line =
        eol == std::string_view::npos ? body : body.substr(0, eol);
    body = eol == std::string_view::npos ? std::string_view()
                                         : body.substr(eol + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    LiveOp op;
    op.kind = LiveOp::Kind::kRemove;
    op.id = std::string(line);
    ops.push_back(std::move(op));
  }
  if (ops.empty()) return TextResponse(400, "no entity ids in body\n");
  const Status status = live->ApplyBatch(ops, live->schema());
  if (!status.ok()) {
    return TextResponse(HttpStatusFor(status), status.ToString() + "\n");
  }
  return TextResponse(200, "deleted " + std::to_string(ops.size()) +
                               " epoch=" + std::to_string(live->epoch()) +
                               "\n");
}

HttpResponse ServeDaemon::HandleCompact(const HttpRequest& request) {
  const std::shared_ptr<LiveCorpus> live = state_.live();
  if (live == nullptr) {
    return TextResponse(404, "live updates are off (start with --live)\n");
  }
  // A non-empty body names an artifact path to persist the compacted
  // corpus at (the `genlink index` output, reloadable with --index).
  std::string_view path = request.body;
  while (!path.empty() &&
         (path.back() == '\n' || path.back() == '\r' || path.back() == ' ')) {
    path.remove_suffix(1);
  }
  const Status status = path.empty() ? live->Compact()
                                     : live->CompactTo(std::string(path));
  if (!status.ok()) {
    return TextResponse(HttpStatusFor(status), status.ToString() + "\n");
  }
  return TextResponse(
      200, "compacted epoch=" + std::to_string(live->epoch()) + "\n");
}

bool ServeDaemon::SendAll(int fd, std::string_view data,
                          const Deadline& deadline) {
  int injected_errno = 0;
  if (GENLINK_FAILPOINT_E("serve.send_error", &injected_errno)) {
    errno = injected_errno;
    return false;
  }
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (deadline.Expired()) return false;
      struct pollfd pfd = {fd, POLLOUT, 0};
      const int rc = ::poll(&pfd, 1, kPollSliceMs);
      if (rc < 0 && errno != EINTR) return false;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

std::string ServeDaemon::RenderVarz() const {
  const ServingState::Snapshot snapshot = state_.snapshot();
  size_t queue_depth = 0;
  {
    MutexLock lock(queue_mutex_);
    queue_depth = queue_.size();
  }
  const auto counter = [](const std::atomic<uint64_t>& c) {
    return std::to_string(c.load(std::memory_order_relaxed));
  };
  std::string out;
  out.reserve(512);
  out += "serve_generation " + std::to_string(snapshot.generation) + "\n";
  out += "serve_stale ";
  out += snapshot.stale ? "1\n" : "0\n";
  out += "serve_failed_reloads " + std::to_string(snapshot.failed_reloads) +
         "\n";
  out += "serve_rule_build_seconds " + std::to_string(snapshot.build_seconds) +
         "\n";
  out += "serve_draining ";
  out += Draining() ? "1\n" : "0\n";
  out += "serve_queue_depth " + std::to_string(queue_depth) + "\n";
  out += "serve_accepted " + counter(counters_.accepted) + "\n";
  out += "serve_shed " + counter(counters_.shed) + "\n";
  out += "serve_requests " + counter(counters_.requests) + "\n";
  out += "serve_responses_2xx " + counter(counters_.responses_2xx) + "\n";
  out += "serve_responses_4xx " + counter(counters_.responses_4xx) + "\n";
  out += "serve_responses_5xx " + counter(counters_.responses_5xx) + "\n";
  out += "serve_deadline_hits " + counter(counters_.deadline_hits) + "\n";
  out += "serve_io_errors " + counter(counters_.io_errors) + "\n";
  out += "serve_drain_aborts " + counter(counters_.drain_aborts) + "\n";
  out += "serve_latency_p50_seconds " +
         std::to_string(latency_.PercentileSeconds(50)) + "\n";
  out += "serve_latency_p99_seconds " +
         std::to_string(latency_.PercentileSeconds(99)) + "\n";
  if (const std::shared_ptr<LiveCorpus> live = state_.live();
      live != nullptr) {
    const LiveCorpusStats stats = live->stats();
    out += "live_epoch " + std::to_string(stats.epoch) + "\n";
    out += "live_entities " + std::to_string(stats.live_entities) + "\n";
    out += "live_base_entities " + std::to_string(stats.base_entities) + "\n";
    out += "live_delta_entities " + std::to_string(stats.delta_entities) +
           "\n";
    out += "live_delta_log_entries " +
           std::to_string(stats.delta_log_entries) + "\n";
    out += "live_tombstones " + std::to_string(stats.tombstones) + "\n";
    out += "live_delta_store_bytes " +
           std::to_string(stats.delta_store_bytes) + "\n";
    out += "live_upserts " + std::to_string(stats.upserts) + "\n";
    out += "live_removes " + std::to_string(stats.removes) + "\n";
    out += "live_compactions " + std::to_string(stats.compactions) + "\n";
    out += "live_last_compact_seconds " +
           std::to_string(stats.last_compact_seconds) + "\n";
  }
  return out;
}

}  // namespace genlink

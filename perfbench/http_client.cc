#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>

namespace perfbench {

namespace {

/// How long Send waits for its request to go out and its response to
/// arrive.
constexpr std::chrono::milliseconds kResponseTimeout{10000};

}  // namespace

HttpClient::HttpClient(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    Close();
  }
}

HttpClient::~HttpClient() { Close(); }

void HttpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::string HttpClient::Request(std::string_view target,
                                std::string_view body) {
  std::string request = "POST ";
  request += target;
  request += " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: text/csv\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  request += body;
  return request;
}

namespace {

/// Case-insensitive search for `name:` at a line start inside `head`;
/// returns the value start or npos.
size_t FindHeader(std::string_view head, std::string_view name) {
  size_t pos = head.find("\r\n");
  while (pos != std::string_view::npos && pos + 2 < head.size()) {
    const size_t line = pos + 2;
    bool match = line + name.size() < head.size() && head[line + name.size()] == ':';
    for (size_t i = 0; match && i < name.size(); ++i) {
      match = std::tolower(static_cast<unsigned char>(head[line + i])) ==
              std::tolower(static_cast<unsigned char>(name[i]));
    }
    if (match) return line + name.size() + 1;
    pos = head.find("\r\n", line);
  }
  return std::string_view::npos;
}

}  // namespace

bool HttpClient::Send(std::string_view request, int* status,
                      std::string* body) {
  if (fd_ < 0) return false;
  const auto deadline = std::chrono::steady_clock::now() + kResponseTimeout;
  const auto wait = [&](short events) {
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      if (left <= 0) return false;
      struct pollfd pfd = {fd_, events, 0};
      const int rc = ::poll(&pfd, 1, static_cast<int>(left));
      if (rc > 0) return true;
      if (rc < 0 && errno != EINTR) return false;
    }
  };

  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!wait(POLLOUT)) break;
    } else {
      break;
    }
  }
  if (sent < request.size()) {
    Close();
    return false;
  }

  // Read the status line and headers, then Content-Length body bytes.
  std::string& buf = pending_;
  size_t header_end = std::string::npos;
  size_t total = std::string::npos;
  char chunk[16384];
  for (;;) {
    if (header_end == std::string::npos) {
      header_end = buf.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        const std::string_view head(buf.data(), header_end + 2);
        const size_t length_at = FindHeader(head, "content-length");
        if (head.compare(0, 9, "HTTP/1.1 ") != 0 || head.size() < 12 ||
            length_at == std::string_view::npos) {
          Close();
          return false;
        }
        *status = std::atoi(head.data() + 9);
        total = header_end + 4 +
                static_cast<size_t>(std::strtoull(head.data() + length_at,
                                                  nullptr, 10));
      }
    }
    if (total != std::string::npos && buf.size() >= total) break;
    if (!wait(POLLIN)) {
      Close();
      return false;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf.append(chunk, static_cast<size_t>(n));
    } else if (n < 0 && (errno == EINTR || errno == EAGAIN)) {
      continue;
    } else {
      Close();
      return false;
    }
  }
  body->assign(buf, header_end + 4, total - header_end - 4);
  buf.erase(0, total);
  return true;
}

}  // namespace perfbench

// A keep-alive HTTP/1.1 client for the benchmark's load generators.
//
// genlink's own HttpCall (serve/http.h) sends `Connection: close`, so
// every request would pay a TCP handshake and a trip through the
// daemon's accept queue; a load generator built on it measures the
// connection path, not the request path. This client holds one
// connection open for all of its requests, which is how `/match`
// pipelines talk to the daemon. A keep-alive connection holds one
// daemon worker until it closes, so a workload opens at most as many
// clients as the daemon has workers.

#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

class HttpClient {
 public:
  /// Connects to 127.0.0.1:`port`; on failure every Send returns false.
  explicit HttpClient(uint16_t port);
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// The request bytes Post sends for `target` and `body`.
  static std::string Request(std::string_view target, std::string_view body);

  /// Sends prebuilt request bytes and reads one full response. Returns
  /// false on a socket error, a malformed response or when the response
  /// does not arrive within 10 seconds; the connection is then closed.
  bool Send(std::string_view request, int* status, std::string* body);

 private:
  void Close();

  int fd_ = -1;
  /// Bytes received past the end of the previous response.
  std::string pending_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_

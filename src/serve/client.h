// Keep-alive HTTP client for the serve API — the plumbing behind
// `statsize submit/poll/cancel` and the benches. One Client owns one
// connection and reconnects transparently when the daemon closed it (idle
// timeout, error response with Connection: close).
//
// Resilience (DESIGN.md §13): with ClientOptions::retries > 0 the client
// survives a hostile network — transport failures (reset, torn response,
// connect timeout) and backpressure statuses (429, 503) are retried under
// capped exponential backoff with DETERMINISTIC seeded jitter:
//
//   delay_ms(attempt) = min(cap, backoff * 2^attempt) * U,  U in [0.5, 1.0)
//
// where U comes from a SplitMix64 stream seeded by jitter_seed — the house
// RNG, never rand()/random_device (detlint DET002 still fires on those in
// serve/). A server-sent Retry-After overrides the computed delay. Retrying
// a POST /v1/jobs is safe when paired with an Idempotency-Key: the daemon
// answers the retry from the original admission.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "serve/http.h"
#include "stat/random.h"
#include "util/json.h"

namespace statsize::serve {

/// Response body + status from one API exchange.
struct ApiResult {
  int status = 0;
  std::string body;

  bool ok() const { return status >= 200 && status < 300; }

  /// Parses the body (daemon responses are always JSON).
  util::JsonValue json() const { return util::parse_json(body); }
};

struct ClientOptions {
  int retries = 0;              ///< extra attempts after the first (0 = fail fast)
  double backoff_ms = 100.0;    ///< base delay before the first retry
  double backoff_cap_ms = 2000.0;
  std::uint64_t jitter_seed = 1;  ///< SplitMix64 seed for the jitter stream
  /// Bounds connect() (0 = OS default) and each recv (0 = block forever).
  double connect_timeout_seconds = 5.0;
  double recv_timeout_seconds = 0.0;
};

class Client {
 public:
  /// Lazy: connects on the first request.
  Client(std::string host, int port, ClientOptions options = {})
      : host_(std::move(host)), port_(port), options_(options), jitter_(options.jitter_seed) {}

  /// One logical exchange, retried per ClientOptions. Throws
  /// std::runtime_error when transport keeps failing after every retry;
  /// returns the last response when the server keeps answering 429/503.
  ApiResult request(const std::string& method, const std::string& target,
                    const std::string& body = "",
                    const std::map<std::string, std::string>& headers = {});

  /// The first `count` backoff delays (ms) this options struct produces —
  /// pure function of (options, attempt index), so tests can assert the
  /// schedule is deterministic and capped without sleeping through it.
  static std::vector<double> backoff_schedule(const ClientOptions& options, int count);

  /// Retries attempted by this client so far (transport + backpressure).
  long retries_used() const { return retries_used_; }

  // -- Typed wrappers over the v1 API --

  /// Upload circuit text; returns the cache key.
  std::string upload(const std::string& text, const std::string& format,
                     const std::string& name = "");

  /// Submit a job; `body_json` is the full POST /v1/jobs body. A non-empty
  /// `idempotency_key` is sent as the Idempotency-Key header, making retries
  /// (manual or automatic) submit-once. Returns the job id. Throws on
  /// non-2xx (message includes the server's error body).
  std::string submit(const std::string& body_json, const std::string& idempotency_key = "");

  ApiResult job(const std::string& id) { return request("GET", "/v1/jobs/" + id); }
  ApiResult cancel(const std::string& id) { return request("DELETE", "/v1/jobs/" + id); }
  ApiResult stats() { return request("GET", "/v1/stats"); }

  /// Polls GET /v1/jobs/<id> every `poll_seconds` until the job leaves
  /// queued/running (or `timeout_seconds` elapses, 0 = forever). Returns the
  /// final job document.
  util::JsonValue wait(const std::string& id, double poll_seconds = 0.05,
                       double timeout_seconds = 0.0);

 private:
  void ensure_connected();
  /// Next jittered backoff delay for `attempt` (0-based), advancing the
  /// jitter stream.
  double next_backoff_ms(int attempt);

  std::string host_;
  int port_;
  ClientOptions options_;
  stat::SplitMix64 jitter_;
  long retries_used_ = 0;
  std::optional<HttpConnection> conn_;
};

}  // namespace statsize::serve

#pragma once
/// \file client.hpp
/// Thin blocking client for the pmcast daemon (src/net/server.hpp). One
/// Client owns one TCP connection and issues one request at a time —
/// the cheap-remote-round-trip half of the resident-daemon split: all hot
/// state (worker pool, warm LP bases, result cache) lives in the server
/// process, so a client round-trip for a cached instance costs a network
/// hop instead of a portfolio solve.
///
/// Concurrency model: a Client is not thread-safe and pipelines nothing;
/// open one Client per concurrent caller (connections are cheap, the
/// daemon multiplexes thousands). solve() blocks until the response or
/// error frame for its request id arrives.
///
/// Deadlines travel as relative milliseconds and are re-anchored by the
/// server on arrival (clock skew between hosts never taints a deadline);
/// SolveRequest::kNoDeadline is preserved end-to-end as a protocol flag,
/// never as a sentinel float on the wire. The client additionally bounds
/// its own blocking time: deadline + ClientOptions::response_slack_ms for
/// deadline'd requests, ClientOptions::response_timeout_ms otherwise.

#include <cstdint>
#include <memory>
#include <string>

#include "net/faultpoint.hpp"
#include "net/protocol.hpp"
#include "pmcast/request.hpp"
#include "pmcast/status.hpp"

namespace pmcast::net {

/// Capped-exponential-backoff retry policy for solve(). Retries happen only
/// for conditions where resending is safe AND useful: the transport died
/// (kUnavailable from a dead socket — the old connection is closed first,
/// so the daemon cannot answer the original twice) or the server explicitly
/// said kUnavailable/kShuttingDown. kOverloaded is deliberately *not*
/// retried: hammering a shedding server amplifies the overload it is
/// shedding. Timeouts and protocol errors are never retried either — there
/// the server may still be working on (or confused by) the original.
///
/// Solves are idempotent on the server (same canonical instance key,
/// cache-backed), so the worst a retry can do is recompute.
struct RetryPolicy {
  /// Total attempts including the first (1 = never retry). The default
  /// preserves the historical dial-again-once behaviour.
  int max_attempts = 2;
  double initial_backoff_ms = 10.0;
  double max_backoff_ms = 1'000.0;
  double backoff_multiplier = 2.0;
  /// Jitter fraction: each backoff is scaled by a factor drawn uniformly
  /// from [1 - jitter, 1 + jitter]. Drawn from a PRNG seeded by (seed,
  /// request id), so a seeded client's backoff schedule is reproducible.
  double jitter = 0.2;
  std::uint64_t seed = 0;
  /// Wall-clock cap across *all* attempts of one solve(), backoffs
  /// included (0 = none). When exceeded, solve() returns the last error.
  double attempt_deadline_ms = 0.0;
};

struct ClientOptions {
  /// Tenant id stamped on every frame (admission control key).
  std::uint32_t tenant = 0;
  /// Wall-clock cap on waiting for a response when the request carries no
  /// deadline; 0 = wait forever.
  double response_timeout_ms = 0.0;
  /// Extra wait beyond a request's own deadline before giving up on the
  /// socket (covers transfer + scheduling noise).
  double response_slack_ms = 2'000.0;
  /// Cap on establishing a TCP connection (non-blocking connect + poll);
  /// 0 = the OS default. A timeout maps to kUnavailable, so the retry
  /// policy covers unreachable endpoints too.
  double connect_timeout_ms = 0.0;
  /// Stale response frames (ids solve() stopped waiting for) discarded per
  /// read before the stream is declared poisoned and the connection closed
  /// with a protocol error. 0 = unbounded discard (historical behaviour).
  int max_stale_frames = 256;
  /// Retry/backoff policy for solve().
  RetryPolicy retry;
  /// Optional deterministic fault injection (tests/chaos benches only);
  /// null = production, zero cost.
  std::shared_ptr<FaultPlan> fault_plan;
};

/// What a remote solve returns: the certified answer plus the server-side
/// provenance/timing the wire carries (see WireResponse).
struct RemoteResponse {
  double period = 0.0;
  StrategyId winner = StrategyId::Mcph;
  bool from_cache = false;
  bool coalesced = false;
  /// True when the server admitted this request under brownout: the answer
  /// came from the cheap heuristic allowlist only (no exact/CG arm ran).
  bool brownout = false;
  double solve_ms = 0.0;
  double total_ms = 0.0;
  double queue_ms = 0.0;
  int certified = 0;
  int failed = 0;
  int skipped = 0;
  int pruned = 0;
  double proven_lower_bound = 0.0;
  std::vector<WireOutcome> outcomes;

  double throughput() const { return period > 0.0 ? 1.0 / period : 0.0; }
};

class Client {
 public:
  Client() = default;
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect to a daemon. Fails with kUnavailable when nobody listens.
  static Result<Client> connect(const std::string& host, std::uint16_t port,
                                ClientOptions options = {});

  bool connected() const { return fd_ >= 0; }

  /// Solve one instance remotely. The request's cancellation token is
  /// ignored (remote cancellation is cancel()); everything else —
  /// deadline (incl. kNoDeadline), priority, strategy allowlist, limits,
  /// pruning override, known_lower_bound — travels on the wire.
  ///
  /// Resilience: retried per ClientOptions::retry (capped exponential
  /// backoff, deterministic jitter) when the connection died mid-round-trip
  /// or the server answered kUnavailable/kShuttingDown. On exhaustion the
  /// *last* error is returned. Timeouts (kDeadlineExceeded), protocol
  /// errors (kInternal), kOverloaded sheds and all other server-reported
  /// errors are never retried (see RetryPolicy).
  Result<RemoteResponse> solve(const SolveRequest& request);

  /// Fire-and-forget cancel of \p request_id, an id this Client sent. The
  /// server matches a cancel only against requests in flight on the
  /// connection it arrives on, so a cancel sent through another Client
  /// (another connection) stops nothing. Since solve() blocks, the use is
  /// after solve() gave up waiting (kDeadlineExceeded on the client's own
  /// timeout): note next_request_id() before the solve, cancel that id, and
  /// the server answers it with a kCancelled error frame that the next
  /// round-trip discards as stale.
  Status cancel(std::uint64_t request_id);

  /// Fetch the daemon's counter snapshot.
  Result<ServerStats> stats();

  /// Fetch the daemon's cumulative profiling snapshot (aggregate trace
  /// counters + cache shard heat).
  Result<ServerTrace> trace();

  /// The id solve() will stamp on its next request.
  std::uint64_t next_request_id() const { return next_request_id_; }

  /// Round trips actually attempted by solve() over this client's lifetime
  /// (first tries + retries). attempts / solves = retry amplification.
  std::uint64_t total_attempts() const { return attempts_; }
  /// Stale response frames discarded by read_matching. Nonzero means a
  /// response arrived for an id nobody was waiting for any more — the
  /// double-answer signal chaos tests assert is zero.
  std::uint64_t stale_frames_discarded() const { return stale_discarded_; }

  void close();

 private:
  Status send_all(const std::vector<std::uint8_t>& bytes);
  /// Read frames until one with \p request_id arrives (or timeout_ms < 0 =
  /// forever). Stale responses for earlier, timed-out ids are discarded,
  /// at most ClientOptions::max_stale_frames per call.
  Result<Frame> read_matching(std::uint64_t request_id, double timeout_ms);
  /// Dial the remembered endpoint again after a lost connection (solve()'s
  /// retry path). Any half-read input buffer is dropped with the old
  /// socket.
  Status reconnect();
  /// Poll the optional fault plan (null = no-op); applies kDelay inline.
  FaultDecision poll_fault(FaultPoint point);

  int fd_ = -1;
  ClientOptions options_;
  std::uint64_t next_request_id_ = 1;
  std::vector<std::uint8_t> in_;
  std::string host_;  ///< remembered endpoint for reconnect()
  std::uint16_t port_ = 0;
  std::uint64_t attempts_ = 0;
  std::uint64_t stale_discarded_ = 0;
};

}  // namespace pmcast::net

#pragma once
/// \file server.hpp
/// pmcast-serve: the resident daemon that promotes the in-process
/// pmcast::Service to a network service. One long-lived process owns the
/// worker pool, the warm LP state and the shared result cache; remote
/// clients pay a cheap binary round-trip (src/net/protocol.hpp) instead of
/// linking the library and reloading hot state per process.
///
/// Architecture: a single epoll event-loop thread owns every connection
/// (non-blocking accept/read/write, one state machine per connection) and
/// dispatches admitted requests onto the embedded Service's worker pool via
/// submit_batch(); solver completions are handed back to the loop through a
/// mutex-guarded completion queue plus an eventfd wakeup. Cross-request
/// caching, duplicate coalescing, pruning and priority scheduling are all
/// inherited from the Service — the daemon adds transport, admission
/// control and lifecycle on top.
///
/// Lifecycle: start() binds and listens; run() blocks in the event loop
/// until a drain completes. request_drain() — async-signal-safe, callable
/// from a SIGTERM handler — stops accepting, answers any late solve frame
/// with kShuttingDown, and lets every in-flight request finish and flush;
/// after ServerOptions::drain_timeout_ms the remaining in-flight requests
/// are cooperatively cancelled, which still delivers each one an explicit
/// error frame. run() returns only when nothing is in flight and every
/// response byte is written (or its connection is gone).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/admission.hpp"
#include "net/faultpoint.hpp"
#include "net/protocol.hpp"
#include "pmcast/service.hpp"
#include "pmcast/status.hpp"
#include "pmcast/strategy.hpp"

namespace pmcast::net {

/// Brownout degradation policy: when the deadline-feasibility check would
/// shed a request, admit it anyway restricted to cheap heuristic arms — the
/// service degrades answer quality before availability. Responses produced
/// this way carry an explicit brownout provenance bit on the wire.
struct BrownoutOptions {
  bool enabled = false;
  /// Allowlist used for browned-out requests. Empty = the default cheap
  /// set {Mcph, PrunedDijkstra, Kmb}: pure tree heuristics, no LP and no
  /// exact enumeration.
  std::vector<StrategyId> strategies;
};

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read the bound port with port()
  int backlog = 256;
  int max_connections = 4096;

  /// The embedded solver service (worker pool, cache, deadlines, pruning).
  ServiceOptions service;

  /// Admission control (see src/net/admission.hpp).
  TenantQuota default_quota;
  std::unordered_map<std::uint32_t, TenantQuota> tenant_quotas;
  int global_max_in_flight = 0;
  double shed_safety_factor = 1.0;

  /// Grace period for draining in-flight work after request_drain();
  /// afterwards the stragglers are cancelled (still answered explicitly).
  double drain_timeout_ms = 10'000.0;

  /// Close a connection with no traffic at all for this long (0 = never).
  /// Protects the fd table from abandoned peers.
  double idle_timeout_ms = 0.0;
  /// Close a connection that has held a *partial* frame for this long
  /// (0 = never). This is the slow-loris defense: a peer trickling header
  /// bytes cannot pin a connection past this bound.
  double read_timeout_ms = 0.0;
  /// Close a connection whose queued-but-unsent output exceeds this many
  /// bytes (0 = unbounded). Bounds memory held hostage by a peer that
  /// stops reading its responses.
  std::size_t max_output_buffer_bytes = 0;

  /// Optional deterministic fault-injection schedule (tests and chaos
  /// benches only). Null — the default — is the production configuration:
  /// every instrumented site reduces to one branch on a null pointer.
  std::shared_ptr<FaultPlan> fault_plan;

  /// Brownout degradation (see BrownoutOptions).
  BrownoutOptions brownout;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + create the event loop plumbing. Fails with
  /// kUnavailable if the address cannot be bound.
  Status start();

  /// The bound port (valid after start(); useful with port = 0).
  std::uint16_t port() const;

  /// Run the event loop. Blocks until a drain completes. Call from one
  /// thread only, after start().
  void run();

  /// Begin a graceful drain. Async-signal-safe (an atomic store plus an
  /// eventfd write), so a SIGTERM handler may call it directly. Idempotent.
  void request_drain();

  /// True once run() has finished draining.
  bool drained() const;

  /// Counter snapshot (net/protocol.hpp), the same one a kStatsRequest is
  /// answered with; callable from any thread.
  ServerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pmcast::net

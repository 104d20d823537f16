#pragma once
/// \file pmcast/service.hpp
/// pmcast::Service — the async-first v1 facade over the concurrent solver
/// portfolio. One Service owns a work-stealing worker pool and an LRU
/// result cache; requests carry their own deadline, budget, priority,
/// cancellation and strategy allowlist (pmcast/request.hpp).
///
/// Submission model:
///  * solve()        — blocking convenience for one request;
///  * submit()       — returns a SolveFuture immediately;
///  * submit_batch() — streams each Result<SolveResponse> through the
///    optional on_result callback *as it certifies* instead of holding the
///    whole batch until the slowest straggler finishes; the returned
///    SolveBatch handle offers wait_all()/cancel()/get(i).
///
/// Callback contract: callbacks are serialized (never concurrent with each
/// other) and may run on worker threads or, for cache hits and invalid
/// requests, on the submitting thread before submit_batch() returns. A
/// callback must not block on its own batch's handle. Delivery *order*
/// across requests is completion order — nondeterministic under > 1
/// worker — but the content of every response is deterministic: a request
/// is a pure function of its instance, independent of thread count.
///
/// The Service is pimpl'd: this header pulls in no runtime internals, and
/// future transports (sockets, shared memory) can reuse the same
/// request/response surface without a breaking change.

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "pmcast/request.hpp"
#include "pmcast/response.hpp"
#include "pmcast/status.hpp"

namespace pmcast {

namespace detail {
struct BatchState;  // defined in src/api/service.cpp
}

struct ServiceOptions {
  /// Worker threads. 0 = no workers: everything (including submit() /
  /// submit_batch()) runs inline on the calling thread in deterministic
  /// order — the debugging mode.
  int threads = 1;
  /// Result-cache capacity in entries; 0 disables caching.
  std::size_t cache_capacity = 1024;
  /// Default wall-clock deadline per request in ms; 0 = unlimited.
  /// Individual requests override with SolveRequest::deadline_ms, or opt
  /// out of this default entirely with SolveRequest::kNoDeadline.
  double default_deadline_ms = 0.0;
  /// Default exact-solver limits (overridden by SolveRequest::limits).
  int exact_max_nodes = 9;
  std::size_t exact_max_trees = 200'000;
  /// Default column-generation ceiling for the exact strategy: instances
  /// in (exact_max_nodes, colgen_max_nodes] use the restricted-master
  /// pricing loop. 0 (the default) disables column generation, keeping
  /// the portfolio's certified results identical to the
  /// enumeration-only engine.
  int colgen_max_nodes = 0;
  /// Extra discrete-event replay periods for tree certificates.
  int simulate_periods = 0;
  /// Default strategy portfolio; empty = all strategies.
  std::vector<StrategyId> strategies;
  /// Default cooperative-pruning policy (overridable per request). Pruning
  /// cuts work that provably cannot beat the winner; the certified period
  /// is identical under every policy, and Deterministic keeps even the
  /// per-strategy outcomes bit-identical across thread counts.
  PruningPolicy pruning = PruningPolicy::Deterministic;
  /// Tracing/profiling detail recorded into every SolveResponse::trace
  /// (and the service-wide aggregate_trace()). Counters — cut-predicate
  /// accounting and LP checkpoint latency histograms, a couple of relaxed
  /// atomic bumps per record — is cheap enough to stay on in production;
  /// Timeline additionally records per-strategy event timelines; Off
  /// removes the layer entirely (zero allocations, zero clock reads).
  TraceDetail trace = TraceDetail::Counters;
};

/// Cumulative result-cache counters, summed over the cache's shards, plus
/// each shard's own counters.
struct CacheMetrics {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t entries = 0;
  /// Shard count the cache runs with (auto-scaled to hardware_concurrency
  /// unless configured explicitly).
  std::size_t shards = 1;
  /// Per-shard heat (index == shard id): how evenly the canonical-key hash
  /// spreads traffic, and which shards carry the hot entries.
  struct ShardHeat {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
    std::size_t entries = 0;
  };
  std::vector<ShardHeat> shard_heat;

  double hit_rate() const {
    std::size_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Handle to one in-flight request. Copyable; all copies share the state.
class SolveFuture {
 public:
  SolveFuture() = default;

  /// False for a default-constructed future.
  bool valid() const { return state_ != nullptr; }
  /// True once the response (or error status) is available.
  bool ready() const;
  void wait() const;
  /// Wait up to \p timeout_ms; true iff ready. Requires valid().
  bool wait_for(double timeout_ms) const;
  /// Block until done and return the result (copy; repeatable).
  Result<SolveResponse> get() const;
  /// Cooperatively cancel this request.
  void cancel();

 private:
  friend class Service;
  friend class SolveBatch;
  SolveFuture(std::shared_ptr<detail::BatchState> state, std::size_t index)
      : state_(std::move(state)), index_(index) {}

  std::shared_ptr<detail::BatchState> state_;
  std::size_t index_ = 0;
};

/// Handle to an in-flight batch. Copyable; all copies share the state.
class SolveBatch {
 public:
  SolveBatch() = default;

  bool valid() const { return state_ != nullptr; }
  std::size_t size() const;
  /// Responses delivered so far (callback-visible or get()-able).
  std::size_t completed() const;
  bool done() const;
  /// Block until every request has been delivered (and, when an on_result
  /// callback was installed, until every callback has returned).
  void wait_all();
  /// Wait up to \p timeout_ms; true iff the batch completed.
  bool wait_all_for(double timeout_ms);
  /// Cooperatively cancel the whole batch: not-yet-started strategies
  /// skip, started strategies stop at their next checkpoint (between LP
  /// probes or mid-solve), already-delivered responses stay valid.
  void cancel();
  bool ready(std::size_t index) const;
  /// Block until request \p index is delivered and return its result.
  Result<SolveResponse> get(std::size_t index) const;
  /// Per-request future sharing this batch's state.
  SolveFuture future(std::size_t index) const;

 private:
  friend class Service;
  explicit SolveBatch(std::shared_ptr<detail::BatchState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::BatchState> state_;
};

/// Streaming delivery: invoked once per request, in completion order, with
/// the request's index in the submitted batch.
using ResultCallback =
    std::function<void(std::size_t index, const Result<SolveResponse>&)>;

class Service {
 public:
  explicit Service(ServiceOptions options = {});
  ~Service();

  Service(Service&&) noexcept;
  Service& operator=(Service&&) noexcept;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Blocking convenience: submit one request and wait for its result.
  Result<SolveResponse> solve(const SolveRequest& request);

  /// Async single submission; returns immediately (with 0 worker threads
  /// the request is solved inline before returning, and the future is
  /// already ready).
  SolveFuture submit(SolveRequest request);

  /// Async batch submission with streaming delivery. Each request's
  /// Result<SolveResponse> is passed to \p on_result as it certifies;
  /// cache hits and invalid requests are delivered before this returns.
  SolveBatch submit_batch(std::vector<SolveRequest> requests,
                          ResultCallback on_result = {});

  /// Blocking batch: submit, wait for everything, return results aligned
  /// index-for-index with \p requests.
  std::vector<Result<SolveResponse>> solve_batch(
      std::vector<SolveRequest> requests);

  CacheMetrics cache_metrics() const;
  /// Cumulative trace merged over every solve this service has finished
  /// (counters only; timelines stay on the individual responses). The
  /// profiling view a daemon exports — see the kTraceRequest wire frame.
  SolveTrace aggregate_trace() const;
  void clear_cache();
  int thread_count() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pmcast

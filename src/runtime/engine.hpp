#pragma once
/// \file engine.hpp
/// The batch-serving layer of the runtime: a PortfolioEngine owns the
/// work-stealing pool and the LRU result cache and exposes an async-first
/// submission surface — submit_batch() streams each request's result
/// through a callback as it certifies — plus blocking
/// solve()/solve_batch() conveniences layered on top. It is configured by
/// the Service's own types: ServiceOptions once, a SolveRequest per
/// request, each resolved into one race by resolve_race().
///
/// A batch is served in four steps:
///  1. *Cache lookup* — every request's race key (its canonical instance
///     key, graph/hash.hpp, extended with every resolved race setting but
///     the deadline) is probed against the LRU cache; hits are delivered
///     immediately, on the submitting thread.
///  2. *Coalescing* — misses with identical race keys are grouped; one
///     leader per group is solved, followers receive a copy (coalesced
///     flag set). A coalesced group runs under its leader's cancellation
///     tokens (the leader is the first occurrence in the batch) but its
///     *most permissive* member's deadline — a follower with a later or
///     explicitly-unlimited deadline widens the group's, mirroring the
///     priority escalation.
///  3. *Fan-out* — every (leader, strategy) pair becomes one pool task, so
///     strategy-level parallelism spans request boundaries and the pool
///     stays saturated even when one straggler request is left. Groups are
///     dispatched in descending SolveRequest::priority order. Under
///     PruningPolicy::Deterministic a group's tasks go out stage by stage
///     (trees, then bound providers, then LP refinement heuristics): the
///     task that completes a stage freezes the group's incumbent snapshot
///     and submits the next stage, so pruning decisions depend only on
///     which strategies ran — never on timing — while tasks of *different*
///     groups still interleave freely and keep the pool saturated.
///  4. *Streaming delivery* — when the last strategy of a group finishes,
///     the group's result is assembled, cached unless the group's deadline
///     passed or its tokens fired before it finished, and handed (leader
///     first, then followers) to the batch callback; other requests keep
///     running. No barrier: time-to-first-result is one request's solve
///     time, not the whole batch's. An infeasible instance (a target
///     unreachable from the source) is not raced: it is delivered at once
///     with every outcome Failed, and not cached.
///
/// Budget semantics: deadlines are anchored when the batch enters the
/// engine and enforced cooperatively at checkpoint granularity — between
/// strategies, between a strategy's LP probes, and every few dozen simplex
/// iterations inside an LP solve — so an expired deadline surfaces within
/// one checkpoint interval. Nothing is ever killed mid-pivot.
/// Cancellation is cooperative through the same checkpoints, per request
/// (SolveRequest::cancel) or per batch (the token the caller passes to
/// submit_batch()).

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "pmcast/service.hpp"
#include "runtime/budget.hpp"
#include "runtime/cache.hpp"
#include "runtime/portfolio.hpp"
#include "runtime/thread_pool.hpp"

namespace pmcast::runtime {

namespace detail {
struct EngineBatchState;  // defined in engine.cpp
struct EngineGroup;       // defined in engine.cpp
}

/// Streaming delivery: called exactly once per request with its batch
/// index, as results become available. The result is only borrowed for
/// the call. Cache hits fire on the submitting thread, the rest on
/// whichever thread finishes a group's last strategy (the submitting
/// thread itself when threads == 0) — so calls for different requests may
/// run concurrently, and the callback must be thread-safe. It must not
/// block on its own batch.
using BatchCallback =
    std::function<void(std::size_t index, const PortfolioResult& result)>;

class PortfolioEngine {
 public:
  explicit PortfolioEngine(ServiceOptions options = {});

  /// Async-first entry point: dispatch the batch and return immediately
  /// (with 0 worker threads everything runs inline first, in launch
  /// order). Every request's result goes to \p on_result exactly once,
  /// under the request's index; the engine keeps no copy beyond the cache.
  /// \p cancel stops the whole batch cooperatively. Each leader's problem
  /// is moved out of its request into the batch state.
  void submit_batch(std::vector<SolveRequest> requests,
                    CancellationToken cancel, BatchCallback on_result);

  /// Solve one request (cache-aware). Blocks until done.
  PortfolioResult solve(SolveRequest request);

  /// Blocking batch (submit_batch() and a latch over its callback);
  /// results align index-for-index with \p requests.
  std::vector<PortfolioResult> solve_batch(std::vector<SolveRequest> requests);

  /// The defaults every request's race is resolved against.
  const ServiceOptions& options() const { return options_; }

  /// The result cache's totals and per-shard heat (ResultCache::metrics).
  CacheMetrics cache_metrics() const { return cache_.metrics(); }
  void clear_cache() { cache_.clear(); }
  int thread_count() const { return pool_.thread_count(); }
  /// Cumulative trace merged over every group this engine has finished.
  /// Counters only — timelines stay on the individual PortfolioResults
  /// (their timestamps share no origin across races).
  SolveTrace aggregate_trace() const;

 private:
  /// Submit one group's current stage onto the pool (envs refreshed from
  /// a barrier-fenced incumbent snapshot first).
  void dispatch_stage(std::shared_ptr<detail::EngineBatchState> state,
                      detail::EngineGroup* group);
  /// Called by every finished stage task; the one that completes the
  /// stage advances it (next dispatch_stage or final delivery).
  void complete_stage_task(
      const std::shared_ptr<detail::EngineBatchState>& state,
      detail::EngineGroup* group);

  ServiceOptions options_;
  // Declared before the pool so they outlive it: the pool's destructor
  // drains in-flight submit_batch() tasks, which still touch the cache
  // and the cumulative trace.
  ResultCache cache_;
  mutable std::mutex trace_mutex_;
  SolveTrace trace_;
  ThreadPool pool_;
};

}  // namespace pmcast::runtime

#pragma once
/// \file pmcast/request.hpp
/// SolveRequest — the one per-request envelope, from the Service down to
/// the runtime's engine: deadline, exact-solver limits, priority, strategy
/// allowlist, cancellation and pruning are request attributes, not engine
/// knobs. Its inherit sentinels are resolved against ServiceOptions in one
/// place (runtime::resolve_race); nothing else reads them.

#include <optional>
#include <vector>

#include "pmcast/problem.hpp"
#include "pmcast/strategy.hpp"
#include "runtime/budget.hpp"

namespace pmcast {

/// Cooperative cancellation flag. Copyable; every copy shares the same
/// flag, so the caller keeps one and hands the other to the request.
using CancelToken = runtime::CancellationToken;

/// Limits on the expensive exact enumeration strategy. Sentinels inherit
/// the service defaults (ServiceOptions::exact_max_nodes/_max_trees).
struct SolveLimits {
  int exact_max_nodes = -1;         ///< < 0 inherits the service default
  std::size_t exact_max_trees = 0;  ///< 0 inherits the service default
  /// Column-generation ceiling: instances above exact_max_nodes but at
  /// most this many nodes solve the exact strategy via the restricted
  /// master + pricing oracle instead of skipping. < 0 inherits the
  /// service default (which is 0 = disabled). In-process knob only — the
  /// wire protocol does not carry it, so remote requests always use the
  /// server's configured default.
  int colgen_max_nodes = -1;
};

struct SolveRequest {
  /// Explicit "no deadline": a request carrying this sentinel runs
  /// unlimited even when ServiceOptions::default_deadline_ms is set (0
  /// would inherit that default instead).
  static constexpr double kNoDeadline = -1.0;

  Problem problem;

  /// Wall-clock deadline in ms, anchored when the request enters the
  /// service; 0 inherits ServiceOptions::default_deadline_ms, kNoDeadline
  /// (negative) opts out of any deadline, NaN is rejected as
  /// kInvalidArgument. A deadline too far out for the clock to represent
  /// never expires. Enforced cooperatively at
  /// checkpoint granularity: a started strategy stops between LP probes
  /// or every few dozen simplex iterations inside a solve, so expiry
  /// surfaces within one checkpoint interval.
  double deadline_ms = 0.0;

  SolveLimits limits;

  /// Higher-priority requests are dispatched to the worker pool first
  /// within a batch. Ties keep submission order.
  int priority = 0;

  /// Strategy allowlist; empty inherits the service portfolio (all
  /// strategies by default). Routing cheap-vs-expensive per request is
  /// done here: e.g. {Mcph, MulticastUb} for latency-critical traffic.
  std::vector<StrategyId> strategies;

  /// Cooperative cancellation: request_stop() makes not-yet-started
  /// strategies of this request skip; finished work stays valid.
  CancelToken cancel;

  /// Cooperative-pruning override; nullopt inherits ServiceOptions::
  /// pruning. Pruning never changes the certified period — it only stops
  /// work that provably cannot win (reported as OutcomeState::Pruned).
  std::optional<PruningPolicy> pruning;

  /// Caller-proven lower bound on any achievable period for this instance
  /// (0 = none). Must be a *sound* bound (e.g. a previously computed
  /// Multicast-LB value); it seeds the race's incumbent so the early-win
  /// cut can stop strategies the moment a candidate certifies at it.
  double known_lower_bound = 0.0;
};

}  // namespace pmcast

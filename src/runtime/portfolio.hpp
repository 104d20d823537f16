#pragma once
/// \file portfolio.hpp
/// The solver portfolio: race every applicable strategy of the library on
/// one instance and return the best *certified* period.
///
/// Rationale (CP-Router-style cheap-vs-expensive routing): the paper's
/// strategies span three orders of magnitude in cost — tree heuristics are
/// microseconds, the LP refinement heuristics are dozens of LP solves, the
/// exact tree-enumeration LP is exponential. No single choice wins on every
/// instance, so the runtime runs them all (subject to budget) and lets the
/// certificates arbitrate.
///
/// Every candidate must earn its period through the proof pipeline before
/// it can win:
///  * tree strategies      -> WeightedTreeSet -> core::verify_certificate
///  * flow/LP strategies   -> schedule reconstruction -> sched::validate_schedule
/// The two platform heuristics (reduced broadcast / augmented multicast)
/// report a Broadcast-EB value whose constructive schedule lives in prior
/// work, not in this library; they are certified here by re-solving the
/// scatter bound on their reduced platform and validating *that* schedule,
/// and their EB value is kept as an advisory bound (bound_period).
///
/// Determinism: with no deadline, every strategy is a pure function of the
/// instance, outcomes land in fixed slots, and ties break by strategy
/// order — the result is bit-identical across 1, 2 or 8 threads.
///
/// Cooperative pruning (PruningPolicy, runtime/incumbent.hpp): the race
/// shares incumbent bounds so provably-dominated work is cut — the
/// platform heuristics are skipped once a cheaper candidate beats the
/// full-platform scatter bound, every strategy stops once a certified
/// candidate meets the proven Multicast-LB lower bound, and deadlines
/// interrupt LP solves mid-flight through the simplex checkpoint hook.
/// Every cut is sound (the pruned work provably could not have changed
/// the winner or its period), and Deterministic stages the race behind
/// barriers so even the per-candidate outcomes are bit-identical across
/// thread counts.
///
/// Strategies, policies, outcomes and pruning counters are the public value
/// types of pmcast/strategy.hpp and pmcast/response.hpp; PortfolioEngine
/// (runtime/engine.hpp) orchestrates the race.

#include <functional>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "lp/resolve.hpp"
#include "pmcast/response.hpp"
#include "pmcast/strategy.hpp"
#include "runtime/budget.hpp"
#include "runtime/incumbent.hpp"
#include "runtime/trace.hpp"

namespace pmcast {
struct ServiceOptions;
struct SolveRequest;
}  // namespace pmcast

namespace pmcast::runtime {

/// One resolved race: what run_strategy and each engine group read. Built
/// only by resolve_race(), so it carries no inherit sentinels.
struct PortfolioOptions {
  /// Strategies to race, in launch order.
  std::vector<StrategyId> strategies = all_strategy_ids();
  SolveBudget budget;
  /// Extra discrete-event replay periods for tree certificates (0 = the
  /// static checks only; they already include the König orchestration).
  int simulate_periods = 0;
  /// Cooperative pruning across the race (see runtime/incumbent.hpp).
  PruningPolicy pruning = PruningPolicy::Deterministic;
  /// Caller-proven lower bound on any achievable period for this instance
  /// (e.g. from a previous solve of a relaxation); 0 = none. Seeds the
  /// incumbent's proven LB, enabling early-win cuts from the start.
  double known_lower_bound = 0.0;
  /// Tracing/profiling detail recorded into PortfolioResult::trace (see
  /// runtime/trace.hpp). Counters is cheap enough to stay on by default;
  /// Off removes every atomic/clock/allocation from the trace path.
  TraceDetail trace = TraceDetail::Counters;
};

/// The race \p request asks for under \p service: the one reader of
/// SolveRequest's inherit sentinels. A positive deadline overrides the
/// service default, 0 inherits it and kNoDeadline (negative) clears it;
/// exact_max_nodes < 0, exact_max_trees 0, colgen_max_nodes < 0, an empty
/// allowlist and an unset pruning policy each inherit the service's value
/// (an empty service allowlist is every strategy). The resolved deadline is
/// positive or 0 (none).
PortfolioOptions resolve_race(const ServiceOptions& service,
                              const SolveRequest& request);

struct PortfolioResult {
  bool ok = false;             ///< at least one strategy certified
  double period = kInfinity;   ///< best certified period
  StrategyId winner = StrategyId::Mcph;
  std::vector<StrategyOutcome> outcomes;  ///< indexed by launch order
  PruningSummary pruning;
  /// What the tracer recorded for this race (detail == Off when tracing
  /// was disabled; see PortfolioOptions::trace).
  SolveTrace trace;
  double elapsed_ms = 0.0;
  bool from_cache = false;  ///< served from the engine's LRU cache
  bool coalesced = false;   ///< duplicate within a batch, copied from leader
};

/// The cooperative-pruning environment of one run_strategy call. `view` is
/// the barrier-fenced snapshot every pruning predicate reads. `shared` is
/// where a finishing strategy publishes its bounds; null (PruningPolicy::
/// Off) disables pruning entirely (deadline checkpoints remain).
struct StrategyEnv {
  Incumbent* shared = nullptr;
  IncumbentSnapshot view;
  int launch_index = 0;
  /// Race-wide tracer (null or disabled = record nothing). Shared by all
  /// strategies of the race; each strategy owns its launch-index slot.
  Tracer* tracer = nullptr;
};

/// Run one strategy to completion on \p problem (pure, thread-safe).
/// Deadlines and cancellation are enforced inside LP solves and the exact
/// enumeration through cooperative checkpoints: an expired deadline makes
/// the strategy return Skipped/DeadlineExpired within one checkpoint
/// interval instead of running the solve to completion. A cooperative cut
/// returns Pruned with Dominated or EarlyWin.
StrategyOutcome run_strategy(const core::MulticastProblem& problem,
                              StrategyId strategy,
                              const PortfolioOptions& options,
                              const BudgetGuard& guard,
                              const StrategyEnv* env = nullptr);

/// The deterministic launch stage of a strategy: 0 = tree heuristics,
/// 1 = bound providers (Multicast-UB, exact), 2 = LP refinement
/// heuristics. PruningPolicy::Deterministic runs the race stage by stage
/// (a barrier between stages) so pruning decisions depend only on which
/// strategies ran, never on timing.
int strategy_stage(StrategyId strategy);

/// The lp::SolverOptions::checkpoint hook of one LP solve sequence (a
/// strategy, or the race's Multicast-LB probe): Abort once \p guard has
/// expired. With an enabled \p tracer it also records the gap between
/// consecutive checkpoints of one solve (never across two solves) and,
/// once, the FirstLpCheckpoint event of \p slot (a negative slot records
/// no event). \p guard and \p tracer must outlive the hook.
lp::CheckpointHook lp_checkpoint(const BudgetGuard& guard, Tracer* tracer,
                                 int slot, StrategyId strategy);

}  // namespace pmcast::runtime

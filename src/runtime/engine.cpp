#include "runtime/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <latch>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "core/formulations.hpp"
#include "graph/hash.hpp"

namespace pmcast::runtime {
namespace {

/// Two certified periods within this *relative* distance are a tie, broken
/// on launch order. This is the certification pipeline's own numeric
/// tolerance: two candidates evaluating the same optimum can disagree by
/// floating dust (observed ~1e-15 relative between an LP-derived bound and
/// a schedule-derived period), and letting such dust pick the winner makes
/// the result depend on whether a pruning cut stopped the later candidate —
/// exactly the Det-vs-Off divergence the differential suite forbids.
constexpr double kWinnerTieTol = 1e-9;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// The stage plan for one race: indices into \p strategies, grouped by
/// strategy_stage() with empty stages dropped under Deterministic, one
/// flat stage under Off.
std::vector<std::vector<std::size_t>> plan_stages(
    const std::vector<StrategyId>& strategies, PruningPolicy policy) {
  std::vector<std::vector<std::size_t>> stages;
  if (policy == PruningPolicy::Deterministic) {
    stages.assign(3, {});
    for (std::size_t i = 0; i < strategies.size(); ++i) {
      stages[static_cast<std::size_t>(strategy_stage(strategies[i]))]
          .push_back(i);
    }
    std::erase_if(stages, [](const auto& s) { return s.empty(); });
  } else {
    stages.emplace_back(strategies.size());
    for (std::size_t i = 0; i < strategies.size(); ++i) stages[0][i] = i;
  }
  return stages;
}

/// Solve Multicast-LB of \p problem (deadline-checkpointed through
/// \p guard) and publish the value as \p incumbent's proven lower bound —
/// the one extra LP a pruning race pays. Returns the simplex iterations
/// spent.
long long run_lb_probe(const core::MulticastProblem& problem,
                       const BudgetGuard& guard, Incumbent& incumbent,
                       Tracer* tracer) {
  core::FormulationOptions lp_options;
  // The LB probe has no strategy slot; it only feeds the checkpoint
  // latency histogram (slot -1 records no timeline event, so the strategy
  // is never read).
  lp_options.solver.checkpoint =
      lp_checkpoint(guard, tracer, /*slot=*/-1, StrategyId{});
  core::FlowSolution lb = core::solve_multicast_lb(problem, lp_options);
  if (lb.ok()) {
    // Publish the LP value as reported. An earlier revision deflated it by
    // 1e-7 to guard against the simplex overshooting the true optimum by
    // tolerance dust — but certified periods are *achievable*, hence >=
    // the true lower bound, so the deflation made "certified <= proven_lb"
    // (the early-win predicate) unsatisfiable on every instance: the cut
    // was dead code, confirmed by the tracer's miss margins clustering at
    // exactly lb * 1e-7. Overshoot dust is bounded by fp rounding of the
    // objective evaluation (~1e-13 relative), far below the 1e-9
    // acceptance tolerance the heuristics use, and the differential suite
    // (Deterministic vs Off bit-identity on the golden corpus) guards the
    // soundness empirically.
    incumbent.publish_lower_bound(lb.period);
  }
  return lb.iterations;
}

/// The cache and coalescing identity of a race: \p problem's canonical
/// instance key extended with every resolved setting that can change the
/// result — the ordered strategy list, the exact and column-generation
/// limits, the pruning policy and the known lower bound. The deadline is
/// left out: a race it cut is never cached, and coalescing widens a
/// group's deadline to its most permissive member's. simulate_periods and
/// trace are engine-wide, so one cache never sees two values of them.
InstanceKey race_key(const core::MulticastProblem& problem,
                     const PortfolioOptions& race) {
  InstanceKey key = instance_key(problem.graph, problem.source,
                                 problem.targets);
  auto fold = [&key](auto word) {
    key = extend_key(key, static_cast<std::uint64_t>(word));
  };
  fold(race.strategies.size());
  for (StrategyId s : race.strategies) fold(s);
  fold(race.budget.exact_max_nodes);
  fold(race.budget.exact_max_trees);
  fold(race.budget.colgen_max_nodes);
  fold(race.pruning);
  fold(std::bit_cast<std::uint64_t>(race.known_lower_bound));
  return key;
}

/// Pick winner/ok/period out of completed outcome slots and aggregate the
/// per-outcome pruning counters.
PortfolioResult assemble_result(std::vector<StrategyOutcome> outcomes) {
  PortfolioResult result;
  result.outcomes = std::move(outcomes);
  for (const StrategyOutcome& c : result.outcomes) {
    if (c.state == OutcomeState::Certified) {
      // A later candidate must improve by more than the tie tolerance to
      // displace the incumbent winner: exact ties AND sub-tolerance dust
      // stay on the earlier (cheaper) strategy, which makes the winner
      // independent of completion order, thread count, and whether a
      // pruning cut stopped a candidate that could only tie.
      if (c.period < result.period * (1.0 - kWinnerTieTol)) {
        result.period = c.period;
        result.winner = c.strategy;
        result.ok = true;
      }
    } else if (c.skip_reason == SkipReason::Dominated) {
      ++result.pruning.strategies_pruned;
    } else if (c.skip_reason == SkipReason::EarlyWin) {
      ++result.pruning.early_win_cancels;
    }
    result.pruning.probes_skipped += c.prune.probes_skipped;
  }
  return result;
}

}  // namespace

namespace detail {

/// One coalesced group: the leader's problem raced by the portfolio,
/// followers served the leader's result. Strategy tasks write their outcome slot
/// lock-free; the task that decrements `stage_remaining` to zero owns the
/// stage transition (acq_rel ordering makes every slot visible to it):
/// it re-publishes the stage's certified bounds, freezes the incumbent
/// snapshot and submits the next stage — or assembles and delivers when
/// the last stage is done.
struct EngineGroup {
  std::size_t leader = 0;
  core::MulticastProblem problem;  // moved out of the leader's request
  InstanceKey key;
  std::vector<std::size_t> followers;
  PortfolioOptions options;        // the leader's resolved race
  BudgetGuard guard;
  std::vector<StrategyOutcome> outcomes;
  int priority = 0;

  // --- cooperative pruning state (see runtime/incumbent.hpp) ---
  Incumbent incumbent;
  std::vector<std::vector<std::size_t>> stages;  ///< slot indices per stage
  std::size_t next_stage = 0;       ///< only touched by the stage owner
  std::atomic<std::size_t> stage_remaining{0};
  std::vector<StrategyEnv> envs;    ///< per slot, refreshed per stage
  bool lb_probe_pending = false;    ///< stage 0 carries the LB probe task
  long long lb_probe_iterations = 0;

  /// Race-wide tracer; allocated only when the group's options ask for a
  /// nonzero detail, so a disabled trace adds no heap traffic. Groups are
  /// held by unique_ptr, so the address is stable for the tasks.
  std::unique_ptr<Tracer> tracer;
};

struct EngineBatchState {
  BatchCallback on_result;
  Clock::time_point start;
  std::vector<std::unique_ptr<EngineGroup>> groups;
  ResultCache* cache = nullptr;
  /// Engine-wide cumulative trace (both owned by the engine, which
  /// outlives every task of this batch).
  SolveTrace* engine_trace = nullptr;
  std::mutex* engine_trace_mutex = nullptr;

  /// Hand a group's result to the callback: leader first, then followers
  /// (the same result, flagged coalesced) — the order the engine doc
  /// promises.
  void deliver(const EngineGroup& group, PortfolioResult& result) {
    on_result(group.leader, result);
    if (group.followers.empty()) return;
    result.coalesced = true;
    for (std::size_t f : group.followers) on_result(f, result);
  }

  void finish_group(EngineGroup& group) {
    PortfolioResult result = assemble_result(std::move(group.outcomes));
    result.pruning.lb_probe_iterations = group.lb_probe_iterations;
    result.pruning.proven_lower_bound = group.incumbent.proven_lb();
    if (group.tracer != nullptr) {
      result.trace = group.tracer->summary();
      if (engine_trace != nullptr) {
        std::lock_guard<std::mutex> lock(*engine_trace_mutex);
        merge_counters(*engine_trace, result.trace);
      }
    }
    result.elapsed_ms = ms_since(start);
    // A race its deadline or a token may have cut (an outcome stopped
    // early, or column generation's anytime combination) is not the race
    // a later request would run: never cache it.
    if (cache != nullptr && !group.guard.expired()) {
      cache->put(group.key, result);
    }
    deliver(group, result);
  }

  /// An unreachable target fails every strategy before it starts: deliver
  /// at once, uncached.
  void finish_infeasible(EngineGroup& group) {
    for (std::size_t s = 0; s < group.outcomes.size(); ++s) {
      StrategyOutcome& out = group.outcomes[s];
      out.strategy = group.options.strategies[s];
      out.state = OutcomeState::Failed;
      out.detail = "infeasible instance: unreachable target";
    }
    PortfolioResult result = assemble_result(std::move(group.outcomes));
    result.elapsed_ms = ms_since(start);
    deliver(group, result);
  }
};

}  // namespace detail

using detail::EngineBatchState;
using detail::EngineGroup;

PortfolioEngine::PortfolioEngine(ServiceOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity),
      pool_(options_.threads) {}

void PortfolioEngine::submit_batch(std::vector<SolveRequest> requests,
                                   CancellationToken cancel,
                                   BatchCallback on_result) {
  auto state = std::make_shared<EngineBatchState>();
  state->on_result = std::move(on_result);
  state->start = Clock::now();
  state->cache = &cache_;
  state->engine_trace = &trace_;
  state->engine_trace_mutex = &trace_mutex_;

  // Steps 1+2: cache probe (hits delivered immediately, in batch order),
  // then coalesce the remaining misses by race key. Leaders keep batch
  // order, which makes coalescing deterministic.
  std::unordered_map<InstanceKey, EngineGroup*> group_of_key;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    SolveRequest& request = requests[i];
    PortfolioOptions race = resolve_race(options_, request);
    const InstanceKey key = race_key(request.problem, race);
    if (auto hit = cache_.get(key)) {
      state->on_result(i, *hit);
      continue;
    }
    auto it = group_of_key.find(key);
    if (it != group_of_key.end()) {
      EngineGroup& group = *it->second;
      group.followers.push_back(i);
      // The group inherits its most urgent member's priority and its most
      // permissive member's deadline, not just the leader's: a
      // high-priority duplicate must not queue behind lower-priority
      // groups, and a follower that asked for a later deadline — or
      // explicitly for none (SolveRequest::kNoDeadline) — must not be
      // starved by a deadline-bound leader.
      group.priority = std::max(group.priority, request.priority);
      const Clock::time_point deadline =
          race.budget.deadline_from(state->start);
      if (deadline > group.guard.deadline) {
        group.guard.deadline = deadline;
        group.options.budget.deadline_ms = race.budget.deadline_ms;
      }
      continue;
    }
    auto group = std::make_unique<EngineGroup>();
    group->leader = i;
    group->problem = std::move(request.problem);
    group->key = key;
    group->options = std::move(race);
    group->guard =
        BudgetGuard{group->options.budget.deadline_from(state->start),
                    request.cancel, cancel};
    const std::size_t slots = group->options.strategies.size();
    group->outcomes.resize(slots);
    group->envs.resize(slots);
    group->priority = request.priority;
    if (group->options.trace != TraceDetail::Off) {
      group->tracer = std::make_unique<Tracer>(group->options.trace, slots);
    }

    // Stage plan: Deterministic races stage by stage behind barriers; Off
    // keeps the flat fan-out.
    group->stages =
        plan_stages(group->options.strategies, group->options.pruning);
    if (group->options.pruning != PruningPolicy::Off) {
      group->lb_probe_pending = true;
      if (group->options.known_lower_bound > 0.0) {
        group->incumbent.publish_lower_bound(group->options.known_lower_bound);
      }
    }
    group_of_key.emplace(key, group.get());
    state->groups.push_back(std::move(group));
  }

  // Step 3: fan each group's first stage onto the pool, highest priority
  // first (stable on batch order for ties). The pool serves submissions
  // roughly in order, so priority maps to dispatch order; later stages are
  // submitted by each group's stage owner as the race progresses.
  std::vector<EngineGroup*> dispatch;
  dispatch.reserve(state->groups.size());
  for (auto& group : state->groups) dispatch.push_back(group.get());
  std::stable_sort(dispatch.begin(), dispatch.end(),
                   [](const EngineGroup* a, const EngineGroup* b) {
                     return a->priority > b->priority;
                   });
  for (EngineGroup* group : dispatch) {
    if (group->problem.feasible()) {
      dispatch_stage(state, group);
    } else {
      state->finish_infeasible(*group);
    }
  }
}

void PortfolioEngine::dispatch_stage(
    std::shared_ptr<detail::EngineBatchState> state,
    detail::EngineGroup* group) {
  const std::vector<std::size_t>& stage = group->stages[group->next_stage];
  const IncumbentSnapshot view = group->incumbent.freeze();
  Tracer* tracer = group->tracer.get();
  for (std::size_t s : stage) {
    StrategyEnv& env = group->envs[s];
    env.shared = group->options.pruning != PruningPolicy::Off
                     ? &group->incumbent
                     : nullptr;
    env.view = view;
    env.launch_index = static_cast<int>(s);
    env.tracer = tracer;
  }
  const bool with_lb_probe = group->lb_probe_pending;
  group->lb_probe_pending = false;
  group->stage_remaining.store(stage.size() + (with_lb_probe ? 1 : 0),
                               std::memory_order_relaxed);
  // Each task keeps the batch state alive; with 0 workers submit() runs
  // the task inline, so small engines stay deterministic. The LB probe
  // rides along with the first stage, ahead of its strategies, so its
  // bound is in every later snapshot.
  if (with_lb_probe) {
    pool_.submit([this, state, group] {
      group->lb_probe_iterations += run_lb_probe(
          group->problem, group->guard, group->incumbent,
          group->tracer.get());
      complete_stage_task(state, group);
    });
  }
  for (std::size_t s : stage) {
    pool_.submit([this, state, group, s] {
      group->outcomes[s] = run_strategy(group->problem,
                                        group->options.strategies[s],
                                        group->options, group->guard,
                                        &group->envs[s]);
      complete_stage_task(state, group);
    });
  }
}

void PortfolioEngine::complete_stage_task(
    const std::shared_ptr<detail::EngineBatchState>& state,
    detail::EngineGroup* group) {
  if (group->stage_remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    return;
  }
  // Stage owner: everything in the stage (and every earlier stage) is
  // visible. Re-publish certified bounds behind the barrier so a
  // certification that raced the LB probe gets its early-win signal
  // honoured (monotone, hence idempotent).
  if (group->options.pruning == PruningPolicy::Deterministic) {
    for (std::size_t s : group->stages[group->next_stage]) {
      if (group->outcomes[s].state == OutcomeState::Certified) {
        group->incumbent.publish_certified(group->outcomes[s].period,
                                           static_cast<int>(s));
      }
    }
  }
  ++group->next_stage;
  if (group->next_stage < group->stages.size()) {
    dispatch_stage(state, group);
    return;
  }
  state->finish_group(*group);
}

SolveTrace PortfolioEngine::aggregate_trace() const {
  std::lock_guard<std::mutex> lock(trace_mutex_);
  return trace_;
}

PortfolioResult PortfolioEngine::solve(SolveRequest request) {
  std::vector<SolveRequest> batch;
  batch.push_back(std::move(request));
  return std::move(solve_batch(std::move(batch)).front());
}

std::vector<PortfolioResult> PortfolioEngine::solve_batch(
    std::vector<SolveRequest> requests) {
  // Shared with the callback, which the batch state (and so the last
  // running task) owns: the collector outlives any count_down() still in
  // flight when wait() returns.
  struct Collector {
    explicit Collector(std::size_t n)
        : results(n), done(static_cast<std::ptrdiff_t>(n)) {}
    std::vector<PortfolioResult> results;
    std::latch done;
  };
  auto collector = std::make_shared<Collector>(requests.size());
  submit_batch(std::move(requests), CancellationToken(),
               [collector](std::size_t index, const PortfolioResult& result) {
                 collector->results[index] = result;
                 collector->done.count_down();
               });
  collector->done.wait();
  return std::move(collector->results);
}

}  // namespace pmcast::runtime

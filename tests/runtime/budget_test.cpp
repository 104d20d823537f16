/// Budget semantics. resolve_race() is the one reader of SolveRequest's
/// inherit sentinels: the deadline is three-valued — 0 inherits the
/// service default, positive overrides it, and kNoDeadline (negative)
/// explicitly clears it — and every other unset field defers to
/// ServiceOptions. A resolved SolveBudget carries no sentinels.

#include "runtime/budget.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "graph/io.hpp"
#include "graph/rng.hpp"
#include "runtime/runtime.hpp"
#include "test_requests.hpp"
#include "topology/tiers.hpp"

#ifndef PMCAST_TEST_DATA_DIR
#error "PMCAST_TEST_DATA_DIR must point at tests/data (set by CMake)"
#endif

namespace pmcast::runtime {
namespace {

ServiceOptions service_with_deadline(double ms) {
  ServiceOptions service;
  service.default_deadline_ms = ms;
  return service;
}

TEST(ResolveRace, InheritDefersEveryField) {
  ServiceOptions service = service_with_deadline(250.0);
  service.exact_max_nodes = 7;
  service.exact_max_trees = 1234;
  service.colgen_max_nodes = 40;
  service.strategies = {StrategyId::Kmb, StrategyId::Mcph};
  service.pruning = PruningPolicy::Off;
  const PortfolioOptions race = resolve_race(service, SolveRequest{});
  EXPECT_EQ(race.budget.deadline_ms, 250.0);
  EXPECT_EQ(race.budget.exact_max_nodes, 7);
  EXPECT_EQ(race.budget.exact_max_trees, 1234u);
  EXPECT_EQ(race.budget.colgen_max_nodes, 40);
  EXPECT_EQ(race.strategies, service.strategies);
  EXPECT_EQ(race.pruning, PruningPolicy::Off);

  // An empty service allowlist resolves to every strategy, in order.
  EXPECT_EQ(resolve_race(ServiceOptions{}, SolveRequest{}).strategies,
            all_strategy_ids());
}

TEST(ResolveRace, RequestFieldsOverrideTheService) {
  ServiceOptions service = service_with_deadline(250.0);
  service.strategies = {StrategyId::Kmb};
  SolveRequest request;
  request.limits.exact_max_nodes = 0;
  request.limits.exact_max_trees = 10;
  request.limits.colgen_max_nodes = 0;
  request.strategies = {StrategyId::Exact, StrategyId::Mcph};
  request.pruning = PruningPolicy::Off;
  request.known_lower_bound = 2.5;
  const PortfolioOptions race = resolve_race(service, request);
  EXPECT_EQ(race.budget.exact_max_nodes, 0);
  EXPECT_EQ(race.budget.exact_max_trees, 10u);
  EXPECT_EQ(race.budget.colgen_max_nodes, 0);
  EXPECT_EQ(race.strategies, request.strategies);
  EXPECT_EQ(race.pruning, PruningPolicy::Off);
  EXPECT_EQ(race.known_lower_bound, 2.5);
}

TEST(ResolveRace, PositiveDeadlineOverridesTheDefault) {
  SolveRequest request;
  request.deadline_ms = 10.0;
  const PortfolioOptions race =
      resolve_race(service_with_deadline(250.0), request);
  EXPECT_EQ(race.budget.deadline_ms, 10.0);
}

TEST(ResolveRace, NoDeadlineSentinelClearsTheDefault) {
  SolveRequest request;
  request.deadline_ms = SolveRequest::kNoDeadline;
  const PortfolioOptions race =
      resolve_race(service_with_deadline(250.0), request);
  EXPECT_EQ(race.budget.deadline_ms, 0.0);
  // The resolved budget never expires.
  EXPECT_EQ(race.budget.deadline_from(Clock::now()),
            Clock::time_point::max());
}

TEST(SolveBudget, ZeroStillMeansUnlimitedOnAnEngineBudget) {
  SolveBudget base;  // deadline_ms == 0
  EXPECT_EQ(base.deadline_from(Clock::now()), Clock::time_point::max());
}

TEST(SolveBudget, PositiveDeadlineAnchorsOnStart) {
  SolveBudget budget;
  budget.deadline_ms = 5.0;
  Clock::time_point start = Clock::now();
  Clock::time_point deadline = budget.deadline_from(start);
  EXPECT_GT(deadline, start);
  EXPECT_LT(deadline, start + std::chrono::seconds(1));
}

TEST(SolveBudget, NoDeadlineRequestSurvivesAStarvingEngineDefault) {
  // Engine-wide default so tight every inheriting request is starved; the
  // explicit opt-out must still solve.
  ServiceOptions options = service_with_deadline(1e-6);
  options.threads = 0;

  Digraph g(3);
  g.add_bidirectional(0, 1, 1.0);
  g.add_bidirectional(1, 2, 1.0);
  core::MulticastProblem problem(g, 0, {2});

  PortfolioEngine engine(options);
  PortfolioResult starved = engine.solve(request_for(problem));
  EXPECT_FALSE(starved.ok);

  SolveRequest unlimited = request_for(problem);
  unlimited.deadline_ms = SolveRequest::kNoDeadline;
  PortfolioResult solved = engine.solve(std::move(unlimited));
  EXPECT_TRUE(solved.ok);
}

TEST(SolveBudget, CoalescedFollowerWithNoDeadlineWidensTheGroupDeadline) {
  // Two identical problems coalesce into one group. The leader carries an
  // already-expired deadline; the follower explicitly opts out of any
  // deadline — kNoDeadline's contract must hold even through coalescing,
  // so the group runs under its most permissive member's deadline and
  // both members certify.
  ServiceOptions options;
  options.threads = 0;
  options.cache_capacity = 0;  // keep both requests in one live group

  Digraph g(3);
  g.add_bidirectional(0, 1, 1.0);
  g.add_bidirectional(1, 2, 1.0);
  core::MulticastProblem problem(g, 0, {2});
  std::vector<SolveRequest> requests = requests_for({problem, problem});
  requests[0].deadline_ms = 1e-6;  // expired at batch entry
  requests[1].deadline_ms = SolveRequest::kNoDeadline;

  PortfolioEngine engine(options);
  auto results = engine.solve_batch(std::move(requests));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[1].ok) << "kNoDeadline follower was starved";
  EXPECT_TRUE(results[1].coalesced);
  // Most-permissive semantics: the shared solve also serves the leader.
  EXPECT_TRUE(results[0].ok);
}

TEST(DeadlineGranularity, MidLpDeadlineReturnsWithinCheckpointInterval) {
  // Regression for the pre-checkpoint behaviour where a deadline that
  // expired mid-LP only took effect at the next *strategy* boundary: on
  // this platform the blind portfolio spends >1 s inside the LP
  // refinement heuristics, so strategy-boundary enforcement would blow
  // far past the deadline. With the simplex checkpoint wired to the
  // BudgetGuard the solve must come back within checkpoint granularity
  // (observed overshoot: <1 ms; the bound below is CI-slack, still ~4x
  // under the blind runtime).
  topo::TiersParams params;
  params.wan_nodes = 4;
  params.mans = 2;
  params.man_nodes = 3;
  params.lans = 3;
  params.lan_nodes = 12;
  topo::Platform platform = topo::generate_tiers(params, 5);
  Rng rng(5 + 17);
  auto targets = topo::sample_targets(platform, 0.5, rng);
  core::MulticastProblem problem(platform.graph, platform.source, targets);

  ServiceOptions options = service_with_deadline(25.0);
  options.threads = 0;  // inline, in launch order
  options.cache_capacity = 0;
  options.pruning = PruningPolicy::Off;  // isolate deadlines
  PortfolioEngine engine(options);
  auto start = Clock::now();
  PortfolioResult result = engine.solve(request_for(problem));
  double elapsed_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count();
  // Generous bound: the blind run takes >1 s in Release and an order of
  // magnitude more under the sanitizer lanes, while the deadline-bounded
  // run returns in ~26 ms Release / a few hundred ms under TSan.
  EXPECT_LT(elapsed_ms, 1500.0)
      << "deadline was not enforced inside the LP solves";

  // The deadline fired *inside* running work, not just between
  // strategies: at least one candidate must report the mid-solve skip.
  int deadline_skips = 0;
  bool mid_solve = false;
  for (const StrategyOutcome& c : result.outcomes) {
    if (c.skip_reason == SkipReason::DeadlineExpired) {
      ++deadline_skips;
      if (c.detail.find("mid-") != std::string::npos) mid_solve = true;
      EXPECT_NE(c.state, OutcomeState::Failed);
    }
  }
  EXPECT_GE(deadline_skips, 1);
  EXPECT_TRUE(mid_solve)
      << "expected at least one strategy stopped mid-solve/mid-heuristic";
  // The cheap tree tier still certifies within 25 ms.
  EXPECT_TRUE(result.ok);
}

TEST(BudgetGuard, SplitsDeadlineFromCancellation) {
  BudgetGuard guard;
  EXPECT_FALSE(guard.expired());
  EXPECT_FALSE(guard.deadline_passed());
  EXPECT_FALSE(guard.cancelled());

  guard.deadline = Clock::now() - std::chrono::milliseconds(1);
  EXPECT_TRUE(guard.deadline_passed());
  EXPECT_FALSE(guard.cancelled());
  EXPECT_TRUE(guard.expired());

  BudgetGuard cancelled;
  cancelled.cancel.request_stop();
  EXPECT_TRUE(cancelled.cancelled());
  EXPECT_FALSE(cancelled.deadline_passed());
  EXPECT_TRUE(cancelled.expired());
}

TEST(BudgetGuard, AugmentedSourcesCutMidHeuristicIsSkippedNeverCertified) {
  // Deadlines spread over the strategy's run land in value probes, in the
  // per-commodity re-solve of an accepted promotion and between probes.
  // Every cut run reports Skipped "deadline expired mid-heuristic"; a run
  // the deadline does not reach certifies the uninterrupted period.
  int mid_heuristic = 0;
  for (const char* file : {"tiers-n8-d50u-s1.platform",
                           "star-n9-d50h-s10.platform",
                           "fat_tree-n8-d50u-s1.platform"}) {
    auto platform =
        load_platform(std::string(PMCAST_TEST_DATA_DIR) + "/" + file);
    ASSERT_TRUE(platform.ok()) << file;
    core::MulticastProblem problem(platform->graph, platform->source,
                                   platform->targets);
    const PortfolioOptions options;
    const Clock::time_point start = Clock::now();
    const StrategyOutcome full = run_strategy(
        problem, StrategyId::AugmentedSources, options, BudgetGuard{});
    const std::chrono::duration<double, std::milli> full_ms =
        Clock::now() - start;
    ASSERT_EQ(full.state, OutcomeState::Certified) << file;

    for (int step = 1; step < 20; ++step) {
      BudgetGuard guard;
      guard.deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             full_ms * (step / 20.0));
      const StrategyOutcome out = run_strategy(
          problem, StrategyId::AugmentedSources, options, guard);
      const std::string ctx =
          std::string(file) + " deadline at " + std::to_string(step) + "/20";
      if (out.state == OutcomeState::Certified) {
        EXPECT_EQ(out.period, full.period) << ctx;
        continue;
      }
      ASSERT_EQ(out.state, OutcomeState::Skipped)
          << ctx << ": " << out.detail;
      EXPECT_EQ(out.skip_reason, SkipReason::DeadlineExpired) << ctx;
      if (out.detail == "budget exhausted before start") continue;
      EXPECT_EQ(out.detail, "deadline expired mid-heuristic") << ctx;
      ++mid_heuristic;
    }
  }
  EXPECT_GT(mid_heuristic, 0);
}

}  // namespace
}  // namespace pmcast::runtime

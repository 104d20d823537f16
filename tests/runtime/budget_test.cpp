/// SolveBudget sentinel semantics. The deadline field is three-valued on a
/// request budget: 0 inherits the engine default, positive overrides it,
/// and kNoDeadline (negative) explicitly clears it — the opt-out that the
/// old two-valued encoding (where 0 meant both "inherit" and "unlimited")
/// could not express through resolve().

#include "runtime/budget.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "graph/io.hpp"
#include "graph/rng.hpp"
#include "runtime/runtime.hpp"
#include "topology/tiers.hpp"

#ifndef PMCAST_TEST_DATA_DIR
#error "PMCAST_TEST_DATA_DIR must point at tests/data (set by CMake)"
#endif

namespace pmcast::runtime {
namespace {

SolveBudget engine_default_with_deadline(double ms) {
  SolveBudget base;  // engine defaults: unlimited wall clock, bounded exact
  base.deadline_ms = ms;
  return base;
}

TEST(SolveBudget, InheritDefersEveryField) {
  SolveBudget base = engine_default_with_deadline(250.0);
  base.exact_max_nodes = 7;
  base.exact_max_trees = 1234;
  SolveBudget merged = SolveBudget::inherit().resolve(base);
  EXPECT_EQ(merged.deadline_ms, 250.0);
  EXPECT_EQ(merged.exact_max_nodes, 7);
  EXPECT_EQ(merged.exact_max_trees, 1234u);
}

TEST(SolveBudget, PositiveDeadlineOverridesTheDefault) {
  SolveBudget request = SolveBudget::inherit();
  request.deadline_ms = 10.0;
  SolveBudget merged = request.resolve(engine_default_with_deadline(250.0));
  EXPECT_EQ(merged.deadline_ms, 10.0);
}

TEST(SolveBudget, NoDeadlineSentinelClearsTheDefault) {
  SolveBudget request = SolveBudget::inherit();
  request.deadline_ms = SolveBudget::kNoDeadline;
  SolveBudget merged = request.resolve(engine_default_with_deadline(250.0));
  EXPECT_LT(merged.deadline_ms, 0.0);
  // The merged budget never expires.
  EXPECT_EQ(merged.deadline_from(Clock::now()), Clock::time_point::max());
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
  EngineOptions options;
  options.threads = 0;
  options.portfolio.budget.deadline_ms = 1e-6;

  Digraph g(3);
  g.add_bidirectional(0, 1, 1.0);
  g.add_bidirectional(1, 2, 1.0);
  core::MulticastProblem problem(g, 0, {2});

  PortfolioEngine engine(options);
  PortfolioResult starved = engine.solve(problem);
  EXPECT_FALSE(starved.ok);

  RequestOptions unlimited;
  unlimited.budget.deadline_ms = SolveBudget::kNoDeadline;
  PortfolioResult solved = engine.solve(problem, unlimited);
  EXPECT_TRUE(solved.ok);
}

TEST(SolveBudget, CoalescedFollowerWithNoDeadlineWidensTheGroupDeadline) {
  // Two identical problems coalesce into one group. The leader carries an
  // already-expired deadline; the follower explicitly opts out of any
  // deadline — kNoDeadline's contract must hold even through coalescing,
  // so the group runs under its most permissive member's deadline and
  // both members certify.
  EngineOptions options;
  options.threads = 0;
  options.cache_capacity = 0;  // keep both requests in one live group

  Digraph g(3);
  g.add_bidirectional(0, 1, 1.0);
  g.add_bidirectional(1, 2, 1.0);
  core::MulticastProblem problem(g, 0, {2});
  std::vector<core::MulticastProblem> batch{problem, problem};

  std::vector<RequestOptions> requests(2);
  requests[0].budget.deadline_ms = 1e-6;  // expired at batch entry
  requests[1].budget.deadline_ms = SolveBudget::kNoDeadline;

  PortfolioEngine engine(options);
  auto results = engine.solve_batch(batch, requests);
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

  EngineOptions options;
  options.threads = 0;  // inline, in launch order
  options.cache_capacity = 0;
  options.portfolio.pruning = PruningPolicy::Off;  // isolate deadlines
  options.portfolio.budget.deadline_ms = 25.0;
  PortfolioEngine engine(options);
  auto start = Clock::now();
  PortfolioResult result = engine.solve(problem);
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
  for (const CandidateOutcome& c : result.candidates) {
    if (c.skip_reason == SkipReason::DeadlineExpired) {
      ++deadline_skips;
      if (c.detail.find("mid-") != std::string::npos) mid_solve = true;
      EXPECT_NE(c.state, CandidateState::Failed);
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
    const CandidateOutcome full = run_strategy(
        problem, StrategyId::AugmentedSources, options, BudgetGuard{});
    const std::chrono::duration<double, std::milli> full_ms =
        Clock::now() - start;
    ASSERT_EQ(full.state, CandidateState::Certified) << file;

    for (int step = 1; step < 20; ++step) {
      BudgetGuard guard;
      guard.deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             full_ms * (step / 20.0));
      const CandidateOutcome out = run_strategy(
          problem, StrategyId::AugmentedSources, options, guard);
      const std::string ctx =
          std::string(file) + " deadline at " + std::to_string(step) + "/20";
      if (out.state == CandidateState::Certified) {
        EXPECT_EQ(out.period, full.period) << ctx;
        continue;
      }
      ASSERT_EQ(out.state, CandidateState::Skipped)
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

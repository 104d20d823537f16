/// Portfolio-level properties: every winning period is certificate-backed,
/// never worse than any individual certified strategy and sandwiched by the
/// LP bounds; budgets, infeasible instances and strategy subsets behave.
/// (Thread-count bit-identity is Engine.ThreadCountsOneTwoEightAgree.)

#include "runtime/portfolio.hpp"

#include <gtest/gtest.h>

#include "graph/rng.hpp"
#include "pmcast/core.hpp"
#include "runtime/engine.hpp"
#include "test_requests.hpp"

namespace pmcast::runtime {
namespace {

using core::MulticastProblem;

constexpr double kTol = 1e-5;

MulticastProblem random_problem(std::uint64_t seed) {
  Rng rng(seed * 2654435761ULL + 17);
  while (true) {
    int n = static_cast<int>(rng.uniform_int(5, 7));
    Digraph g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) {
        if (u != v && rng.bernoulli(0.45)) {
          g.add_edge(u, v, rng.uniform_real(0.5, 3.0));
        }
      }
    }
    std::vector<NodeId> targets;
    for (int v = 1; v < n; ++v) {
      if (rng.bernoulli(0.55)) targets.push_back(v);
    }
    if (targets.empty()) targets.push_back(n - 1);
    MulticastProblem p(g, 0, targets);
    if (p.feasible()) return p;
  }
}

/// Race \p p under \p request on an inline, uncached engine: every
/// strategy runs on this thread, in launch order.
PortfolioResult race(const MulticastProblem& p, SolveRequest request = {}) {
  ServiceOptions options;
  options.threads = 0;
  options.cache_capacity = 0;
  request.problem = p;
  return PortfolioEngine(std::move(options)).solve(std::move(request));
}

class PortfolioProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PortfolioProperty, WinnerCertifiedAndDominant) {
  MulticastProblem p = random_problem(GetParam());
  PortfolioResult r = race(p);
  ASSERT_TRUE(r.ok) << "no strategy certified, seed " << GetParam();
  EXPECT_LT(r.period, kInfinity);

  // Never worse than any individual certified strategy (the acceptance
  // criterion): the winner *is* the min over them, check it explicitly.
  bool winner_seen = false;
  for (const StrategyOutcome& c : r.outcomes) {
    if (c.state != OutcomeState::Certified) continue;
    EXPECT_LE(r.period, c.period + kTol)
        << strategy_id_name(c.strategy) << " beats the winner, seed "
        << GetParam();
    if (c.strategy == r.winner) {
      winner_seen = true;
      EXPECT_DOUBLE_EQ(c.period, r.period);
    }
  }
  EXPECT_TRUE(winner_seen);

  // Sandwiched by the LP bounds: no certified period may beat the LB, and
  // the winner must be at least as good as the always-certifiable scatter.
  core::FlowSolution lb = core::solve_multicast_lb(p);
  core::FlowSolution ub = core::solve_multicast_ub(p);
  ASSERT_TRUE(lb.ok() && ub.ok());
  for (const StrategyOutcome& c : r.outcomes) {
    if (c.state == OutcomeState::Certified) {
      EXPECT_GE(c.period, lb.period - kTol)
          << strategy_id_name(c.strategy) << " beats the LP lower bound, seed "
          << GetParam();
    }
  }
  EXPECT_LE(r.period, ub.period + kTol);
}

TEST_P(PortfolioProperty, NeverBeatsExactOptimum) {
  MulticastProblem p = random_problem(GetParam());
  core::ExactSolution exact = core::exact_optimal_throughput(p);
  ASSERT_TRUE(exact.ok);
  PortfolioResult r = race(p);
  ASSERT_TRUE(r.ok);
  // The exact strategy itself realises the optimum up to rationalisation
  // error, so allow that slack below the LP optimum.
  double opt_period = 1.0 / exact.throughput;
  EXPECT_GE(r.period, opt_period - 0.02 * opt_period - kTol);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PortfolioProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(Portfolio, PreCancelledTokenSkipsAllStrategies) {
  MulticastProblem p = random_problem(1);
  SolveRequest request;
  request.cancel.request_stop();
  PortfolioResult r = race(p, request);
  EXPECT_FALSE(r.ok);
  for (const StrategyOutcome& c : r.outcomes) {
    EXPECT_EQ(c.state, OutcomeState::Skipped);
  }
}

TEST(Portfolio, ExpiredDeadlineSkipsAllStrategies) {
  MulticastProblem p = random_problem(2);
  SolveRequest request;
  request.deadline_ms = 1e-6;  // expires before any strategy starts
  PortfolioResult r = race(p, request);
  EXPECT_FALSE(r.ok);
  for (const StrategyOutcome& c : r.outcomes) {
    EXPECT_EQ(c.state, OutcomeState::Skipped);
  }
}

TEST(Portfolio, InfeasibleInstanceFailsCleanly) {
  Digraph g(3);
  g.add_edge(0, 1, 1.0);  // node 2 unreachable
  MulticastProblem p(g, 0, {1, 2});
  PortfolioResult r = race(p);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.outcomes.size(), all_strategy_ids().size());
  for (const StrategyOutcome& c : r.outcomes) {
    EXPECT_EQ(c.state, OutcomeState::Failed);
    EXPECT_NE(c.detail.find("infeasible"), std::string::npos);
  }

  // Delivered without racing, to the coalesced duplicate too, and never
  // cached: a retry solves again.
  ServiceOptions cached;
  cached.threads = 2;
  PortfolioEngine engine(cached);
  std::vector<PortfolioResult> results = engine.solve_batch(requests_for({p, p}));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_TRUE(results[1].coalesced);
  EXPECT_EQ(results[1].outcomes.size(), r.outcomes.size());
  EXPECT_EQ(engine.cache_metrics().entries, 0u);
  EXPECT_FALSE(engine.solve(request_for(p)).from_cache);
}

TEST(Portfolio, StrategySubsetRuns) {
  MulticastProblem p = random_problem(4);
  SolveRequest request;
  request.strategies = {StrategyId::Mcph, StrategyId::MulticastUb};
  PortfolioResult r = race(p, request);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.outcomes.size(), 2u);
}

TEST(Portfolio, ExactSkippedAboveNodeLimit) {
  MulticastProblem p = random_problem(5);
  SolveRequest request;
  request.strategies = {StrategyId::Exact};
  request.limits.exact_max_nodes = p.graph.node_count() - 1;
  PortfolioResult r = race(p, request);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.outcomes.size(), 1u);
  EXPECT_EQ(r.outcomes[0].state, OutcomeState::Skipped);
}

}  // namespace
}  // namespace pmcast::runtime

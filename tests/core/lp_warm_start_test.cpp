/// Warm-start differential suite: on the full golden corpus
/// (tests/data/), each of the three LP refinement heuristics must return
/// the same result warm-started as cold-solved — same ok flag, same final
/// platform/source set, objectives within tolerance — and the engine must
/// stay deterministic across 1/2/8 threads with the warm path active.
/// The masked Broadcast-EB substrate gets its own differential sweep
/// (including disconnecting masks, the fallback-free +inf path).

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/lp_heuristics.hpp"
#include "graph/io.hpp"
#include "runtime/runtime.hpp"

#ifndef PMCAST_TEST_DATA_DIR
#error "PMCAST_TEST_DATA_DIR must point at tests/data (set by CMake)"
#endif

namespace pmcast {
namespace {

const char* kCorpus[] = {
    "fat_tree-n8-d30h-deg25-s9.platform", "fat_tree-n9-d50l-s2.platform",
    "geometric-n8-d50u-s7.platform",      "grid-n9-d30h-s4.platform",
    "grid-n9-d50l-torus-s5.platform",     "power_law-n8-d80u-s3.platform",
    "star-n8-d80l-s6.platform",           "star-n9-d50h-s10.platform",
    "tiers-n8-d50u-s1.platform",          "tiers-n9-d80l-deg20-s8.platform",
};

core::MulticastProblem load_problem(const std::string& file) {
  auto platform =
      load_platform(std::string(PMCAST_TEST_DATA_DIR) + "/" + file);
  EXPECT_TRUE(platform.ok()) << file << ": " << platform.status().to_string();
  return core::MulticastProblem(platform->graph, platform->source,
                                platform->targets);
}

core::HeuristicOptions with_warm(bool warm) {
  core::HeuristicOptions options;
  options.warm_start = warm;
  return options;
}

constexpr double kPeriodTol = 1e-6;  // relative

void expect_periods_match(double warm, double cold, const std::string& ctx) {
  if (cold == kInfinity) {
    EXPECT_EQ(warm, kInfinity) << ctx;
    return;
  }
  EXPECT_NEAR(warm, cold, kPeriodTol * (1.0 + std::abs(cold))) << ctx;
}

TEST(WarmStartDifferential, ReducedBroadcastMatchesColdOnTheCorpus) {
  for (const char* file : kCorpus) {
    core::MulticastProblem problem = load_problem(file);
    auto cold = core::reduced_broadcast(problem, with_warm(false));
    auto warm = core::reduced_broadcast(problem, with_warm(true));
    EXPECT_EQ(warm.ok, cold.ok) << file;
    expect_periods_match(warm.period, cold.period, file);
    EXPECT_EQ(warm.platform, cold.platform)
        << file << ": warm start changed the greedy trajectory";
    EXPECT_EQ(cold.lp_stats.warm_starts, 0) << file;
    EXPECT_EQ(warm.lp_stats.solves, cold.lp_stats.solves) << file;
  }
}

TEST(WarmStartDifferential, AugmentedMulticastMatchesColdOnTheCorpus) {
  for (const char* file : kCorpus) {
    core::MulticastProblem problem = load_problem(file);
    auto cold = core::augmented_multicast(problem, with_warm(false));
    auto warm = core::augmented_multicast(problem, with_warm(true));
    EXPECT_EQ(warm.ok, cold.ok) << file;
    expect_periods_match(warm.period, cold.period, file);
    EXPECT_EQ(warm.platform, cold.platform)
        << file << ": warm start changed the greedy trajectory";
  }
}

TEST(WarmStartDifferential, AugmentedSourcesMatchesColdOnTheCorpus) {
  for (const char* file : kCorpus) {
    core::MulticastProblem problem = load_problem(file);
    auto cold = core::augmented_sources(problem, with_warm(false));
    auto warm = core::augmented_sources(problem, with_warm(true));
    EXPECT_EQ(warm.ok, cold.ok) << file;
    expect_periods_match(warm.period, cold.period, file);
    EXPECT_EQ(warm.sources, cold.sources)
        << file << ": warm start changed the promotion sequence";
  }
}

TEST(WarmStartDifferential, CorpusSequencesActuallyWarmStart) {
  // The point of the layer: across the whole corpus the warm runs must
  // register warm-started solves and strictly fewer simplex iterations
  // than the cold runs (adaptive guard may run individual instances cold,
  // but never the aggregate).
  long long cold_iters = 0, warm_iters = 0;
  int warm_hits = 0;
  for (const char* file : kCorpus) {
    core::MulticastProblem problem = load_problem(file);
    for (auto* run : {&core::reduced_broadcast, &core::augmented_multicast}) {
      cold_iters += run(problem, with_warm(false)).lp_stats.iterations;
      auto warm = run(problem, with_warm(true));
      warm_iters += warm.lp_stats.iterations;
      warm_hits += warm.lp_stats.warm_starts;
    }
    cold_iters +=
        core::augmented_sources(problem, with_warm(false)).lp_stats.iterations;
    auto as = core::augmented_sources(problem, with_warm(true));
    warm_iters += as.lp_stats.iterations;
    warm_hits += as.lp_stats.warm_starts;
  }
  EXPECT_GT(warm_hits, 0);
  EXPECT_LT(warm_iters, cold_iters)
      << "warm-started corpus used more simplex iterations than cold";
}

TEST(WarmStartDifferential, MaskedBroadcastMatchesSubgraphFormulation) {
  // The masked full-graph program must agree with the original
  // induced-subgraph Broadcast-EB on every single-node-removal mask,
  // including disconnecting masks (+inf short-circuit, no LP solved).
  for (const char* file : {"tiers-n8-d50u-s1.platform",
                           "star-n9-d50h-s10.platform",
                           "grid-n9-d30h-s4.platform"}) {
    core::MulticastProblem problem = load_problem(file);
    const Digraph& g = problem.graph;
    core::MaskedBroadcastEb eb(g, problem.source);
    std::vector<char> keep(static_cast<size_t>(g.node_count()), 1);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (v == problem.source) continue;
      keep[static_cast<size_t>(v)] = 0;
      auto masked = eb.solve(keep);
      auto reference = core::broadcast_eb_period(g, problem.source, keep);
      ASSERT_EQ(masked.has_value(), reference.has_value())
          << file << " node " << v;
      if (reference) {
        EXPECT_NEAR(*masked, *reference,
                    kPeriodTol * (1.0 + std::abs(*reference)))
            << file << " node " << v;
      }
      keep[static_cast<size_t>(v)] = 1;
    }
  }
}

TEST(WarmStartDifferential, EngineDeterministicAcrossThreadCountsWithWarmLp) {
  // The warm-start layer is strategy-local state; racing the LP strategies
  // on 1/2/8 threads must stay bit-identical.
  const std::vector<StrategyId> lp_strategies{
      StrategyId::MulticastUb, StrategyId::AugmentedSources,
      StrategyId::ReducedBroadcast, StrategyId::AugmentedMulticast};
  std::vector<core::MulticastProblem> batch{
      load_problem("tiers-n8-d50u-s1.platform"),
      load_problem("star-n8-d80l-s6.platform"),
  };
  std::vector<runtime::PortfolioResult> expected;
  for (int threads : {1, 2, 8}) {
    runtime::EngineOptions options;
    options.threads = threads;
    options.cache_capacity = 0;  // force real solves on every run
    options.portfolio.strategies = lp_strategies;
    runtime::PortfolioEngine engine(options);
    auto results = engine.solve_batch(batch);
    if (threads == 1) {
      expected = std::move(results);
      for (const auto& r : expected) EXPECT_TRUE(r.ok);
      continue;
    }
    ASSERT_EQ(results.size(), expected.size());
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].ok, expected[i].ok) << threads << "t #" << i;
      EXPECT_EQ(results[i].period, expected[i].period)
          << threads << "t #" << i;
      EXPECT_EQ(results[i].winner, expected[i].winner)
          << threads << "t #" << i;
      ASSERT_EQ(results[i].candidates.size(), expected[i].candidates.size());
      for (size_t c = 0; c < results[i].candidates.size(); ++c) {
        EXPECT_EQ(results[i].candidates[c].lp.solves,
                  expected[i].candidates[c].lp.solves)
            << threads << "t #" << i << " strategy " << c;
        EXPECT_EQ(results[i].candidates[c].lp.iterations,
                  expected[i].candidates[c].lp.iterations)
            << threads << "t #" << i << " strategy " << c;
      }
    }
  }
}

}  // namespace
}  // namespace pmcast

/// Warm-start differential suite: on the full golden corpus
/// (tests/data/), the two platform heuristics must return the same result
/// warm-started as cold-solved — same ok flag, same final platform,
/// objectives within tolerance — and the engine must stay deterministic
/// across 1/2/8 threads with the warm path active. The masked Broadcast-EB
/// substrate gets its own differential sweep (including disconnecting
/// masks, the fallback-free +inf path).
///
/// augmented_sources solves every program cold. Its suite here pins the
/// value-oracle probes to a reference loop that solves every probe with
/// the per-commodity program (same promotions, bit-identical period and
/// flows), and checks that an interruption at any checkpoint poll leaves
/// an accepted prefix, never a half-accepted promotion.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/lp_heuristics.hpp"
#include "graph/io.hpp"
#include "runtime/runtime.hpp"
#include "scenario/generator.hpp"
#include "test_requests.hpp"

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
    ServiceOptions options;
    options.threads = threads;
    options.cache_capacity = 0;  // force real solves on every run
    options.strategies = lp_strategies;
    runtime::PortfolioEngine engine(options);
    auto results = engine.solve_batch(requests_for(batch));
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
      ASSERT_EQ(results[i].outcomes.size(), expected[i].outcomes.size());
      for (size_t c = 0; c < results[i].outcomes.size(); ++c) {
        EXPECT_EQ(results[i].outcomes[c].lp.solves,
                  expected[i].outcomes[c].lp.solves)
            << threads << "t #" << i << " strategy " << c;
        EXPECT_EQ(results[i].outcomes[c].lp.iterations,
                  expected[i].outcomes[c].lp.iterations)
            << threads << "t #" << i << " strategy " << c;
      }
    }
  }
}

// ---------------------------------------------------- augmented_sources --

/// Platform files of the golden corpus (tests/data/golden_manifest.txt).
std::vector<std::string> golden_files() {
  std::ifstream in(std::string(PMCAST_TEST_DATA_DIR) +
                   "/golden_manifest.txt");
  EXPECT_TRUE(in.good()) << "missing tests/data/golden_manifest.txt";
  std::vector<std::string> files;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string file;
    if (line.empty() || line[0] == '#' || !(ls >> file)) continue;
    files.push_back(file);
  }
  return files;
}

/// Fig. 8 with every candidate promotion solved by the per-commodity
/// program and accepted on a strict improvement — the loop
/// augmented_sources() must reproduce exactly.
core::AugmentedSourcesResult reference_augmented_sources(
    const core::MulticastProblem& problem) {
  const core::HeuristicOptions defaults;
  constexpr double kImprovementTol = 1e-9;
  const Digraph& g = problem.graph;
  core::AugmentedSourcesResult result;
  result.sources = {problem.source};
  result.solution = core::solve_multisource_ub(problem, result.sources);
  if (!result.solution.ok()) return result;
  result.ok = true;
  result.period = result.solution.period;
  for (int round = 0; round < defaults.max_rounds; ++round) {
    std::vector<NodeId> order;
    std::vector<double> inflow(static_cast<size_t>(g.node_count()), 0.0);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (std::find(result.sources.begin(), result.sources.end(), v) !=
          result.sources.end()) {
        continue;
      }
      order.push_back(v);
      inflow[static_cast<size_t>(v)] = result.solution.node_inflow(g, v);
    }
    std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return inflow[static_cast<size_t>(a)] > inflow[static_cast<size_t>(b)];
    });
    if (static_cast<int>(order.size()) > defaults.max_candidates) {
      order.resize(static_cast<size_t>(defaults.max_candidates));
    }
    bool improved = false;
    for (NodeId m : order) {
      std::vector<NodeId> trial = result.sources;
      trial.push_back(m);
      core::MultiSourceSolution candidate =
          core::solve_multisource_ub(problem, trial);
      if (candidate.ok() &&
          candidate.period < result.period - kImprovementTol) {
        result.sources = std::move(trial);
        result.period = candidate.period;
        result.solution = std::move(candidate);
        improved = true;
        break;
      }
    }
    if (!improved) break;
  }
  return result;
}

/// The golden corpus plus 60 generated instances: grid and power_law at
/// 8-11 nodes, tiers, star and fat_tree at 12.
std::vector<std::pair<std::string, core::MulticastProblem>>
trajectory_corpus() {
  std::vector<std::pair<std::string, core::MulticastProblem>> corpus;
  for (const std::string& file : golden_files()) {
    corpus.emplace_back(file, load_problem(file));
  }
  auto add = [&](scenario::Family family, int nodes, std::uint64_t seed) {
    scenario::ScenarioSpec spec;
    spec.family = family;
    spec.nodes = nodes;
    spec.seed = seed;
    spec.target_density = 0.5;
    spec.policy = static_cast<scenario::TargetPolicy>(seed % 3);
    scenario::ScenarioInstance instance = scenario::generate_scenario(spec);
    corpus.emplace_back(instance.name, std::move(instance.problem));
  };
  for (scenario::Family family :
       {scenario::Family::Grid, scenario::Family::PowerLaw}) {
    for (int nodes = 8; nodes <= 11; ++nodes) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) add(family, nodes, seed);
    }
  }
  for (scenario::Family family :
       {scenario::Family::Tiers, scenario::Family::Star,
        scenario::Family::FatTree}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) add(family, 12, seed);
  }
  return corpus;
}

TEST(AugmentedSourcesOracle, FollowsThePerCommodityReferenceLoop) {
  // Value probes only filter: the promotions, the period and the flows of
  // the accepted program are those of the loop that probes with the
  // per-commodity program itself.
  const auto corpus = trajectory_corpus();
  ASSERT_GE(corpus.size(), 70u);
  int promoted = 0;
  for (const auto& [name, problem] : corpus) {
    const auto reference = reference_augmented_sources(problem);
    const auto result = core::augmented_sources(problem);
    EXPECT_EQ(result.ok, reference.ok) << name;
    EXPECT_EQ(result.sources, reference.sources) << name;
    EXPECT_EQ(result.period, reference.period) << name;
    EXPECT_EQ(result.solution.flows, reference.solution.flows) << name;
    EXPECT_EQ(result.lp_stats.solves, result.lp_solves) << name;
    EXPECT_EQ(result.lp_stats.warm_starts, 0) << name;
    if (result.sources.size() > 1) ++promoted;
  }
  // The corpus exercises the accept path, not only the first solve.
  EXPECT_GE(promoted, 20);
}

TEST(AugmentedSourcesOracle, InterruptAtAnyPollLeavesAnAcceptedPrefix) {
  // Abort at poll k, for every poll of the uninterrupted run: the result
  // is either that run, or an aborted run holding an accepted prefix of
  // its promotions together with that prefix's per-commodity solution.
  for (const char* file : {"tiers-n8-d50u-s1.platform",
                           "star-n9-d50h-s10.platform",
                           "fat_tree-n8-d50u-s1.platform"}) {
    core::MulticastProblem problem = load_problem(file);
    int polls = 0;
    int abort_at = 0;  // 1-based poll that aborts; 0 = never
    core::HeuristicOptions options;
    options.lp.solver.checkpoint_every = 1;
    options.lp.solver.checkpoint = [&](int) {
      return ++polls == abort_at ? lp::CheckpointAction::Abort
                                 : lp::CheckpointAction::Continue;
    };
    const auto full = core::augmented_sources(problem, options);
    const int total = polls;
    ASSERT_TRUE(full.ok) << file;
    ASSERT_FALSE(full.aborted) << file;
    ASSERT_GT(full.sources.size(), 1u) << file << ": no promotion to cut";
    ASSERT_GT(total, 0) << file;

    std::map<size_t, core::MultiSourceSolution> prefix_solutions;
    int aborted_runs = 0;
    for (int k = 1; k <= total + 1; ++k) {
      polls = 0;
      abort_at = k;
      const auto run = core::augmented_sources(problem, options);
      const std::string ctx = std::string(file) + " abort at poll " +
                              std::to_string(k) + "/" + std::to_string(total);
      if (!run.aborted) {
        EXPECT_GT(k, total) << ctx;
        EXPECT_EQ(run.sources, full.sources) << ctx;
        EXPECT_EQ(run.period, full.period) << ctx;
        EXPECT_EQ(run.solution.flows, full.solution.flows) << ctx;
        continue;
      }
      ++aborted_runs;
      ASSERT_LE(run.sources.size(), full.sources.size()) << ctx;
      EXPECT_TRUE(std::equal(run.sources.begin(), run.sources.end(),
                             full.sources.begin()))
          << ctx << ": sources are not a prefix of the full sequence";
      if (!run.ok) {
        // The first solve was cut: nothing was ever accepted.
        EXPECT_EQ(run.sources.size(), 1u) << ctx;
        EXPECT_EQ(run.period, kInfinity) << ctx;
        continue;
      }
      auto [it, fresh] = prefix_solutions.try_emplace(run.sources.size());
      if (fresh) it->second = core::solve_multisource_ub(problem, run.sources);
      const core::MultiSourceSolution& expected = it->second;
      ASSERT_TRUE(expected.ok()) << ctx;
      EXPECT_EQ(run.solution.period, run.period) << ctx;
      EXPECT_EQ(run.solution.period, expected.period) << ctx;
      EXPECT_EQ(run.solution.flows, expected.flows) << ctx;
    }
    EXPECT_EQ(aborted_runs, total) << file;
    // Interruptions landed after each accepted promotion, not only in the
    // first solve.
    EXPECT_EQ(prefix_solutions.size(), full.sources.size()) << file;
  }
}

}  // namespace
}  // namespace pmcast

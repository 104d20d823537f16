/// Engine-level behaviour: caching, batch coalescing, per-request budgets
/// and thread-count agreement — the satellite determinism/caching coverage.
/// Cache and coalescing identity across race settings is covered at the
/// Service level (Service.CacheServesOnlyTheRaceItRan).

#include "runtime/engine.hpp"

#include <gtest/gtest.h>

#include "graph/rng.hpp"
#include "pmcast/core.hpp"
#include "test_requests.hpp"

namespace pmcast::runtime {
namespace {

using core::MulticastProblem;

ServiceOptions with_threads(int threads, std::size_t cache_capacity = 1024) {
  ServiceOptions options;
  options.threads = threads;
  options.cache_capacity = cache_capacity;
  return options;
}

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

TEST(Engine, SameInstanceTwiceIsACacheHitWithIdenticalPeriod) {
  PortfolioEngine engine(with_threads(2));
  MulticastProblem p = random_problem(1);
  PortfolioResult first = engine.solve(request_for(p));
  ASSERT_TRUE(first.ok);
  EXPECT_FALSE(first.from_cache);

  PortfolioResult second = engine.solve(request_for(p));
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.period, first.period);  // bit-identical
  EXPECT_EQ(second.winner, first.winner);

  CacheMetrics stats = engine.cache_metrics();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(Engine, RebuiltInstanceHitsCacheThroughCanonicalHash) {
  PortfolioEngine engine(with_threads(1));
  MulticastProblem p = random_problem(2);
  ASSERT_TRUE(engine.solve(request_for(p)).ok);

  // Same instance, edges inserted in reverse order, targets shuffled.
  Digraph g(p.graph.node_count());
  for (EdgeId e = p.graph.edge_count() - 1; e >= 0; --e) {
    const Edge& edge = p.graph.edge(e);
    g.add_edge(edge.from, edge.to, edge.cost);
  }
  std::vector<NodeId> targets(p.targets.rbegin(), p.targets.rend());
  MulticastProblem rebuilt(g, p.source, targets);
  PortfolioResult r = engine.solve(request_for(rebuilt));
  EXPECT_TRUE(r.from_cache);
}

TEST(Engine, BatchCoalescesDuplicateInstances) {
  PortfolioEngine engine(with_threads(2));
  MulticastProblem a = random_problem(3);
  MulticastProblem b = random_problem(4);
  std::vector<MulticastProblem> batch{a, b, a, a, b};
  auto results = engine.solve_batch(requests_for(batch));
  ASSERT_EQ(results.size(), 5u);
  for (const auto& r : results) ASSERT_TRUE(r.ok);

  EXPECT_FALSE(results[0].coalesced);
  EXPECT_FALSE(results[1].coalesced);
  EXPECT_TRUE(results[2].coalesced);
  EXPECT_TRUE(results[3].coalesced);
  EXPECT_TRUE(results[4].coalesced);
  EXPECT_EQ(results[2].period, results[0].period);
  EXPECT_EQ(results[3].period, results[0].period);
  EXPECT_EQ(results[4].period, results[1].period);

  // Only the two unique instances were actually solved (and cached).
  EXPECT_EQ(engine.cache_metrics().entries, 2u);
}

TEST(Engine, ThreadCountsOneTwoEightAgree) {
  std::vector<MulticastProblem> batch;
  for (std::uint64_t s = 10; s < 16; ++s) batch.push_back(random_problem(s));
  for (std::uint64_t s : {3ULL, 7ULL, 9ULL}) batch.push_back(random_problem(s));

  PortfolioEngine baseline(with_threads(0));  // inline reference
  auto expected = baseline.solve_batch(requests_for(batch));
  for (int threads : {1, 2, 8}) {
    PortfolioEngine engine(with_threads(threads));
    auto results = engine.solve_batch(requests_for(batch));
    ASSERT_EQ(results.size(), expected.size());
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].ok, expected[i].ok)
          << threads << " threads, instance " << i;
      // Bit-identical, not approximately equal: each strategy is a pure
      // function of the instance regardless of which worker ran it.
      EXPECT_EQ(results[i].period, expected[i].period)
          << threads << " threads, instance " << i;
      EXPECT_EQ(results[i].winner, expected[i].winner)
          << threads << " threads, instance " << i;
      ASSERT_EQ(results[i].outcomes.size(), expected[i].outcomes.size());
      for (size_t c = 0; c < results[i].outcomes.size(); ++c) {
        EXPECT_EQ(results[i].outcomes[c].state,
                  expected[i].outcomes[c].state)
            << threads << " threads, instance " << i << " candidate " << c;
        EXPECT_EQ(results[i].outcomes[c].period,
                  expected[i].outcomes[c].period)
            << threads << " threads, instance " << i << " candidate " << c;
      }
    }
  }
}

TEST(Engine, PerRequestDeadlineOnlyAffectsThatRequest) {
  PortfolioEngine engine(with_threads(2));
  std::vector<SolveRequest> requests =
      requests_for({random_problem(20), random_problem(21)});
  requests[0].deadline_ms = 1e-6;  // already expired at batch entry
  const MulticastProblem starved = requests[0].problem;
  auto results = engine.solve_batch(std::move(requests));
  EXPECT_FALSE(results[0].ok);
  EXPECT_TRUE(results[1].ok);
  // The starved result must not poison the cache: retrying without the
  // deadline has to actually solve (a miss, then certified).
  PortfolioResult retry = engine.solve(request_for(starved));
  EXPECT_TRUE(retry.ok);
  EXPECT_FALSE(retry.from_cache);
}

TEST(Engine, CancellationStopsOneRequest) {
  PortfolioEngine engine(with_threads(1));
  std::vector<SolveRequest> requests =
      requests_for({random_problem(22), random_problem(23)});
  requests[0].cancel.request_stop();
  auto results = engine.solve_batch(std::move(requests));
  EXPECT_FALSE(results[0].ok);
  EXPECT_TRUE(results[1].ok);
}

TEST(Engine, CacheDisabledStillSolves) {
  PortfolioEngine engine(with_threads(1, /*cache_capacity=*/0));
  MulticastProblem p = random_problem(30);
  EXPECT_TRUE(engine.solve(request_for(p)).ok);
  PortfolioResult again = engine.solve(request_for(p));
  EXPECT_TRUE(again.ok);
  EXPECT_FALSE(again.from_cache);
}

TEST(Engine, EmptyBatch) {
  PortfolioEngine engine(with_threads(1));
  EXPECT_TRUE(engine.solve_batch({}).empty());
}

}  // namespace
}  // namespace pmcast::runtime

/// Portfolio integration: a mixed-family scenario batch served through
/// PortfolioEngine::solve_batch must be bit-deterministic across thread
/// counts (1 / 2 / 8), coalesce duplicates, and stay oracle-clean.

#include <gtest/gtest.h>

#include "runtime/runtime.hpp"
#include "scenario/scenario.hpp"
#include "test_requests.hpp"

namespace pmcast::scenario {
namespace {

using runtime::PortfolioEngine;
using runtime::PortfolioResult;

std::vector<core::MulticastProblem> mixed_batch() {
  std::vector<core::MulticastProblem> batch;
  for (const ScenarioSpec& spec : corpus_specs(2, 300, 8)) {
    batch.push_back(generate_scenario(spec).problem);
  }
  // Duplicates exercise the engine's coalescing path.
  batch.push_back(batch[0]);
  batch.push_back(batch[3]);
  return batch;
}

ServiceOptions engine_options(int threads) {
  ServiceOptions options;
  options.threads = threads;
  // Cheap-but-complete strategy set keeps the 3-way run fast while still
  // covering tree, flow and exact certification paths.
  options.strategies = {
      StrategyId::Mcph, StrategyId::PrunedDijkstra, StrategyId::Kmb,
      StrategyId::MulticastUb, StrategyId::Exact};
  return options;
}

TEST(PortfolioScenarios, DeterministicAcrossThreadCounts) {
  std::vector<core::MulticastProblem> batch = mixed_batch();

  std::vector<std::vector<PortfolioResult>> runs;
  for (int threads : {1, 2, 8}) {
    PortfolioEngine engine(engine_options(threads));
    runs.push_back(engine.solve_batch(requests_for(batch)));
    ASSERT_EQ(runs.back().size(), batch.size()) << threads << " threads";
  }

  const auto& reference = runs[0];
  for (size_t run = 1; run < runs.size(); ++run) {
    for (size_t i = 0; i < batch.size(); ++i) {
      const PortfolioResult& a = reference[i];
      const PortfolioResult& b = runs[run][i];
      EXPECT_EQ(a.ok, b.ok) << "request " << i;
      EXPECT_DOUBLE_EQ(a.period, b.period) << "request " << i;
      EXPECT_EQ(a.winner, b.winner) << "request " << i;
      ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
      for (size_t c = 0; c < a.outcomes.size(); ++c) {
        EXPECT_EQ(a.outcomes[c].state, b.outcomes[c].state)
            << "request " << i << " candidate " << c;
        EXPECT_DOUBLE_EQ(a.outcomes[c].period, b.outcomes[c].period)
            << "request " << i << " candidate " << c;
      }
    }
  }
}

TEST(PortfolioScenarios, BatchResultsAreOracleClean) {
  std::vector<core::MulticastProblem> batch = mixed_batch();
  PortfolioEngine engine(engine_options(2));
  std::vector<PortfolioResult> results = engine.solve_batch(requests_for(batch));

  OracleOptions options;
  options.service = engine_options(2);
  for (size_t i = 0; i < batch.size(); ++i) {
    OracleReport report = cross_check(batch[i], results[i], options);
    EXPECT_TRUE(report.ok) << "request " << i << ": " << report.summary();
  }
}

TEST(PortfolioScenarios, DuplicatesCoalesceToIdenticalAnswers) {
  std::vector<core::MulticastProblem> batch = mixed_batch();
  PortfolioEngine engine(engine_options(2));
  std::vector<PortfolioResult> results = engine.solve_batch(requests_for(batch));

  size_t n = results.size();
  // The two appended duplicates mirror requests 0 and 3.
  EXPECT_DOUBLE_EQ(results[n - 2].period, results[0].period);
  EXPECT_DOUBLE_EQ(results[n - 1].period, results[3].period);
  EXPECT_TRUE(results[n - 2].coalesced || results[n - 2].from_cache);
  EXPECT_TRUE(results[n - 1].coalesced || results[n - 1].from_cache);
}

TEST(PortfolioScenarios, WarmCacheServesIdenticalPeriods) {
  std::vector<core::MulticastProblem> batch = mixed_batch();
  PortfolioEngine engine(engine_options(2));
  std::vector<PortfolioResult> cold = engine.solve_batch(requests_for(batch));
  std::vector<PortfolioResult> warm = engine.solve_batch(requests_for(batch));
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(warm[i].from_cache) << i;
    EXPECT_DOUBLE_EQ(warm[i].period, cold[i].period) << i;
  }
}

}  // namespace
}  // namespace pmcast::scenario

/// Golden-corpus regression: the checked-in generated instances under
/// tests/data/ must keep solving to their recorded best certified periods.
/// Any solver / scheduler / LP change that silently shifts results trips
/// this first. The corpus files also pin the platform text format itself:
/// they were written by pmcast_gen and must stay parseable forever.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <vector>

#include "graph/io.hpp"
#include "runtime/runtime.hpp"
#include "scenario/oracle.hpp"
#include "test_requests.hpp"

#ifndef PMCAST_TEST_DATA_DIR
#error "PMCAST_TEST_DATA_DIR must point at tests/data (set by CMake)"
#endif

namespace pmcast {
namespace {

struct GoldenEntry {
  std::string file;
  double expected_period = 0.0;
  std::string recorded_winner;
};

std::vector<GoldenEntry> load_manifest() {
  std::ifstream in(std::string(PMCAST_TEST_DATA_DIR) +
                   "/golden_manifest.txt");
  EXPECT_TRUE(in.good()) << "missing tests/data/golden_manifest.txt";
  std::vector<GoldenEntry> entries;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    GoldenEntry entry;
    if (ls >> entry.file >> entry.expected_period) {
      ls >> entry.recorded_winner;  // informational, may be absent
      entries.push_back(std::move(entry));
    }
  }
  return entries;
}

core::MulticastProblem load_problem(const std::string& file) {
  Result<PlatformFile> platform =
      load_platform(std::string(PMCAST_TEST_DATA_DIR) + "/" + file);
  EXPECT_TRUE(platform.ok())
      << file << ": " << platform.status().to_string();
  return core::MulticastProblem(platform->graph, platform->source,
                                platform->targets);
}

TEST(GoldenCorpus, ManifestCoversTenInstances) {
  EXPECT_GE(load_manifest().size(), 10u);
}

TEST(GoldenCorpus, BestCertifiedPeriodsMatchManifest) {
  ServiceOptions options;
  options.threads = 0;  // inline, in launch order
  options.cache_capacity = 0;
  runtime::PortfolioEngine engine(options);
  for (const GoldenEntry& entry : load_manifest()) {
    runtime::PortfolioResult result =
        engine.solve(request_for(load_problem(entry.file)));
    ASSERT_TRUE(result.ok) << entry.file;
    // Relative tolerance absorbs LP numerics / rationalisation wobble
    // across compilers; any real regression is percent-scale.
    EXPECT_NEAR(result.period, entry.expected_period,
                1e-4 * entry.expected_period)
        << entry.file << " (winner " << strategy_id_name(result.winner) << ")";
  }
}

TEST(GoldenCorpus, EveryInstanceIsOracleClean) {
  for (const GoldenEntry& entry : load_manifest()) {
    core::MulticastProblem problem = load_problem(entry.file);
    scenario::OracleReport report = scenario::cross_check(problem);
    EXPECT_TRUE(report.ok) << entry.file << ": " << report.summary();
  }
}

}  // namespace
}  // namespace pmcast

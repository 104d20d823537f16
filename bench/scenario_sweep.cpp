/// \file scenario_sweep.cpp
/// Scenario-sweep acceptance bench: generate a mixed corpus across every
/// topology family, serve it through the 8-thread PortfolioEngine, and
/// cross-check every result with the differential oracle. Emits
/// BENCH_scenarios.json with per-family period-gap and latency stats.
///
/// Two sweeps run:
///  * the *main* sweep at a node count where the exact solver is skipped —
///    this measures the heuristic gap against the LP lower bound;
///  * a *small* sweep (<= 9 nodes) where the exact tree-enumeration LP
///    participates, exercising the exact-dominance invariant end to end.
///
/// Checks enforced (exit code 1 on violation):
///  * zero oracle violations across both sweeps;
///  * every generator is byte-deterministic (regenerate + compare);
///  * >= 5 topology families beyond a single hierarchy are covered.
///
/// PMCAST_FULL=1 scales the corpus and platform sizes up.

#include <cstdio>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "pmcast/io.hpp"
#include "pmcast/runtime.hpp"
#include "pmcast/scenario.hpp"

using namespace pmcast;
using namespace pmcast::scenario;

namespace {

struct FamilyStats {
  int instances = 0;
  int certified = 0;
  int violations = 0;
  std::vector<double> gaps;        ///< best_certified / LP lower bound
  std::vector<double> lbs;
  std::vector<double> engine_ms;   ///< per-instance portfolio latency
};

double max_of(const std::vector<double>& xs) {
  double m = 0.0;
  for (double x : xs) m = std::max(m, x);
  return m;
}

}  // namespace

int main() {
  const bool full = bench::full_mode();
  const int kPerFamily = full ? 12 : 6;
  const int kNodes = full ? 16 : 10;
  const int kSmallPerFamily = full ? 6 : 3;
  const int kSmallNodes = 8;
  const int kThreads = 8;

  std::vector<ScenarioSpec> specs = corpus_specs(kPerFamily, 100, kNodes);
  std::vector<ScenarioSpec> small = corpus_specs(kSmallPerFamily, 500,
                                                 kSmallNodes);
  specs.insert(specs.end(), small.begin(), small.end());

  std::printf("=== scenario sweep: %zu instances, %zu families "
              "(%d-node main + %d-node exact sweep, %d threads) ===\n",
              specs.size(), all_families().size(), kNodes, kSmallNodes,
              kThreads);

  // Generate, and double-check byte-determinism while at it.
  std::vector<ScenarioInstance> instances;
  std::vector<core::MulticastProblem> batch;
  int non_deterministic = 0;
  for (const ScenarioSpec& spec : specs) {
    ScenarioInstance instance = generate_scenario(spec);
    std::string once = write_platform_string(to_platform_file(instance));
    std::string again =
        write_platform_string(to_platform_file(generate_scenario(spec)));
    if (once != again) {
      std::printf("VIOLATION: %s is not byte-deterministic\n",
                  instance.name.c_str());
      ++non_deterministic;
    }
    batch.push_back(instance.problem);
    instances.push_back(std::move(instance));
  }

  ServiceOptions engine_options;
  engine_options.threads = kThreads;
  runtime::PortfolioEngine engine(engine_options);
  std::vector<SolveRequest> requests;
  requests.reserve(batch.size());
  for (core::MulticastProblem& problem : batch) {
    SolveRequest request;
    request.problem = std::move(problem);
    requests.push_back(std::move(request));
  }

  double t0 = std::chrono::duration<double, std::milli>(
                  runtime::Clock::now().time_since_epoch())
                  .count();
  std::vector<runtime::PortfolioResult> results =
      engine.solve_batch(std::move(requests));
  double batch_ms = std::chrono::duration<double, std::milli>(
                        runtime::Clock::now().time_since_epoch())
                        .count() -
                    t0;

  // Differential oracle over every engine result.
  std::map<std::string, FamilyStats> by_family;
  int total_violations = non_deterministic;
  int exact_certified = 0;
  for (size_t i = 0; i < instances.size(); ++i) {
    const ScenarioInstance& instance = instances[i];
    OracleReport report = cross_check(instance.problem, results[i]);
    FamilyStats& stats = by_family[family_name(instance.spec.family)];
    ++stats.instances;
    stats.certified += report.certified;
    // Per-instance solver cost = sum over strategies (the engine-reported
    // elapsed_ms of a batched request is the whole batch's wall time).
    double solver_ms = 0.0;
    for (const auto& c : results[i].outcomes) solver_ms += c.elapsed_ms;
    stats.engine_ms.push_back(solver_ms);
    if (report.lower_bound > 0.0 && report.gap < kInfinity) {
      stats.gaps.push_back(report.gap);
      stats.lbs.push_back(report.lower_bound);
    }
    if (report.exact_certified) ++exact_certified;
    if (!report.ok) {
      stats.violations += static_cast<int>(report.violations.size());
      total_violations += static_cast<int>(report.violations.size());
      std::printf("VIOLATION: %s -> %s\n", instance.name.c_str(),
                  report.summary().c_str());
      for (const OracleViolation& v : report.violations) {
        std::printf("  [%s] %s\n", v.check.c_str(), v.detail.c_str());
      }
    }
  }

  bench::Table table({"family", "instances", "mean gap", "max gap",
                      "mean LB", "solver ms", "violations"});
  for (const auto& [family, stats] : by_family) {
    table.add_row({family, std::to_string(stats.instances),
                   bench::fmt(bench::mean(stats.gaps)),
                   bench::fmt(max_of(stats.gaps)),
                   bench::fmt(bench::mean(stats.lbs), 1),
                   bench::fmt(bench::mean(stats.engine_ms), 2),
                   std::to_string(stats.violations)});
  }
  table.print();
  std::printf("batch: %zu instances in %.1f ms (%d threads); "
              "exact participated on %d instances\n",
              instances.size(), batch_ms, kThreads, exact_certified);
  std::printf("oracle: %d violations, %d non-deterministic generators\n",
              total_violations - non_deterministic, non_deterministic);

  std::ofstream json("BENCH_scenarios.json");
  json << "{\n"
       << "  \"bench\": \"scenario_sweep\",\n"
       << "  \"instances\": " << instances.size() << ",\n"
       << "  \"main_nodes\": " << kNodes << ",\n"
       << "  \"small_nodes\": " << kSmallNodes << ",\n"
       << "  \"threads\": " << kThreads << ",\n"
       << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "  \"batch_ms\": " << batch_ms << ",\n"
       << "  \"exact_participations\": " << exact_certified << ",\n"
       << "  \"byte_deterministic\": "
       << (non_deterministic == 0 ? "true" : "false") << ",\n"
       << "  \"violations\": " << total_violations << ",\n"
       << "  \"families\": [\n";
  bool first = true;
  for (const auto& [family, stats] : by_family) {
    if (!first) json << ",\n";
    first = false;
    json << "    {\"family\": \"" << family << "\", \"instances\": "
         << stats.instances << ", \"mean_gap\": "
         << bench::mean(stats.gaps) << ", \"max_gap\": " << max_of(stats.gaps)
         << ", \"mean_lower_bound\": " << bench::mean(stats.lbs)
         << ", \"mean_solver_ms\": " << bench::mean(stats.engine_ms)
         << ", \"violations\": " << stats.violations << "}";
  }
  json << "\n  ]\n}\n";
  std::printf("wrote BENCH_scenarios.json\n");

  return total_violations > 0 ? 1 : 0;
}

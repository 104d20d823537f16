/// \file micro_lp.cpp
/// Experiment E10 (part 1) — google-benchmark micro-benchmarks of the LP
/// substrate: simplex solve times for the paper's formulations at several
/// platform scales, plus the LP sequences behind the refinement heuristics
/// (cold vs warm arms of the mask sequences; augmented_sources, which
/// solves every program cold, in one arm).
///
/// `micro_lp --smoke` skips the benchmark harness and runs a differential
/// pass instead (exit 1 on mismatch): warm vs cold for the two platform
/// heuristics, per-origin vs per-commodity MulticastMultiSource-UB for
/// augmented_sources' probes — the CI hook that exercises both under
/// ASan/UBSan.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "pmcast/core.hpp"
#include "pmcast/graph.hpp"
#include "pmcast/topology.hpp"

using namespace pmcast;
using namespace pmcast::core;

namespace {

MulticastProblem make_problem(int lan_nodes, double density,
                              std::uint64_t seed) {
  topo::TiersParams params;
  params.wan_nodes = 4;
  params.mans = 2;
  params.man_nodes = 3;
  params.lans = std::max(2, lan_nodes / 5);
  params.lan_nodes = lan_nodes;
  topo::Platform platform = topo::generate_tiers(params, seed);
  Rng rng(seed + 17);
  auto targets = topo::sample_targets(platform, density, rng);
  return MulticastProblem(platform.graph, platform.source, targets);
}

void BM_MulticastLb(benchmark::State& state) {
  MulticastProblem p =
      make_problem(static_cast<int>(state.range(0)), 0.5, 11);
  for (auto _ : state) {
    auto sol = solve_multicast_lb(p);
    benchmark::DoNotOptimize(sol.period);
  }
}
BENCHMARK(BM_MulticastLb)->Arg(6)->Arg(10)->Arg(17)->Unit(
    benchmark::kMillisecond);

void BM_MulticastUb(benchmark::State& state) {
  MulticastProblem p =
      make_problem(static_cast<int>(state.range(0)), 0.5, 11);
  for (auto _ : state) {
    auto sol = solve_multicast_ub(p);
    benchmark::DoNotOptimize(sol.period);
  }
}
BENCHMARK(BM_MulticastUb)->Arg(6)->Arg(10)->Arg(17)->Unit(
    benchmark::kMillisecond);

void BM_BroadcastEb(benchmark::State& state) {
  MulticastProblem p =
      make_problem(static_cast<int>(state.range(0)), 0.5, 11);
  for (auto _ : state) {
    auto sol = solve_broadcast_eb(p.graph, p.source);
    benchmark::DoNotOptimize(sol.period);
  }
}
BENCHMARK(BM_BroadcastEb)->Arg(6)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_SimplexDense(benchmark::State& state) {
  // A dense random LP stressing pricing and the eta file.
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  lp::Model model(lp::Sense::Maximize);
  for (int j = 0; j < n; ++j) model.add_variable(0, 10, rng.uniform_real());
  for (int i = 0; i < n; ++i) {
    int r = model.add_row_le(5.0 + rng.uniform_real() * 5.0);
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.3)) {
        model.add_entry(r, j, rng.uniform_real(-1.0, 2.0));
      }
    }
  }
  for (auto _ : state) {
    auto sol = lp::solve(model);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_SimplexDense)->Arg(20)->Arg(60)->Arg(120)->Unit(
    benchmark::kMillisecond);

// ---- warm-start sequences -------------------------------------------------
//
// Each benchmark runs the *same* LP sequence in both arms; only the
// warm-start layer is toggled. state.range(0) is the tiers lan size,
// state.range(1) selects cold (0) or warm (1). The lp_iters counter lets
// BENCH comparisons check "fewer total simplex iterations", not just wall
// clock.

void report_lp(benchmark::State& state, long long iters, int solves,
               int warm) {
  state.counters["lp_iters"] =
      benchmark::Counter(static_cast<double>(iters),
                         benchmark::Counter::kAvgIterations);
  state.counters["lp_solves"] = benchmark::Counter(
      static_cast<double>(solves), benchmark::Counter::kAvgIterations);
  state.counters["warm_hits"] = benchmark::Counter(
      static_cast<double>(warm), benchmark::Counter::kAvgIterations);
}

/// The warm-sequence primitive: one masked Broadcast-EB program re-solved
/// across a sweep of one-node-removal masks (what every platform-heuristic
/// probe does), eta/basis reuse on vs off.
void BM_MaskedEbSweep(benchmark::State& state) {
  MulticastProblem p =
      make_problem(static_cast<int>(state.range(0)), 0.5, 11);
  const bool warm = state.range(1) != 0;
  long long iters = 0;
  int solves = 0, warm_hits = 0;
  for (auto _ : state) {
    MaskedBroadcastEb eb(p.graph, p.source);
    eb.set_warm_start(warm);
    std::vector<char> keep(static_cast<size_t>(p.graph.node_count()), 1);
    auto full = eb.solve(keep);
    benchmark::DoNotOptimize(full);
    for (NodeId v = 0; v < p.graph.node_count(); ++v) {
      if (v == p.source) continue;
      keep[static_cast<size_t>(v)] = 0;
      auto sol = eb.solve(keep);
      benchmark::DoNotOptimize(sol);
      keep[static_cast<size_t>(v)] = 1;
    }
    iters += eb.stats().iterations;
    solves += eb.stats().solves;
    warm_hits += eb.stats().warm_starts;
  }
  report_lp(state, iters, solves, warm_hits);
}
BENCHMARK(BM_MaskedEbSweep)
    ->Args({6, 0})->Args({6, 1})->Args({10, 0})->Args({10, 1})
    ->Unit(benchmark::kMillisecond);

void BM_ReducedBroadcastSeq(benchmark::State& state) {
  MulticastProblem p =
      make_problem(static_cast<int>(state.range(0)), 0.5, 11);
  HeuristicOptions options;
  options.warm_start = state.range(1) != 0;
  long long iters = 0;
  int solves = 0, warm_hits = 0;
  for (auto _ : state) {
    auto result = reduced_broadcast(p, options);
    benchmark::DoNotOptimize(result.period);
    iters += result.lp_stats.iterations;
    solves += result.lp_stats.solves;
    warm_hits += result.lp_stats.warm_starts;
  }
  report_lp(state, iters, solves, warm_hits);
}
BENCHMARK(BM_ReducedBroadcastSeq)
    ->Args({6, 0})->Args({6, 1})->Args({10, 0})->Args({10, 1})
    ->Unit(benchmark::kMillisecond);

void BM_AugmentedMulticastSeq(benchmark::State& state) {
  MulticastProblem p =
      make_problem(static_cast<int>(state.range(0)), 0.5, 11);
  HeuristicOptions options;
  options.warm_start = state.range(1) != 0;
  long long iters = 0;
  int solves = 0, warm_hits = 0;
  for (auto _ : state) {
    auto result = augmented_multicast(p, options);
    benchmark::DoNotOptimize(result.period);
    iters += result.lp_stats.iterations;
    solves += result.lp_stats.solves;
    warm_hits += result.lp_stats.warm_starts;
  }
  report_lp(state, iters, solves, warm_hits);
}
BENCHMARK(BM_AugmentedMulticastSeq)
    ->Args({6, 0})->Args({6, 1})->Args({10, 0})->Args({10, 1})
    ->Unit(benchmark::kMillisecond);

/// Fig. 8's promotion sequence: per-origin value probes plus one
/// per-commodity solve per accepted promotion, all cold (no warm arm).
void BM_AugmentedSourcesSeq(benchmark::State& state) {
  MulticastProblem p =
      make_problem(static_cast<int>(state.range(0)), 0.5, 11);
  long long iters = 0;
  int solves = 0;
  for (auto _ : state) {
    auto result = augmented_sources(p);
    benchmark::DoNotOptimize(result.period);
    iters += result.lp_stats.iterations;
    solves += result.lp_stats.solves;
  }
  report_lp(state, iters, solves, 0);
}
BENCHMARK(BM_AugmentedSourcesSeq)->Arg(6)->Arg(10)->Unit(
    benchmark::kMillisecond);

// ---- smoke mode -----------------------------------------------------------

/// One differential pass over two platforms, under whatever
/// instrumentation the binary was compiled with: the platform heuristics
/// warm vs cold (build/mutate/warm-solve/fallback), and augmented_sources'
/// value oracle — the per-origin program against the per-commodity one on
/// every single-promotion source list. Returns 0 iff every pair agrees.
int run_smoke() {
  int failures = 0;
  for (int lan : {5, 6}) {
    MulticastProblem p = make_problem(lan, 0.5, 11);
    HeuristicOptions cold_options, warm_options;
    cold_options.warm_start = false;
    warm_options.warm_start = true;

    auto check = [&](const char* name, double cold, double warm) {
      double tol = 1e-6 * (1.0 + (cold == kInfinity ? 0.0 : cold));
      bool match = (cold == kInfinity && warm == kInfinity) ||
                   (cold != kInfinity && warm != kInfinity &&
                    warm >= cold - tol && warm <= cold + tol);
      std::printf("smoke lan=%d %-20s cold=%.9g warm=%.9g %s\n", lan, name,
                  cold, warm, match ? "OK" : "MISMATCH");
      if (!match) ++failures;
    };
    check("reduced_broadcast",
          reduced_broadcast(p, cold_options).period,
          reduced_broadcast(p, warm_options).period);
    check("augmented_multicast",
          augmented_multicast(p, cold_options).period,
          augmented_multicast(p, warm_options).period);

    int lists = 0, disagreements = 0;
    for (NodeId m = 0; m < p.graph.node_count(); ++m) {
      if (m == p.source) continue;
      const std::vector<NodeId> sources{p.source, m};
      const MultiSourceSolution reference = solve_multisource_ub(p, sources);
      const LpValue value = multisource_ub_value(p, sources);
      const bool agree =
          value.status == reference.status &&
          (!reference.ok() || std::abs(value.period - reference.period) <=
                                  1e-9 * std::abs(reference.period));
      if (!agree) {
        std::printf("smoke lan=%d sources {%d, %d}: per-origin %.17g (%s) "
                    "vs per-commodity %.17g (%s) MISMATCH\n",
                    lan, p.source, m, value.period,
                    lp::to_string(value.status), reference.period,
                    lp::to_string(reference.status));
        ++disagreements;
      }
      ++lists;
    }
    std::printf("smoke lan=%d %-20s %d source lists, %d disagreements %s\n",
                lan, "multisource_value", lists, disagreements,
                disagreements == 0 ? "OK" : "MISMATCH");
    failures += disagreements;
  }
  std::printf("smoke: %d mismatches\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

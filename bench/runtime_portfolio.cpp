/// \file runtime_portfolio.cpp
/// The runtime/API acceptance bench, ported to the pmcast v1 facade.
///
/// Phase 1 (BENCH_runtime.json, continuity with PR 1): serve a 100-request
/// batch through an 8-thread Service and compare against sequentially
/// certifying every strategy on every request (the pre-runtime workflow).
///
/// Phase 1.75 (the PR 5 acceptance): cooperative pruning, pruned-vs-blind.
/// The same corpus is served cold (no cache) under PruningPolicy::Off and
/// PruningPolicy::Deterministic; the JSON's "pruning" block reports the
/// wall-clock speedup and simplex-iteration savings, and any certified
/// period that differs between the two arms is a violation. A sharded-vs-
/// unsharded ResultCache contention micro-bench rides along.
///
/// Phase 2 (BENCH_api.json, the v1 API acceptance): blocking solve_batch
/// vs streaming submit_batch on a fresh cold Service each — same workload,
/// same certified answers. Blocking holds every response until the slowest
/// straggler finishes, so its time-to-first-result IS the batch wall time;
/// streaming delivers each response as it certifies. The JSON reports
/// time-to-first-result, median and p99 per-request delivery latency for
/// both modes.
///
/// Checks enforced (exit code 1 on violation):
///  * every returned period is certificate-validated (Result is ok);
///  * no returned period is worse than the best individual strategy run
///    sequentially on that instance (same strategy set, same validation);
///  * pruned and blind arms certify identical periods;
///  * blocking and streaming modes agree period-for-period.
///
/// PMCAST_FULL=1 scales the pool and batch up to paper-scale platforms.
/// --smoke runs only the pruned-vs-blind differential on a reduced corpus
/// (the bench_smoke tier-1 ctest target): exit 1 on any violation.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "pmcast/core.hpp"
#include "pmcast/graph.hpp"
#include "pmcast/pmcast.hpp"
#include "pmcast/runtime.hpp"
#include "pmcast/scenario.hpp"
#include "pmcast/topology.hpp"

using namespace pmcast;

namespace {

core::MulticastProblem random_instance(std::uint64_t seed, int n) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  while (true) {
    Digraph g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) {
        if (u != v && rng.bernoulli(0.4)) {
          g.add_edge(u, v, rng.uniform_real(0.5, 3.0));
        }
      }
    }
    std::vector<NodeId> targets;
    for (int v = 1; v < n; ++v) {
      if (rng.bernoulli(0.5)) targets.push_back(v);
    }
    if (targets.empty()) targets.push_back(n - 1);
    core::MulticastProblem p(g, 0, targets);
    if (p.feasible()) return p;
  }
}

core::MulticastProblem hunted_instance(scenario::Family family,
                                       scenario::TargetPolicy policy,
                                       int nodes, double density,
                                       std::uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.family = family;
  spec.policy = policy;
  spec.nodes = nodes;
  spec.target_density = density;
  spec.seed = seed;
  return scenario::generate_scenario(spec).problem;
}

/// The adversarial corpus found by `pmcast_gen --hunt` (same specs as the
/// hunted tests/data golden instances): the first three make a tree
/// heuristic certify AT the probe's lower bound (the early-win cut), the
/// last two make a dominance verdict land mid-probe-sequence (the
/// probes-skipped cut). Random dense digraphs exercise neither, which is
/// how both counters managed to stay at zero for a whole release.
std::vector<core::MulticastProblem> hunted_corpus() {
  using scenario::Family;
  using scenario::TargetPolicy;
  return {
      hunted_instance(Family::FatTree, TargetPolicy::Hotspot, 8, 0.5, 1),
      hunted_instance(Family::Star, TargetPolicy::LeafBiased, 8, 0.5, 1),
      hunted_instance(Family::Grid, TargetPolicy::Uniform, 10, 0.5, 1),
      hunted_instance(Family::Tiers, TargetPolicy::Uniform, 10, 0.5, 1),
      hunted_instance(Family::FatTree, TargetPolicy::Uniform, 8, 0.5, 1),
  };
}

using BenchClock = std::chrono::steady_clock;

double ms_since(BenchClock::time_point start) {
  return std::chrono::duration<double, std::milli>(BenchClock::now() - start)
      .count();
}

core::MulticastProblem tiers_instance(int lan_nodes, std::uint64_t seed) {
  topo::TiersParams params;
  params.wan_nodes = 4;
  params.mans = 2;
  params.man_nodes = 3;
  params.lans = std::max(2, lan_nodes / 5);
  params.lan_nodes = lan_nodes;
  topo::Platform platform = topo::generate_tiers(params, seed);
  Rng rng(seed + 17);
  auto targets = topo::sample_targets(platform, 0.5, rng);
  return core::MulticastProblem(platform.graph, platform.source, targets);
}

/// Cold-vs-warm comparison of the two platform heuristics on the paper's
/// tiers platforms: same sequences, warm-start layer toggled.
/// (augmented_sources solves every program cold, so it has no warm arm.)
struct LpWarmReport {
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  long long cold_iterations = 0;
  long long warm_iterations = 0;
  int warm_hits = 0;
  int warm_solves = 0;
  int cold_fallbacks = 0;
  int mismatches = 0;
  /// The warm-sequence primitive (one masked Broadcast-EB program across a
  /// sweep of one-node-removal masks), mirroring bench/micro_lp's
  /// BM_MaskedEbSweep — the per-probe cost every platform heuristic pays.
  double sweep_cold_ms = 0.0;
  double sweep_warm_ms = 0.0;
  long long sweep_cold_iterations = 0;
  long long sweep_warm_iterations = 0;

  double speedup() const { return warm_ms > 0.0 ? cold_ms / warm_ms : 0.0; }
  double sweep_speedup() const {
    return sweep_warm_ms > 0.0 ? sweep_cold_ms / sweep_warm_ms : 0.0;
  }
  double hit_rate() const {
    return warm_solves > 0
               ? static_cast<double>(warm_hits) / warm_solves
               : 0.0;
  }
};

LpWarmReport run_lp_warm_phase(const std::vector<core::MulticastProblem>&
                                   instances) {
  LpWarmReport report;
  core::HeuristicOptions cold_options, warm_options;
  cold_options.warm_start = false;
  warm_options.warm_start = true;

  auto agree = [&](double cold, double warm) {
    if (cold == kInfinity || warm == kInfinity) return cold == warm;
    return std::abs(warm - cold) <= 1e-6 * (1.0 + std::abs(cold));
  };
  auto account = [&](double cold_period, const lp::ResolveStats& cold_stats,
                     double warm_period, const lp::ResolveStats& warm_stats) {
    report.cold_iterations += cold_stats.iterations;
    report.warm_iterations += warm_stats.iterations;
    report.warm_hits += warm_stats.warm_starts;
    report.warm_solves += warm_stats.solves;
    report.cold_fallbacks += warm_stats.cold_fallbacks;
    if (!agree(cold_period, warm_period)) {
      std::printf("VIOLATION: warm-started heuristic period %.9g != cold "
                  "%.9g\n", warm_period, cold_period);
      ++report.mismatches;
    }
  };

  for (const auto& problem : instances) {
    BenchClock::time_point t0 = BenchClock::now();
    auto rb_cold = core::reduced_broadcast(problem, cold_options);
    auto am_cold = core::augmented_multicast(problem, cold_options);
    report.cold_ms += ms_since(t0);

    t0 = BenchClock::now();
    auto rb_warm = core::reduced_broadcast(problem, warm_options);
    auto am_warm = core::augmented_multicast(problem, warm_options);
    report.warm_ms += ms_since(t0);

    account(rb_cold.period, rb_cold.lp_stats, rb_warm.period,
            rb_warm.lp_stats);
    account(am_cold.period, am_cold.lp_stats, am_warm.period,
            am_warm.lp_stats);

    // The sweep primitive: re-solve the same masked program across every
    // one-node-removal mask, warm layer off then on; the two arms must
    // agree per mask.
    std::vector<double> cold_periods;
    for (bool warm : {false, true}) {
      BenchClock::time_point t0 = BenchClock::now();
      core::MaskedBroadcastEb eb(problem.graph, problem.source);
      eb.set_warm_start(warm);
      std::vector<char> keep(
          static_cast<size_t>(problem.graph.node_count()), 1);
      eb.solve(keep);
      size_t mask_index = 0;
      for (NodeId v = 0; v < problem.graph.node_count(); ++v) {
        if (v == problem.source) continue;
        keep[static_cast<size_t>(v)] = 0;
        auto sol = eb.solve(keep);
        double period = sol ? *sol : kInfinity;
        if (!warm) {
          cold_periods.push_back(period);
        } else if (!agree(cold_periods[mask_index], period)) {
          std::printf("VIOLATION: masked sweep arms disagree (cold %.9g, "
                      "warm %.9g)\n", cold_periods[mask_index], period);
          ++report.mismatches;
        }
        ++mask_index;
        keep[static_cast<size_t>(v)] = 1;
      }
      double elapsed = ms_since(t0);
      if (warm) {
        report.sweep_warm_ms += elapsed;
        report.sweep_warm_iterations += eb.stats().iterations;
      } else {
        report.sweep_cold_ms += elapsed;
        report.sweep_cold_iterations += eb.stats().iterations;
      }
    }
  }
  return report;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(xs.size() - 1));
  return xs[idx];
}

/// -------- phase 1.75: cooperative pruning, pruned-vs-blind ------------
/// One arm = a cold cache-less engine serving the corpus once under one
/// PruningPolicy. Iterations count everything the arm paid, including the
/// pruning arm's Multicast-LB probes.
struct PruningArm {
  double wall_ms = 0.0;
  long long iterations = 0;
  int strategies_pruned = 0;
  int early_win_cancels = 0;
  int probes_skipped = 0;
  std::vector<double> periods;
  std::vector<StrategyId> winners;
};

std::vector<SolveRequest> make_requests(
    const std::vector<core::MulticastProblem>& batch) {
  std::vector<SolveRequest> requests;
  requests.reserve(batch.size());
  for (const auto& problem : batch) {
    SolveRequest request;
    request.problem = problem;
    requests.push_back(std::move(request));
  }
  return requests;
}

PruningArm run_pruning_arm(const std::vector<core::MulticastProblem>& corpus,
                           PruningPolicy policy, int threads) {
  ServiceOptions options;
  options.threads = threads;
  options.cache_capacity = 0;  // measure solving, not caching
  options.pruning = policy;
  runtime::PortfolioEngine engine(options);

  PruningArm arm;
  BenchClock::time_point t0 = BenchClock::now();
  std::vector<runtime::PortfolioResult> results =
      engine.solve_batch(make_requests(corpus));
  arm.wall_ms = ms_since(t0);
  for (const runtime::PortfolioResult& r : results) {
    arm.periods.push_back(r.ok ? r.period : kInfinity);
    arm.winners.push_back(r.winner);
    arm.iterations += r.pruning.lb_probe_iterations;
    arm.strategies_pruned += r.pruning.strategies_pruned;
    arm.early_win_cancels += r.pruning.early_win_cancels;
    arm.probes_skipped += r.pruning.probes_skipped;
    for (const StrategyOutcome& c : r.outcomes) {
      arm.iterations += c.lp.iterations;
    }
  }
  return arm;
}

struct PruningReport {
  PruningArm blind;
  PruningArm det;
  int mismatches = 0;

  double det_speedup() const {
    return det.wall_ms > 0.0 ? blind.wall_ms / det.wall_ms : 0.0;
  }
  double det_iteration_saving() const {
    return blind.iterations > 0
               ? 1.0 - static_cast<double>(det.iterations) /
                           static_cast<double>(blind.iterations)
               : 0.0;
  }
};

PruningReport run_pruning_phase(
    const std::vector<core::MulticastProblem>& corpus, int threads) {
  PruningReport report;
  report.blind = run_pruning_arm(corpus, PruningPolicy::Off, threads);
  report.det = run_pruning_arm(corpus, PruningPolicy::Deterministic, threads);
  for (size_t i = 0; i < corpus.size(); ++i) {
    // Deterministic must certify the bit-identical period AND winner.
    if (report.det.periods[i] != report.blind.periods[i] ||
        report.det.winners[i] != report.blind.winners[i]) {
      std::printf("VIOLATION: deterministic pruning changed instance %zu "
                  "(blind %.12g/%s, pruned %.12g/%s)\n",
                  i, report.blind.periods[i],
                  strategy_id_name(report.blind.winners[i]),
                  report.det.periods[i],
                  strategy_id_name(report.det.winners[i]));
      ++report.mismatches;
    }
  }
  return report;
}

void print_pruning_report(const PruningReport& report) {
  bench::Table table({"arm", "wall ms", "simplex iters", "pruned",
                      "early-win", "probes skipped"});
  auto row = [&](const char* name, const PruningArm& arm) {
    table.add_row({name, bench::fmt(arm.wall_ms, 1),
                   std::to_string(arm.iterations),
                   std::to_string(arm.strategies_pruned),
                   std::to_string(arm.early_win_cancels),
                   std::to_string(arm.probes_skipped)});
  };
  row("blind (Off)", report.blind);
  row("deterministic", report.det);
  table.print();
  std::printf("deterministic pruning: %.2fx wall, %.0f%% fewer simplex "
              "iterations, %d period/winner mismatches\n",
              report.det_speedup(), 100.0 * report.det_iteration_saving(),
              report.mismatches);
}

/// -------- tracing overhead: Off vs Counters (the always-on default) ---
struct TraceOverheadReport {
  double off_ms = 0.0;       ///< best-of-N wall, tracing compiled out
  double counters_ms = 0.0;  ///< best-of-N wall, default Counters detail
  double overhead_pct() const {
    return off_ms > 0.0 ? 100.0 * (counters_ms - off_ms) / off_ms : 0.0;
  }
};

TraceOverheadReport run_trace_overhead(
    const std::vector<core::MulticastProblem>& corpus, int threads) {
  // Best-of-3 per arm: the 2% acceptance bar is below single-run noise on
  // a loaded CI box, and the minimum is the right estimator for a fixed
  // workload (noise only ever adds time).
  TraceOverheadReport report;
  auto best_of = [&](TraceDetail detail) {
    double best = kInfinity;
    for (int rep = 0; rep < 3; ++rep) {
      ServiceOptions options;
      options.threads = threads;
      options.cache_capacity = 0;
      options.trace = detail;
      runtime::PortfolioEngine engine(options);
      BenchClock::time_point t0 = BenchClock::now();
      engine.solve_batch(make_requests(corpus));
      best = std::min(best, ms_since(t0));
    }
    return best;
  };
  report.off_ms = best_of(TraceDetail::Off);
  report.counters_ms = best_of(TraceDetail::Counters);
  return report;
}

/// -------- cache contention micro-bench (sharded vs single mutex) ------
double hammer_cache(runtime::ResultCache& cache, int threads, int ops) {
  // Realistic payload: a full portfolio result (outcome slots, detail
  // strings) is copied under the shard lock on every hit, which is what
  // makes a single global mutex a convoy under concurrent serving.
  runtime::PortfolioResult result;
  result.ok = true;
  result.period = 1.0;
  result.outcomes.resize(8);
  for (auto& c : result.outcomes) {
    c.state = OutcomeState::Certified;
    c.period = 1.0;
    c.detail = "certified via scatter on the reduced platform; "
               "Broadcast-EB bound is advisory";
  }
  // Pre-populate so the traffic is hit-dominated (the serving profile).
  for (std::uint64_t id = 0; id < 512; ++id) {
    cache.put(InstanceKey{id, id * 0x9e3779b97f4a7c15ULL + 1}, result);
  }
  std::vector<std::thread> workers;
  BenchClock::time_point t0 = BenchClock::now();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&cache, &result, t, ops] {
      for (int i = 0; i < ops; ++i) {
        std::uint64_t id =
            static_cast<std::uint64_t>((t * 131 + i * 7) % 512);
        InstanceKey key{id, id * 0x9e3779b97f4a7c15ULL + 1};
        if (i % 16 == 0) {
          cache.put(key, result);
        } else {
          cache.get(key);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  return ms_since(t0);
}

/// -------- lp_scale phase: sparse LP + column-generation scaling -------
/// One point = one certified end-to-end solve of a generated instance
/// through the public Service facade with the exact strategy routed to the
/// column-generation solver (colgen_max_nodes = n). The tree heuristics
/// ride along both as the baseline the CG master must not lose to (its
/// seed columns ARE their trees, so losing means the master or pricing
/// regressed) and as the fallback that keeps the point certified if a
/// deadline cuts the master. Pruning is off: the Multicast-LB probe is a
/// T*E-variable flow LP, far bigger than the 2n-row master at these sizes.
struct LpScalePoint {
  std::string family;
  int nodes = 0;
  int edges = 0;
  int targets = 0;
  bool certified = false;
  bool colgen_certified = false;
  double period = kInfinity;
  double heuristic_period = kInfinity;  ///< best tree-heuristic period
  double colgen_bound = kInfinity;      ///< CG master's advisory bound
  double wall_ms = 0.0;
  int columns_priced = 0;
  int master_iterations = 0;
  double pricing_ms = 0.0;
  long long lp_iterations = 0;
  std::string winner;
};

core::MulticastProblem lp_scale_instance(scenario::Family family, int nodes,
                                         std::uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.family = family;
  spec.policy = scenario::TargetPolicy::Uniform;
  spec.nodes = nodes;
  spec.target_density = 0.3;
  spec.seed = seed;
  return scenario::generate_scenario(spec).problem;
}

std::vector<LpScalePoint> run_lp_scale(const std::vector<int>& sizes,
                                       int threads, int* violations) {
  ServiceOptions options;
  options.threads = threads;
  options.cache_capacity = 0;
  Service service(options);

  std::vector<LpScalePoint> points;
  for (int n : sizes) {
    for (scenario::Family family :
         {scenario::Family::PowerLaw, scenario::Family::FatTree}) {
      LpScalePoint point;
      point.family = scenario::family_name(family);
      core::MulticastProblem problem =
          lp_scale_instance(family, n, 7 + static_cast<std::uint64_t>(n));
      point.nodes = problem.graph.node_count();
      point.edges = problem.graph.edge_count();
      point.targets = static_cast<int>(problem.targets.size());

      SolveRequest request;
      request.problem = problem;
      request.strategies = {StrategyId::Mcph, StrategyId::PrunedDijkstra,
                            StrategyId::Kmb, StrategyId::Exact};
      request.pruning = PruningPolicy::Off;
      request.limits.colgen_max_nodes = point.nodes;
      // Generous per-point ceiling so a pathological point cannot hang the
      // bench; the heuristics still certify the point if it fires.
      request.deadline_ms = 120'000.0;

      BenchClock::time_point t0 = BenchClock::now();
      Result<SolveResponse> response = service.solve(request);
      point.wall_ms = ms_since(t0);

      if (response.ok()) {
        point.certified = true;
        point.period = response->period;
        point.winner = strategy_id_name(response->winner);
        for (const StrategyOutcome& o : response->outcomes) {
          point.lp_iterations += o.lp.iterations;
          if (o.strategy == StrategyId::Exact) {
            point.colgen_certified = o.state == OutcomeState::Certified;
            point.colgen_bound = o.bound_period;
            point.columns_priced = o.lp.columns_priced;
            point.master_iterations = o.lp.master_iterations;
            point.pricing_ms = o.lp.pricing_ms;
          } else if (o.state == OutcomeState::Certified) {
            point.heuristic_period =
                std::min(point.heuristic_period, o.period);
          }
        }
        if (!point.colgen_certified) {
          std::printf("VIOLATION: lp_scale %s n=%d: column generation did "
                      "not certify\n", point.family.c_str(), point.nodes);
          ++*violations;
        } else if (point.period >
                   point.heuristic_period + 1e-6 * point.heuristic_period) {
          // The master's seed columns are the heuristics' trees, so the
          // certified winner can never be worse than the best heuristic.
          std::printf("VIOLATION: lp_scale %s n=%d: period %.6g worse than "
                      "best seed heuristic %.6g\n", point.family.c_str(),
                      point.nodes, point.period, point.heuristic_period);
          ++*violations;
        }
      } else {
        std::printf("VIOLATION: lp_scale %s n=%d failed to certify: %s\n",
                    point.family.c_str(), point.nodes,
                    response.status().to_string().c_str());
        ++*violations;
      }
      points.push_back(std::move(point));
    }
  }
  return points;
}

void print_lp_scale(const std::vector<LpScalePoint>& points) {
  bench::Table table({"family", "n", "edges", "wall ms", "columns",
                      "masters", "pivots", "pricing ms", "winner",
                      "period"});
  for (const LpScalePoint& p : points) {
    table.add_row({p.family, std::to_string(p.nodes),
                   std::to_string(p.edges), bench::fmt(p.wall_ms, 1),
                   std::to_string(p.columns_priced),
                   std::to_string(p.master_iterations),
                   std::to_string(p.lp_iterations),
                   bench::fmt(p.pricing_ms, 1),
                   p.certified ? p.winner : "UNCERTIFIED",
                   bench::fmt(p.period, 4)});
  }
  table.print();
}

void json_lp_scale(std::ofstream& json, const std::vector<LpScalePoint>& points,
                   int violations) {
  json << "  \"lp_scale\": {\n"
       << "    \"points\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const LpScalePoint& p = points[i];
    json << "      {\"family\": \"" << p.family << "\", \"nodes\": "
         << p.nodes << ", \"edges\": " << p.edges << ", \"targets\": "
         << p.targets << ", \"certified\": "
         << (p.certified ? "true" : "false") << ", \"colgen_certified\": "
         << (p.colgen_certified ? "true" : "false") << ", \"period\": "
         << (p.certified ? p.period : -1.0) << ", \"wall_ms\": " << p.wall_ms
         << ", \"columns_priced\": " << p.columns_priced
         << ", \"master_iterations\": " << p.master_iterations
         << ", \"pricing_ms\": " << p.pricing_ms
         << ", \"lp_iterations\": " << p.lp_iterations << ", \"winner\": \""
         << p.winner << "\"}" << (i + 1 < points.size() ? ",\n" : "\n");
  }
  json << "    ],\n"
       << "    \"violations\": " << violations << "\n"
       << "  },\n";
}

/// --lp-scale-smoke / --lp-scale-full: the standalone scaling gates (the
/// tier-1 n<=100 smoke and the slow-labelled full curve). Exit 1 on any
/// uncertified point or a CG master losing to its own seed heuristics.
int run_lp_scale_standalone(bool full_curve) {
  std::vector<int> sizes = full_curve ? std::vector<int>{10, 50, 100, 500,
                                                         1000}
                                      : std::vector<int>{10, 50, 100};
  std::printf("=== lp_scale%s: sparse LP + column generation, n up to %d "
              "===\n", full_curve ? " (full curve)" : " (smoke)",
              sizes.back());
  int violations = 0;
  std::vector<LpScalePoint> points = run_lp_scale(sizes, 8, &violations);
  print_lp_scale(points);
  std::printf("lp_scale: %d violations over %zu points\n", violations,
              points.size());
  return violations > 0 ? 1 : 0;
}

}  // namespace

/// --smoke: the bench_smoke tier-1 ctest target. A reduced corpus, the
/// pruned-vs-blind differential only; exit 1 if any arm certifies a
/// different period than blind mode or any request fails to certify.
int run_smoke() {
  std::printf("=== bench_smoke: pruned-vs-blind differential ===\n");
  std::vector<core::MulticastProblem> corpus;
  for (int i = 0; i < 8; ++i) {
    corpus.push_back(random_instance(static_cast<std::uint64_t>(i) + 1, 8));
  }
  corpus.push_back(tiers_instance(5, 11));
  corpus.push_back(tiers_instance(6, 112));
  for (auto& problem : hunted_corpus()) corpus.push_back(std::move(problem));
  PruningReport report = run_pruning_phase(corpus, 8);
  print_pruning_report(report);
  int violations = report.mismatches;
  for (double period : report.blind.periods) {
    if (period == kInfinity) {
      std::printf("VIOLATION: a smoke instance failed to certify\n");
      ++violations;
    }
  }
  // Dead-counter tripwires: the hunted instances fire both cuts by
  // construction, so a zero here means the cut regressed to unreachable
  // (the exact failure mode this PR fixed), not that the corpus is soft.
  if (report.det.early_win_cancels == 0) {
    std::printf("VIOLATION: early_win_cancels == 0 over the smoke corpus "
                "(the probe-derived early-win cut is dead again)\n");
    ++violations;
  }
  if (report.det.probes_skipped == 0) {
    std::printf("VIOLATION: probes_skipped == 0 over the smoke corpus "
                "(the between-probe incumbent poll is dead again)\n");
    ++violations;
  }
  std::printf("bench_smoke: %d violations over %zu instances\n", violations,
              corpus.size());
  return violations > 0 ? 1 : 0;
}

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
    if (std::strcmp(argv[i], "--lp-scale-smoke") == 0) {
      return run_lp_scale_standalone(false);
    }
    if (std::strcmp(argv[i], "--lp-scale-full") == 0) {
      return run_lp_scale_standalone(true);
    }
  }
  const bool full = bench::full_mode();
  const int kUnique = full ? 40 : 25;
  const int kRequests = full ? 400 : 100;
  const int kNodes = full ? 10 : 8;
  const int kThreads = 8;

  std::printf("=== v1 API portfolio bench: %d-request batch over %d unique "
              "instances (%d-node platforms, %d threads) ===\n",
              kRequests, kUnique, kNodes, kThreads);

  std::vector<core::MulticastProblem> pool_instances;
  for (int i = 0; i < kUnique; ++i) {
    pool_instances.push_back(
        random_instance(static_cast<std::uint64_t>(i) + 1, kNodes));
  }
  // Skewed repetition: hot instances dominate, like any serving workload.
  Rng rng(12345);
  std::vector<core::MulticastProblem> batch;
  for (int r = 0; r < kRequests; ++r) {
    double u = rng.uniform_real();
    int idx = static_cast<int>(u * u * kUnique);
    if (idx >= kUnique) idx = kUnique - 1;
    batch.push_back(pool_instances[static_cast<size_t>(idx)]);
  }

  // ---- baseline: sequentially certify every strategy on every request ----
  BenchClock::time_point t0 = BenchClock::now();
  std::vector<double> baseline_best(static_cast<size_t>(kRequests),
                                    kInfinity);
  {
    runtime::BudgetGuard unlimited;
    runtime::PortfolioOptions options;
    std::vector<StrategyId> strategies = all_strategy_ids();
    for (int r = 0; r < kRequests; ++r) {
      for (StrategyId s : strategies) {
        StrategyOutcome outcome = runtime::run_strategy(
            batch[static_cast<size_t>(r)], s, options, unlimited);
        if (outcome.state == OutcomeState::Certified) {
          baseline_best[static_cast<size_t>(r)] =
              std::min(baseline_best[static_cast<size_t>(r)], outcome.period);
        }
      }
    }
  }
  double baseline_ms = ms_since(t0);

  ServiceOptions service_options;
  service_options.threads = kThreads;
  service_options.cache_capacity = 4096;

  // ---- phase 1: the facade, cold then warm (cache) ----
  Service service(service_options);
  t0 = BenchClock::now();
  std::vector<Result<SolveResponse>> results =
      service.solve_batch(make_requests(batch));
  double engine_ms = ms_since(t0);

  // A second identical batch measures the steady-state (warm cache) path.
  t0 = BenchClock::now();
  std::vector<Result<SolveResponse>> warm =
      service.solve_batch(make_requests(batch));
  double warm_ms = ms_since(t0);

  int violations = 0;
  for (int r = 0; r < kRequests; ++r) {
    const Result<SolveResponse>& res = results[static_cast<size_t>(r)];
    if (!res.ok()) {
      std::printf("VIOLATION: request %d returned no certified period: %s\n",
                  r, res.status().to_string().c_str());
      ++violations;
      continue;
    }
    if (res->period > baseline_best[static_cast<size_t>(r)] + 1e-6) {
      std::printf("VIOLATION: request %d period %.6g worse than best "
                  "individual strategy %.6g\n",
                  r, res->period, baseline_best[static_cast<size_t>(r)]);
      ++violations;
    }
  }
  for (int r = 0; r < kRequests; ++r) {
    const Result<SolveResponse>& res = warm[static_cast<size_t>(r)];
    if (!res.ok() ||
        res->period != results[static_cast<size_t>(r)]->period) {
      std::printf("VIOLATION: warm batch disagrees on request %d\n", r);
      ++violations;
    }
  }

  CacheMetrics metrics = service.cache_metrics();
  double speedup = engine_ms > 0.0 ? baseline_ms / engine_ms : 0.0;
  double warm_speedup = warm_ms > 0.0 ? baseline_ms / warm_ms : 0.0;

  // ---- phase 1.5: warm-started LP sequences (cold vs warm arms) ----
  std::printf("\n=== LP refinement heuristics: cold vs warm-started ===\n");
  std::vector<core::MulticastProblem> lp_instances;
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    lp_instances.push_back(tiers_instance(full ? 8 : 5, seed));
    lp_instances.push_back(tiers_instance(full ? 10 : 6, seed + 100));
  }
  LpWarmReport lp_report = run_lp_warm_phase(lp_instances);
  violations += lp_report.mismatches;

  bench::Table lp_table({"arm", "wall ms", "simplex iters", "warm hits"});
  lp_table.add_row({"cold re-solve", bench::fmt(lp_report.cold_ms, 1),
                    std::to_string(lp_report.cold_iterations), "0"});
  lp_table.add_row({"warm-started", bench::fmt(lp_report.warm_ms, 1),
                    std::to_string(lp_report.warm_iterations),
                    std::to_string(lp_report.warm_hits) + "/" +
                        std::to_string(lp_report.warm_solves)});
  lp_table.print();
  std::printf("heuristic sequences: %.2fx wall, %.2fx fewer simplex "
              "iterations, %.0f%% warm-start hit rate, %d cold fallbacks\n",
              lp_report.speedup(),
              lp_report.warm_iterations > 0
                  ? static_cast<double>(lp_report.cold_iterations) /
                        static_cast<double>(lp_report.warm_iterations)
                  : 0.0,
              100.0 * lp_report.hit_rate(), lp_report.cold_fallbacks);
  std::printf("masked-EB sweep primitive: %.1f ms cold vs %.1f ms warm "
              "(%.2fx), iterations %lld -> %lld\n",
              lp_report.sweep_cold_ms, lp_report.sweep_warm_ms,
              lp_report.sweep_speedup(), lp_report.sweep_cold_iterations,
              lp_report.sweep_warm_iterations);

  // ---- phase 1.75: cooperative pruning, pruned vs blind ----
  std::printf("\n=== cooperative pruning: pruned vs blind (cold, no "
              "cache) ===\n");
  std::vector<core::MulticastProblem> pruning_corpus = pool_instances;
  for (const auto& p : lp_instances) pruning_corpus.push_back(p);
  for (auto& p : hunted_corpus()) pruning_corpus.push_back(std::move(p));
  PruningReport pruning_report = run_pruning_phase(pruning_corpus, kThreads);
  print_pruning_report(pruning_report);
  violations += pruning_report.mismatches;
  if (pruning_report.det.early_win_cancels == 0 ||
      pruning_report.det.probes_skipped == 0) {
    std::printf("VIOLATION: a pruning counter is dead (early_win_cancels "
                "%d, probes_skipped %d) despite the hunted corpus\n",
                pruning_report.det.early_win_cancels,
                pruning_report.det.probes_skipped);
    ++violations;
  }

  // ---- lp_scale: sparse LP + column generation scaling curve ----
  std::printf("\n=== lp_scale: sparse LP + column generation (n up to "
              "1000) ===\n");
  int lp_scale_violations = 0;
  std::vector<LpScalePoint> lp_scale_points =
      run_lp_scale({10, 50, 100, 500, 1000}, kThreads, &lp_scale_violations);
  print_lp_scale(lp_scale_points);
  violations += lp_scale_violations;

  // ---- tracing overhead: Off vs the always-on Counters default ----
  TraceOverheadReport trace_overhead =
      run_trace_overhead(pruning_corpus, kThreads);
  std::printf("\ntracing overhead (Counters vs Off, best of 3): %.1f ms vs "
              "%.1f ms (%+.2f%%; acceptance bar 2%%)\n",
              trace_overhead.counters_ms, trace_overhead.off_ms,
              trace_overhead.overhead_pct());

  // The phase-1 service ran with the default Counters detail: its merged
  // trace is the production profiling view (what kTraceRequest serves).
  SolveTrace aggregate = service.aggregate_trace();

  // ---- cache contention micro-bench: sharded vs single mutex ----
  const int kCacheOps = full ? 400000 : 100000;
  double cache_unsharded_ms, cache_sharded_ms;
  std::size_t cache_auto_shards;
  {
    runtime::ResultCache unsharded(4096, 1);
    cache_unsharded_ms = hammer_cache(unsharded, kThreads, kCacheOps);
    runtime::ResultCache sharded(4096);  // auto: scales with the machine
    cache_auto_shards = sharded.shard_count();
    cache_sharded_ms = hammer_cache(sharded, kThreads, kCacheOps);
  }
  double cache_speedup = cache_sharded_ms > 0.0
                             ? cache_unsharded_ms / cache_sharded_ms
                             : 0.0;
  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("result-cache contention (%d threads x %d ops): single mutex "
              "%.1f ms, %zu auto shard(s) %.1f ms (%.2fx)\n",
              kThreads, kCacheOps, cache_unsharded_ms, cache_auto_shards,
              cache_sharded_ms, cache_speedup);
  if (hw_threads <= 1) {
    std::printf("  note: %u hardware thread(s) — threads timeslice instead "
                "of contending, so shard scaling cannot show here\n",
                hw_threads);
  }

  bench::Table table({"mode", "wall ms", "speedup vs sequential"});
  table.add_row({"sequential strategies", bench::fmt(baseline_ms, 1), "1.0"});
  table.add_row({"service cold batch", bench::fmt(engine_ms, 1),
                 bench::fmt(speedup, 2)});
  table.add_row({"service warm batch", bench::fmt(warm_ms, 1),
                 bench::fmt(warm_speedup, 2)});
  table.print();
  std::printf("cache: %zu hits / %zu misses (%.0f%% hit rate), %zu entries\n",
              metrics.hits, metrics.misses, 100.0 * metrics.hit_rate(),
              metrics.entries);

  std::ofstream json("BENCH_runtime.json");
  json << "{\n"
       << "  \"bench\": \"runtime_portfolio\",\n"
       << "  \"api\": \"pmcast::Service v" << api_version() << "\",\n"
       << "  \"requests\": " << kRequests << ",\n"
       << "  \"unique_instances\": " << kUnique << ",\n"
       << "  \"nodes_per_instance\": " << kNodes << ",\n"
       << "  \"threads\": " << kThreads << ",\n"
       << "  \"hardware_threads\": " << hw_threads << ",\n"
       << "  \"sequential_ms\": " << baseline_ms << ",\n"
       << "  \"engine_cold_ms\": " << engine_ms << ",\n"
       << "  \"engine_warm_ms\": " << warm_ms << ",\n"
       << "  \"speedup_cold\": " << speedup << ",\n"
       << "  \"speedup_warm\": " << warm_speedup << ",\n"
       << "  \"cache_hits\": " << metrics.hits << ",\n"
       << "  \"cache_misses\": " << metrics.misses << ",\n"
       << "  \"lp_warm\": {\n"
       << "    \"instances\": " << lp_instances.size() << ",\n"
       << "    \"cold_ms\": " << lp_report.cold_ms << ",\n"
       << "    \"warm_ms\": " << lp_report.warm_ms << ",\n"
       << "    \"speedup\": " << lp_report.speedup() << ",\n"
       << "    \"cold_iterations\": " << lp_report.cold_iterations << ",\n"
       << "    \"warm_iterations\": " << lp_report.warm_iterations << ",\n"
       << "    \"warm_hit_rate\": " << lp_report.hit_rate() << ",\n"
       << "    \"cold_fallbacks\": " << lp_report.cold_fallbacks << ",\n"
       << "    \"period_mismatches\": " << lp_report.mismatches << ",\n"
       << "    \"sweep_cold_ms\": " << lp_report.sweep_cold_ms << ",\n"
       << "    \"sweep_warm_ms\": " << lp_report.sweep_warm_ms << ",\n"
       << "    \"sweep_speedup\": " << lp_report.sweep_speedup() << ",\n"
       << "    \"sweep_cold_iterations\": " << lp_report.sweep_cold_iterations
       << ",\n"
       << "    \"sweep_warm_iterations\": " << lp_report.sweep_warm_iterations
       << "\n"
       << "  },\n"
       << "  \"pruning\": {\n"
       << "    \"instances\": " << pruning_corpus.size() << ",\n"
       << "    \"policy_default\": \"deterministic\",\n"
       << "    \"blind_ms\": " << pruning_report.blind.wall_ms << ",\n"
       << "    \"deterministic_ms\": " << pruning_report.det.wall_ms << ",\n"
       << "    \"speedup\": " << pruning_report.det_speedup() << ",\n"
       << "    \"blind_iterations\": " << pruning_report.blind.iterations
       << ",\n"
       << "    \"deterministic_iterations\": "
       << pruning_report.det.iterations << ",\n"
       << "    \"iteration_saving\": "
       << pruning_report.det_iteration_saving() << ",\n"
       << "    \"strategies_pruned\": "
       << pruning_report.det.strategies_pruned << ",\n"
       << "    \"early_win_cancels\": "
       << pruning_report.det.early_win_cancels << ",\n"
       << "    \"probes_skipped\": " << pruning_report.det.probes_skipped
       << ",\n"
       << "    \"period_mismatches\": " << pruning_report.mismatches << "\n"
       << "  },\n";
  json_lp_scale(json, lp_scale_points, lp_scale_violations);
  auto json_predicate = [&json](const char* name,
                                const CutPredicateTrace& p, bool last) {
    json << "      \"" << name << "\": {\"evaluated\": " << p.evaluated
         << ", \"hits\": " << p.hits << ", \"closest_miss\": ";
    if (std::isfinite(p.closest_miss)) {
      json << p.closest_miss;
    } else {
      json << "null";  // infinity = never missed; JSON has no Inf literal
    }
    json << "}" << (last ? "\n" : ",\n");
  };
  json << "  \"trace\": {\n"
       << "    \"detail\": \"" << trace_detail_name(aggregate.detail)
       << "\",\n"
       << "    \"overhead_off_ms\": " << trace_overhead.off_ms << ",\n"
       << "    \"overhead_counters_ms\": " << trace_overhead.counters_ms
       << ",\n"
       << "    \"overhead_pct\": " << trace_overhead.overhead_pct() << ",\n"
       << "    \"predicates\": {\n";
  json_predicate("sub_scatter", aggregate.sub_scatter, false);
  json_predicate("early_win", aggregate.early_win, false);
  json_predicate("probe_poll", aggregate.probe_poll, false);
  json_predicate("reconstruct_skip", aggregate.reconstruct_skip, true);
  json << "    },\n"
       << "    \"checkpoint_polls\": " << aggregate.checkpoint_polls << ",\n"
       << "    \"checkpoint_mean_us\": " << aggregate.checkpoint_mean_us()
       << ",\n"
       << "    \"checkpoint_max_us\": " << aggregate.checkpoint_max_us
       << ",\n"
       << "    \"checkpoint_hist\": [";
  for (size_t i = 0; i < aggregate.checkpoint_hist.size(); ++i) {
    json << (i ? ", " : "") << aggregate.checkpoint_hist[i];
  }
  json << "]\n"
       << "  },\n"
       << "  \"cache_contention\": {\n"
       << "    \"threads\": " << kThreads << ",\n"
       << "    \"hardware_threads\": " << hw_threads << ",\n"
       << "    \"auto_shards\": " << cache_auto_shards << ",\n"
       << "    \"ops_per_thread\": " << kCacheOps << ",\n"
       << "    \"single_mutex_ms\": " << cache_unsharded_ms << ",\n"
       << "    \"sharded_ms\": " << cache_sharded_ms << ",\n"
       << "    \"speedup\": " << cache_speedup << "\n"
       << "  },\n"
       << "  \"all_certified\": " << (violations == 0 ? "true" : "false")
       << ",\n"
       << "  \"violations\": " << violations << "\n"
       << "}\n";
  std::printf("wrote BENCH_runtime.json\n\n");

  // ---- trace timeline artifact: one hunted race at Timeline detail ----
  // The early-win fat-tree instance tells the whole story in 8 slots:
  // trees certify, the probe proves the bound, the tail gets cancelled.
  {
    ServiceOptions timeline_options = service_options;
    timeline_options.trace = TraceDetail::Timeline;
    timeline_options.cache_capacity = 0;
    Service traced(timeline_options);
    SolveRequest request;
    request.problem = hunted_instance(scenario::Family::FatTree,
                                      scenario::TargetPolicy::Hotspot, 8,
                                      0.5, 1);
    Result<SolveResponse> response = traced.solve(request);
    std::ofstream tl("BENCH_trace_timeline.json");
    tl << "{\n"
       << "  \"bench\": \"trace_timeline\",\n"
       << "  \"instance\": \"fat_tree-n8-d50h-s1\",\n"
       << "  \"threads\": " << kThreads << ",\n"
       << "  \"hardware_threads\": " << hw_threads << ",\n";
    if (response.ok()) {
      const SolveTrace& trace = response->trace;
      tl << "  \"ok\": true,\n"
         << "  \"period\": " << response->period << ",\n"
         << "  \"winner\": \"" << strategy_id_name(response->winner)
         << "\",\n"
         << "  \"detail\": \"" << trace_detail_name(trace.detail) << "\",\n"
         << "  \"events\": [\n";
      for (size_t i = 0; i < trace.timeline.size(); ++i) {
        const TraceTimelineEvent& e = trace.timeline[i];
        tl << "    {\"t_us\": " << e.t_us << ", \"kind\": \""
           << trace_event_name(e.kind) << "\", \"strategy\": \""
           << strategy_id_name(e.strategy) << "\", \"slot\": " << e.slot
           << ", \"thread\": " << e.thread << ", \"value\": " << e.value
           << "}" << (i + 1 < trace.timeline.size() ? ",\n" : "\n");
      }
      tl << "  ]\n";
      std::printf("trace timeline: %zu events over %zu strategies "
                  "(winner %s)\n",
                  trace.timeline.size(), response->outcomes.size(),
                  strategy_id_name(response->winner));
      if (trace.timeline.empty()) {
        std::printf("VIOLATION: Timeline detail produced no events\n");
        ++violations;
      }
    } else {
      tl << "  \"ok\": false\n";
      std::printf("VIOLATION: the timeline instance failed to certify\n");
      ++violations;
    }
    tl << "}\n";
    std::printf("wrote BENCH_trace_timeline.json\n\n");
  }

  // ---- phase 2: blocking solve_batch vs streaming submit_batch ----
  // Fresh cold Service per mode so the comparison is caching-fair.
  std::printf("=== blocking solve_batch vs streaming submit_batch ===\n");

  Service blocking(service_options);
  t0 = BenchClock::now();
  std::vector<Result<SolveResponse>> blocking_results =
      blocking.solve_batch(make_requests(batch));
  double blocking_wall_ms = ms_since(t0);
  // Blocking semantics: nothing is visible until the whole batch returns.
  double blocking_ttfr_ms = blocking_wall_ms;
  std::vector<double> blocking_latencies(static_cast<size_t>(kRequests),
                                         blocking_wall_ms);

  Service streaming(service_options);
  std::vector<double> streaming_latencies(static_cast<size_t>(kRequests),
                                          0.0);
  std::mutex latency_mutex;
  double streaming_ttfr_ms = -1.0;
  t0 = BenchClock::now();
  SolveBatch handle = streaming.submit_batch(
      make_requests(batch),
      [&](std::size_t index, const Result<SolveResponse>&) {
        double at = ms_since(t0);
        std::lock_guard<std::mutex> lock(latency_mutex);
        streaming_latencies[index] = at;
        if (streaming_ttfr_ms < 0.0) streaming_ttfr_ms = at;
      });
  handle.wait_all();
  double streaming_wall_ms = ms_since(t0);

  // Cross-check: both modes certified, identical periods.
  for (int r = 0; r < kRequests; ++r) {
    Result<SolveResponse> s = handle.get(static_cast<size_t>(r));
    const Result<SolveResponse>& b = blocking_results[static_cast<size_t>(r)];
    if (!s.ok() || !b.ok()) {
      std::printf("VIOLATION: request %d uncertified in api phase\n", r);
      ++violations;
      continue;
    }
    if (s->period != b->period) {
      std::printf("VIOLATION: request %d blocking %.6g != streaming %.6g\n",
                  r, b->period, s->period);
      ++violations;
    }
  }

  double blocking_p50 = percentile(blocking_latencies, 0.50);
  double blocking_p99 = percentile(blocking_latencies, 0.99);
  double streaming_p50 = percentile(streaming_latencies, 0.50);
  double streaming_p99 = percentile(streaming_latencies, 0.99);
  double ttfr_speedup =
      streaming_ttfr_ms > 0.0 ? blocking_ttfr_ms / streaming_ttfr_ms : 0.0;

  bench::Table api_table({"mode", "wall ms", "ttfr ms", "p50 ms", "p99 ms"});
  api_table.add_row({"blocking solve_batch", bench::fmt(blocking_wall_ms, 1),
                     bench::fmt(blocking_ttfr_ms, 1),
                     bench::fmt(blocking_p50, 1),
                     bench::fmt(blocking_p99, 1)});
  api_table.add_row({"streaming submit_batch",
                     bench::fmt(streaming_wall_ms, 1),
                     bench::fmt(streaming_ttfr_ms, 1),
                     bench::fmt(streaming_p50, 1),
                     bench::fmt(streaming_p99, 1)});
  api_table.print();
  std::printf("time-to-first-result: streaming %.2fx ahead of blocking\n",
              ttfr_speedup);
  std::printf("validation: %d violations over %d requests (cold + warm + "
              "api phases)\n", violations, kRequests);

  std::ofstream api_json("BENCH_api.json");
  api_json << "{\n"
           << "  \"bench\": \"api_streaming\",\n"
           << "  \"api_version\": \"" << api_version() << "\",\n"
           << "  \"requests\": " << kRequests << ",\n"
           << "  \"unique_instances\": " << kUnique << ",\n"
           << "  \"nodes_per_instance\": " << kNodes << ",\n"
           << "  \"threads\": " << kThreads << ",\n"
           << "  \"hardware_threads\": " << hw_threads << ",\n"
           << "  \"blocking_wall_ms\": " << blocking_wall_ms << ",\n"
           << "  \"blocking_ttfr_ms\": " << blocking_ttfr_ms << ",\n"
           << "  \"blocking_p50_ms\": " << blocking_p50 << ",\n"
           << "  \"blocking_p99_ms\": " << blocking_p99 << ",\n"
           << "  \"streaming_wall_ms\": " << streaming_wall_ms << ",\n"
           << "  \"streaming_ttfr_ms\": " << streaming_ttfr_ms << ",\n"
           << "  \"streaming_p50_ms\": " << streaming_p50 << ",\n"
           << "  \"streaming_p99_ms\": " << streaming_p99 << ",\n"
           << "  \"ttfr_speedup\": " << ttfr_speedup << ",\n"
           << "  \"all_certified\": " << (violations == 0 ? "true" : "false")
           << ",\n"
           << "  \"violations\": " << violations << "\n"
           << "}\n";
  std::printf("wrote BENCH_api.json\n");

  if (violations > 0) return 1;
  if (speedup < 3.0) {
    std::printf("WARNING: cold speedup %.2f below the 3x acceptance bar\n",
                speedup);
  }
  if (ttfr_speedup < 1.0) {
    std::printf("WARNING: streaming ttfr %.2f not ahead of blocking\n",
                ttfr_speedup);
  }
  return 0;
}

/// The async surface of the v1 Service facade — the satellite coverage:
/// future timeout/wait_for, cancelling a batch mid-flight (not-yet-started
/// strategies skip, finished responses stay valid), callback ordering vs
/// determinism with 0/1/2/8 threads, coalesced followers observing the
/// leader's response, plus the Status classification of every failure
/// mode (invalid, infeasible, deadline, cancelled).

#include "pmcast/pmcast.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <mutex>
#include <set>
#include <vector>

#include "graph/rng.hpp"
#include "runtime/engine.hpp"
#include "test_requests.hpp"
#include "topology/tiers.hpp"

namespace pmcast {
namespace {

Problem random_problem(std::uint64_t seed, int lo = 5, int hi = 7) {
  Rng rng(seed * 2654435761ULL + 17);
  while (true) {
    int n = static_cast<int>(rng.uniform_int(lo, hi));
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
    Problem p(g, 0, targets);
    if (p.feasible()) return p;
  }
}

ServiceOptions with_threads(int threads) {
  ServiceOptions options;
  options.threads = threads;
  return options;
}

TEST(Service, SolveReturnsCertifiedResponse) {
  Service service(with_threads(2));
  Result<SolveResponse> result =
      service.solve(request_for(random_problem(1)));
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_GT(result->period, 0.0);
  EXPECT_GT(result->throughput(), 0.0);
  EXPECT_GE(result->certificate.certified, 1);
  EXPECT_EQ(result->outcomes.size(), all_strategy_ids().size());
  EXPECT_FALSE(result->provenance.from_cache);
  int counted = result->certificate.certified + result->certificate.failed +
                result->certificate.skipped + result->certificate.pruned;
  EXPECT_EQ(counted, static_cast<int>(result->outcomes.size()));
  // The default policy prunes cooperatively; pruned slots carry counters
  // and per-request summaries stay consistent with the outcome states.
  EXPECT_EQ(result->pruning.strategies_pruned +
                result->pruning.early_win_cancels,
            result->certificate.pruned);
  EXPECT_GE(result->timing.total_ms, 0.0);
}

TEST(Service, SecondSolveIsServedFromCache) {
  Service service(with_threads(1));
  SolveRequest request = request_for(random_problem(2));
  Result<SolveResponse> first = service.solve(request);
  ASSERT_TRUE(first.ok());
  Result<SolveResponse> second = service.solve(request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->provenance.from_cache);
  EXPECT_EQ(second->period, first->period);  // bit-identical
  EXPECT_EQ(second->winner, first->winner);
  EXPECT_EQ(service.cache_metrics().hits, 1u);
}

TEST(Service, InvalidRequestIsRejectedWithInvalidArgument) {
  Service service(with_threads(1));
  SolveRequest request;
  request.problem.graph.add_nodes(3);
  request.problem.graph.add_edge(0, 1, 1.0);
  request.problem.source = 0;
  request.problem.targets = {7};  // out of range
  Result<SolveResponse> result = service.solve(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(Service, InfeasibleRequestIsFailedPrecondition) {
  Service service(with_threads(1));
  SolveRequest request;
  request.problem.graph.add_nodes(3);
  request.problem.graph.add_edge(0, 1, 1.0);  // node 2 unreachable
  request.problem.source = 0;
  request.problem.targets = {2};
  Result<SolveResponse> result = service.solve(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Service, ExpiredDeadlineClassifiesAsDeadlineExceeded) {
  Service service(with_threads(1));
  SolveRequest request = request_for(random_problem(3));
  request.deadline_ms = 1e-6;  // already expired at batch entry
  Result<SolveResponse> result = service.solve(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // The starved result must not poison the cache: retrying without the
  // deadline has to actually solve.
  request.deadline_ms = 0.0;
  Result<SolveResponse> retry = service.solve(request);
  ASSERT_TRUE(retry.ok());
  EXPECT_FALSE(retry->provenance.from_cache);
}

TEST(Service, NoDeadlineSentinelOptsOutOfTheServiceDefault) {
  // A service whose default deadline starves everything: a request that
  // inherits (0) is DeadlineExceeded, while the explicit kNoDeadline
  // opt-out — which 0 could never express — still certifies.
  ServiceOptions options = with_threads(1);
  options.default_deadline_ms = 1e-6;
  Service service(options);

  SolveRequest inheriting = request_for(random_problem(31));
  Result<SolveResponse> starved = service.solve(inheriting);
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kDeadlineExceeded);

  SolveRequest unlimited = request_for(random_problem(31));
  unlimited.deadline_ms = SolveRequest::kNoDeadline;
  Result<SolveResponse> solved = service.solve(unlimited);
  ASSERT_TRUE(solved.ok()) << solved.status().to_string();
}

TEST(Service, LpStrategiesReportWarmStartCounters) {
  // Pruning off: this test wants every LP heuristic to actually run its
  // sequence so the warm-start counters are populated.
  ServiceOptions options = with_threads(1);
  options.pruning = PruningPolicy::Off;
  Service service(options);
  Result<SolveResponse> result =
      service.solve(request_for(random_problem(32)));
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  bool saw_lp_stats = false;
  for (const StrategyOutcome& outcome : result->outcomes) {
    if (outcome.strategy == StrategyId::AugmentedSources ||
        outcome.strategy == StrategyId::ReducedBroadcast ||
        outcome.strategy == StrategyId::AugmentedMulticast) {
      EXPECT_GT(outcome.lp.solves, 0)
          << "LP heuristic reported no solves";
      EXPECT_GT(outcome.lp.iterations, 0);
      EXPECT_LE(outcome.lp.warm_starts, outcome.lp.solves);
      if (outcome.lp.warm_starts > 0) saw_lp_stats = true;
    }
    if (outcome.strategy == StrategyId::Mcph) {
      EXPECT_EQ(outcome.lp.solves, 0);  // tree heuristics solve no LPs
    }
  }
  EXPECT_TRUE(saw_lp_stats)
      << "no LP refinement strategy reported a warm-started solve";
}

TEST(Service, PreCancelledRequestClassifiesAsCancelled) {
  Service service(with_threads(1));
  SolveRequest request = request_for(random_problem(4));
  request.cancel.request_stop();
  Result<SolveResponse> result = service.solve(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(Service, StrategyAllowlistRoutesTheRequest) {
  Service service(with_threads(1));
  SolveRequest request = request_for(random_problem(5));
  request.strategies = {StrategyId::Mcph};
  Result<SolveResponse> result = service.solve(request);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->winner, StrategyId::Mcph);
  ASSERT_EQ(result->outcomes.size(), 1u);
  EXPECT_EQ(result->outcomes[0].strategy, StrategyId::Mcph);
}

TEST(Service, PerRequestExactLimitSkipsExact) {
  Service service(with_threads(1));
  SolveRequest request = request_for(random_problem(6));
  request.limits.exact_max_nodes = 0;  // no instance is small enough
  Result<SolveResponse> result = service.solve(request);
  ASSERT_TRUE(result.ok());
  bool exact_seen = false;
  for (const StrategyOutcome& outcome : result->outcomes) {
    if (outcome.strategy == StrategyId::Exact) {
      exact_seen = true;
      EXPECT_EQ(outcome.state, OutcomeState::Skipped);
    }
  }
  EXPECT_TRUE(exact_seen);
}

TEST(Service, FutureReportsReadyAndGetIsRepeatable) {
  Service service(with_threads(2));
  SolveFuture future = service.submit(request_for(random_problem(7)));
  ASSERT_TRUE(future.valid());
  future.wait();
  EXPECT_TRUE(future.ready());
  EXPECT_TRUE(future.wait_for(0.0));  // already done: no timeout
  Result<SolveResponse> a = future.get();
  Result<SolveResponse> b = future.get();  // get() copies, repeatable
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->period, b->period);
}

TEST(Service, FutureWaitForTimesOutWhileWorkerIsBusy) {
  // One worker, several LP-heavy instances: the tail request cannot be
  // ready within a fraction of a millisecond of submission. Pruning off
  // keeps the workload heavy enough that this holds even on a loaded CI
  // machine (cooperative pruning would cut it by more than half).
  ServiceOptions options = with_threads(1);
  options.pruning = PruningPolicy::Off;
  Service service(options);
  std::vector<SolveRequest> requests;
  for (std::uint64_t s = 40; s < 46; ++s) {
    requests.push_back(request_for(random_problem(s, 8, 9)));
  }
  SolveBatch batch = service.submit_batch(std::move(requests));
  SolveFuture tail = batch.future(batch.size() - 1);
  EXPECT_FALSE(tail.wait_for(0.001));  // worker is still on earlier work
  EXPECT_FALSE(tail.ready());
  batch.wait_all();
  EXPECT_TRUE(tail.ready());
  EXPECT_TRUE(tail.get().ok());
}

TEST(Service, DefaultConstructedHandlesAreInert) {
  SolveFuture future;
  EXPECT_FALSE(future.valid());
  EXPECT_FALSE(future.ready());
  EXPECT_FALSE(future.wait_for(0.0));
  EXPECT_FALSE(future.get().ok());
  SolveBatch batch;
  EXPECT_FALSE(batch.valid());
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_TRUE(batch.done());
  batch.wait_all();  // must not hang
  batch.cancel();    // must not crash
}

TEST(Service, CoalescedFollowersObserveTheLeadersResponse) {
  Service service(with_threads(2));
  Problem a = random_problem(8);
  Problem b = random_problem(9);
  std::vector<SolveRequest> requests;
  for (const Problem* p : {&a, &b, &a, &a, &b}) {
    requests.push_back(request_for(*p));
  }
  std::vector<Result<SolveResponse>> results =
      service.solve_batch(std::move(requests));
  ASSERT_EQ(results.size(), 5u);
  for (const auto& r : results) ASSERT_TRUE(r.ok());
  EXPECT_FALSE(results[0]->provenance.coalesced);
  EXPECT_FALSE(results[1]->provenance.coalesced);
  EXPECT_TRUE(results[2]->provenance.coalesced);
  EXPECT_TRUE(results[3]->provenance.coalesced);
  EXPECT_TRUE(results[4]->provenance.coalesced);
  EXPECT_EQ(results[2]->period, results[0]->period);
  EXPECT_EQ(results[2]->winner, results[0]->winner);
  EXPECT_EQ(results[3]->period, results[0]->period);
  EXPECT_EQ(results[4]->period, results[1]->period);
  // Only the two unique instances were actually solved (and cached).
  EXPECT_EQ(service.cache_metrics().entries, 2u);
}

TEST(Service, CallbacksAreSerializedAndCoverEveryRequestExactlyOnce) {
  for (int threads : {0, 1, 2, 8}) {
    Service service(with_threads(threads));
    std::vector<SolveRequest> requests;
    for (std::uint64_t s = 20; s < 28; ++s) {
      requests.push_back(request_for(random_problem(s)));
    }
    const std::size_t n = requests.size();

    std::mutex mutex;
    std::multiset<std::size_t> seen;
    std::atomic<int> overlapping{0};
    std::atomic<bool> overlap_detected{false};
    SolveBatch batch = service.submit_batch(
        std::move(requests),
        [&](std::size_t index, const Result<SolveResponse>& result) {
          if (overlapping.fetch_add(1) != 0) overlap_detected = true;
          EXPECT_TRUE(result.ok());
          {
            std::lock_guard<std::mutex> lock(mutex);
            seen.insert(index);
          }
          overlapping.fetch_sub(1);
        });
    batch.wait_all();
    EXPECT_TRUE(batch.done());
    EXPECT_EQ(batch.completed(), n);
    EXPECT_FALSE(overlap_detected.load()) << threads << " threads";
    ASSERT_EQ(seen.size(), n) << threads << " threads";
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(seen.count(i), 1u) << threads << " threads, index " << i;
    }
  }
}

TEST(Service, ResponsesAreDeterministicAcrossThreadCounts) {
  std::vector<Result<SolveResponse>> expected;
  {
    Service baseline(with_threads(0));  // inline reference
    std::vector<SolveRequest> requests;
    for (std::uint64_t s = 10; s < 16; ++s) {
      requests.push_back(request_for(random_problem(s)));
    }
    expected = baseline.solve_batch(std::move(requests));
  }
  for (int threads : {1, 2, 8}) {
    Service service(with_threads(threads));
    std::vector<SolveRequest> requests;
    for (std::uint64_t s = 10; s < 16; ++s) {
      requests.push_back(request_for(random_problem(s)));
    }
    std::vector<Result<SolveResponse>> results =
        service.solve_batch(std::move(requests));
    ASSERT_EQ(results.size(), expected.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(results[i].ok(), expected[i].ok())
          << threads << " threads, instance " << i;
      if (!results[i].ok()) continue;
      EXPECT_EQ(results[i]->period, expected[i]->period)
          << threads << " threads, instance " << i;
      EXPECT_EQ(results[i]->winner, expected[i]->winner)
          << threads << " threads, instance " << i;
    }
  }
}

TEST(Service, CancellingABatchMidFlightKeepsFinishedResponsesValid) {
  // One worker so the batch is necessarily mid-flight when we cancel:
  // whatever certified before the flag flips must stay valid, the rest
  // classify as kCancelled, and everything is delivered.
  Service service(with_threads(1));
  std::vector<SolveRequest> requests;
  for (std::uint64_t s = 60; s < 72; ++s) {
    requests.push_back(request_for(random_problem(s, 8, 9)));
  }
  const std::size_t n = requests.size();
  SolveBatch batch = service.submit_batch(std::move(requests));
  batch.cancel();
  batch.wait_all();
  EXPECT_EQ(batch.completed(), n);
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Result<SolveResponse> result = batch.get(i);
    if (result.ok()) {
      // A response that made it out is certified — cancel never
      // invalidates finished work.
      EXPECT_GE(result->certificate.certified, 1) << "request " << i;
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
          << "request " << i << ": " << result.status().to_string();
      ++cancelled;
    }
  }
  // With 12 LP-heavy instances on one worker, cancelling right after
  // submission must starve at least the tail of the batch.
  EXPECT_GE(cancelled, 1u);
}

TEST(Service, PriorityRequestsStillSolveCorrectly) {
  Service service(with_threads(2));
  std::vector<SolveRequest> requests;
  for (std::uint64_t s = 30; s < 36; ++s) {
    SolveRequest request = request_for(random_problem(s));
    request.priority = static_cast<int>(s % 3);
    requests.push_back(std::move(request));
  }
  std::vector<Result<SolveResponse>> results =
      service.solve_batch(std::move(requests));
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.status().to_string();
  }
}

TEST(Service, EmptyBatchCompletesImmediately) {
  Service service(with_threads(1));
  SolveBatch batch = service.submit_batch({});
  EXPECT_TRUE(batch.done());
  batch.wait_all();
  EXPECT_EQ(batch.size(), 0u);
}

Problem golden_problem(const std::string& file) {
  Result<PlatformFile> platform =
      load_platform(std::string(PMCAST_TEST_DATA_DIR) + "/" + file);
  EXPECT_TRUE(platform.ok()) << file;
  return Problem(platform->graph, platform->source, platform->targets);
}

/// The 22-node tiers platform of DeadlineGranularity (budget_test.cpp).
Problem tiers_problem() {
  topo::TiersParams params;
  params.wan_nodes = 4;
  params.mans = 2;
  params.man_nodes = 3;
  params.lans = 3;
  params.lan_nodes = 12;
  topo::Platform platform = topo::generate_tiers(params, 5);
  Rng rng(5 + 17);
  auto targets = topo::sample_targets(platform, 0.5, rng);
  return Problem(platform.graph, platform.source, targets);
}

/// A 25 ms race on tiers_problem() that certifies a tree and is cut in
/// the LP refinement heuristics, one of which wins the uncut race
/// (augmented_sources: 393 vs mcph's 411 in Release). Pruning is off
/// so no LB probe runs ahead of the trees: on an inline service the trees
/// certify first even in sanitizer builds.
SolveRequest deadline_cut_request() {
  SolveRequest request = request_for(tiers_problem());
  request.pruning = PruningPolicy::Off;
  request.deadline_ms = 25.0;
  return request;
}

bool has_skip(const SolveResponse& response, SkipReason reason) {
  for (const StrategyOutcome& outcome : response.outcomes) {
    if (outcome.skip_reason == reason) return true;
  }
  return false;
}

TEST(Service, CacheServesOnlyTheRaceItRan) {
  const Problem problem = golden_problem("power_law-n8-d80u-s3.platform");
  SolveRequest full = request_for(problem);
  SolveRequest mcph_only = request_for(problem);
  mcph_only.strategies = {StrategyId::Mcph};
  SolveRequest no_exact = request_for(problem);
  no_exact.limits.exact_max_nodes = 0;

  // Each race's own answer, from services that never saw another setting.
  auto fresh = [](const SolveRequest& request) {
    Result<SolveResponse> r = Service(with_threads(1)).solve(request);
    EXPECT_TRUE(r.ok()) << r.status().to_string();
    return *r;
  };
  const SolveResponse full_ref = fresh(full);
  const SolveResponse mcph_ref = fresh(mcph_only);
  const SolveResponse no_exact_ref = fresh(no_exact);
  ASSERT_NE(full_ref.period, mcph_ref.period);
  ASSERT_NE(full_ref.period, no_exact_ref.period);

  {  // A default request after an mcph-only one races in full.
    Service service(with_threads(1));
    ASSERT_TRUE(service.solve(mcph_only).ok());
    Result<SolveResponse> r = service.solve(full);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->provenance.from_cache);
    EXPECT_EQ(r->period, full_ref.period);
    EXPECT_EQ(r->outcomes.size(), all_strategy_ids().size());
    // The same setting again is a hit.
    Result<SolveResponse> again = service.solve(full);
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again->provenance.from_cache);
    EXPECT_EQ(again->period, full_ref.period);
  }
  {  // An mcph-only request after a default one keeps its allowlist.
    Service service(with_threads(1));
    ASSERT_TRUE(service.solve(full).ok());
    Result<SolveResponse> r = service.solve(mcph_only);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->provenance.from_cache);
    ASSERT_EQ(r->outcomes.size(), 1u);
    EXPECT_EQ(r->winner, StrategyId::Mcph);
    EXPECT_EQ(r->period, mcph_ref.period);
  }
  {  // In one batch, a default request is not coalesced onto an
     // mcph-only one; a duplicate with the same settings still is.
    Service service(with_threads(1));
    std::vector<Result<SolveResponse>> r =
        service.solve_batch({mcph_only, full, full});
    ASSERT_EQ(r.size(), 3u);
    ASSERT_TRUE(r[0].ok() && r[1].ok() && r[2].ok());
    EXPECT_EQ(r[0]->period, mcph_ref.period);
    EXPECT_FALSE(r[1]->provenance.coalesced);
    EXPECT_EQ(r[1]->period, full_ref.period);
    EXPECT_TRUE(r[2]->provenance.coalesced);
    EXPECT_EQ(r[2]->period, full_ref.period);
  }
  {  // A default request after one without the exact strategy.
    Service service(with_threads(1));
    Result<SolveResponse> first = service.solve(no_exact);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first->period, no_exact_ref.period);
    Result<SolveResponse> r = service.solve(full);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->provenance.from_cache);
    EXPECT_EQ(r->period, full_ref.period);
  }
  {  // A race its deadline cut is not cached: the next request, without
     // a deadline, runs its own race, uncut.
    Service service(with_threads(0));
    SolveRequest cut = deadline_cut_request();
    Result<SolveResponse> first = service.solve(cut);
    ASSERT_TRUE(first.ok()) << first.status().to_string();
    ASSERT_TRUE(has_skip(*first, SkipReason::DeadlineExpired));
    cut.deadline_ms = 0.0;
    Result<SolveResponse> r = service.solve(cut);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->provenance.from_cache);
    EXPECT_FALSE(has_skip(*r, SkipReason::DeadlineExpired));
    EXPECT_LE(r->period, first->period);
  }
}

TEST(Service, DeadlinesBeyondTheClockNeverExpire) {
  ServiceOptions options = with_threads(1);
  options.cache_capacity = 0;  // every request races
  Service service(options);
  SolveRequest request = request_for(random_problem(7));
  Result<SolveResponse> reference = service.solve(request);
  ASSERT_TRUE(reference.ok());
  for (double deadline_ms : {9.2e12, 9.3e12, 1e13, 1e300,
                             std::numeric_limits<double>::infinity()}) {
    request.deadline_ms = deadline_ms;
    Result<SolveResponse> r = service.solve(request);
    ASSERT_TRUE(r.ok()) << deadline_ms << " ms: " << r.status().to_string();
    EXPECT_EQ(r->period, reference->period) << deadline_ms << " ms";
  }
  request.deadline_ms = std::numeric_limits<double>::quiet_NaN();
  Result<SolveResponse> nan = service.solve(request);
  ASSERT_FALSE(nan.ok());
  EXPECT_EQ(nan.status().code(), StatusCode::kInvalidArgument);
}

TEST(Service, OutcomesCarryTheirSkipReason) {
  // Certified and Failed outcomes are never skipped; Pruned ones always
  // say why, and the pruning summary counts exactly those.
  auto check_states = [](const std::vector<StrategyOutcome>& outcomes) {
    for (const StrategyOutcome& o : outcomes) {
      if (o.state == OutcomeState::Certified ||
          o.state == OutcomeState::Failed) {
        EXPECT_EQ(o.skip_reason, SkipReason::NotSkipped)
            << strategy_id_name(o.strategy);
      }
      if (o.state == OutcomeState::Pruned) {
        EXPECT_TRUE(o.skip_reason == SkipReason::Dominated ||
                    o.skip_reason == SkipReason::EarlyWin)
            << strategy_id_name(o.strategy);
      }
    }
  };

  Service service(with_threads(0));  // Deterministic pruning by default
  int pruned = 0;
  for (const char* file : {"tiers-n8-d50u-s1.platform",
                           "star-n8-d80l-s6.platform",
                           "power_law-n8-d80u-s3.platform"}) {
    Result<SolveResponse> r = service.solve(request_for(golden_problem(file)));
    ASSERT_TRUE(r.ok()) << file;
    check_states(r->outcomes);
    int dominated = 0;
    int early_win = 0;
    for (const StrategyOutcome& o : r->outcomes) {
      if (o.state != OutcomeState::Pruned) continue;
      ++pruned;
      dominated += o.skip_reason == SkipReason::Dominated;
      early_win += o.skip_reason == SkipReason::EarlyWin;
    }
    EXPECT_EQ(dominated, r->pruning.strategies_pruned) << file;
    EXPECT_EQ(early_win, r->pruning.early_win_cancels) << file;
  }
  EXPECT_GT(pruned, 0) << "no golden instance pruned under Deterministic";

  // Inapplicable: the exact strategy above a per-request node limit.
  SolveRequest no_exact = request_for(random_problem(8));
  no_exact.limits.exact_max_nodes = 0;
  Result<SolveResponse> r = service.solve(no_exact);
  ASSERT_TRUE(r.ok());
  check_states(r->outcomes);
  for (const StrategyOutcome& o : r->outcomes) {
    if (o.strategy == StrategyId::Exact) {
      EXPECT_EQ(o.state, OutcomeState::Skipped);
      EXPECT_EQ(o.skip_reason, SkipReason::Inapplicable);
    }
  }

  // A deadline that cuts the race mid-way: the cut strategies say so.
  Result<SolveResponse> deadline = service.solve(deadline_cut_request());
  ASSERT_TRUE(deadline.ok()) << deadline.status().to_string();
  check_states(deadline->outcomes);
  EXPECT_TRUE(has_skip(*deadline, SkipReason::DeadlineExpired));

  // Requests that certify nothing surface as a Status; their outcomes
  // are visible on the engine's result, the same StrategyOutcome type.
  runtime::PortfolioEngine engine(with_threads(0));
  SolveRequest expired = request_for(random_problem(9));
  expired.deadline_ms = 1e-6;
  SolveRequest cancelled = request_for(random_problem(10));
  cancelled.cancel.request_stop();
  SolveRequest infeasible;
  infeasible.problem.graph.add_nodes(3);
  infeasible.problem.graph.add_edge(0, 1, 1.0);
  infeasible.problem.source = 0;
  infeasible.problem.targets = {2};
  std::vector<runtime::PortfolioResult> results =
      engine.solve_batch({expired, cancelled, infeasible});
  ASSERT_EQ(results.size(), 3u);
  for (const StrategyOutcome& o : results[0].outcomes) {
    EXPECT_EQ(o.state, OutcomeState::Skipped);
    EXPECT_EQ(o.skip_reason, SkipReason::DeadlineExpired);
  }
  for (const StrategyOutcome& o : results[1].outcomes) {
    EXPECT_EQ(o.state, OutcomeState::Skipped);
    EXPECT_EQ(o.skip_reason, SkipReason::Cancelled);
  }
  ASSERT_FALSE(results[2].outcomes.empty());
  for (const StrategyOutcome& o : results[2].outcomes) {
    EXPECT_EQ(o.state, OutcomeState::Failed);
  }
  check_states(results[2].outcomes);
}

}  // namespace
}  // namespace pmcast

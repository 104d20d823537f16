/// \file server_stress.cpp
/// Closed-loop stress harness for the pmcast daemon (E-server): an
/// in-process net::Server is pounded over loopback by hundreds of
/// blocking clients, one connection per concurrent caller, through four
/// phases:
///
///   warmup    prime the result cache and the admission EWMA
///   steady    measured mixed traffic (hot / duplicate / cold / tight
///             deadline) -> sustained QPS and p50/p99/p999 latency
///   overload  deliberate floods against a qps-capped tenant, an
///             in-flight-capped tenant and tight deadlines -> the daemon
///             must shed (explicit Overloaded errors), never stall
///   drain     every client parks one no-deadline request in flight,
///             then request_drain() fires mid-solve -> each request must
///             be answered (response or explicit error); an unanswered
///             connection close is an orphan and fails the bench
///
/// The bench *fails* (nonzero exit) on any protocol error, any
/// deadline-accounting violation (an admitted response that blew its
/// budget beyond tolerance, or a no-deadline request expiring), any
/// drain orphan, or an overload phase that shed nothing. Results land in
/// BENCH_server.json.
///
/// Modes: --smoke (tiny, tier-1 ctest, sanitizer-safe), default
/// (256 connections, the acceptance configuration), PMCAST_FULL=1
/// (320 connections, longer phases).

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "pmcast/client.hpp"
#include "pmcast/pmcast.hpp"
#include "pmcast/server.hpp"
#include "pmcast/topology.hpp"

using namespace pmcast;
using Clock = std::chrono::steady_clock;

namespace {

struct Config {
  const char* mode = "standard";
  int connections = 256;
  int warmup_per_conn = 2;
  int steady_per_conn = 20;
  int overload_per_conn = 12;
  int server_threads = 8;
  double steady_deadline_ms = 2'000.0;
  double tight_deadline_ms = 40.0;
  double drain_timeout_ms = 5'000.0;
  /// Tolerance before an ok-but-late response counts as a deadline-
  /// accounting violation. Deadlines are enforced cooperatively at
  /// checkpoint granularity, and one checkpoint interval stretches a lot
  /// under sanitizers, so the slack is generous — the check exists to
  /// catch a deadline being silently *ignored* (seconds late), not a
  /// checkpoint landing after the buzzer.
  double violation_slack_ms = 2'000.0;
};

Config make_config(bool smoke) {
  Config cfg;
  if (smoke) {
    cfg.mode = "smoke";
    cfg.connections = 32;
    cfg.warmup_per_conn = 1;
    cfg.steady_per_conn = 6;
    cfg.overload_per_conn = 6;
    cfg.server_threads = 4;
    cfg.steady_deadline_ms = 10'000.0;  // sanitizer lanes are slow
    cfg.tight_deadline_ms = 60.0;
    cfg.drain_timeout_ms = 3'000.0;
    cfg.violation_slack_ms = 10'000.0;
  } else if (bench::full_mode()) {
    cfg.mode = "full";
    cfg.connections = 320;
    cfg.steady_per_conn = 30;
  }
  unsigned hw = std::thread::hardware_concurrency();
  if (hw != 0) {
    cfg.server_threads =
        std::min(cfg.server_threads, static_cast<int>(std::max(hw, 2u)));
  }
  return cfg;
}

/// A 12-node three-level platform: big enough to exercise the full
/// portfolio, small enough that a solve is milliseconds even under ASan.
topo::TiersParams tiny_params() {
  topo::TiersParams p;
  p.wan_nodes = 3;
  p.mans = 1;
  p.man_nodes = 3;
  p.lans = 2;
  p.lan_nodes = 6;
  p.wan_redundancy = 1;
  p.man_redundancy = 1;
  return p;
}

Problem generate_problem(std::uint64_t seed) {
  topo::Platform platform = topo::generate_tiers(tiny_params(), seed);
  Rng rng(seed * 2654435761u + 1);
  std::vector<NodeId> targets = topo::sample_targets(platform, 0.6, rng);
  Result<Problem> problem = make_problem(std::move(platform.graph),
                                         platform.source, std::move(targets));
  if (!problem.ok()) {
    std::fprintf(stderr, "generate_problem(%llu): %s\n",
                 static_cast<unsigned long long>(seed),
                 problem.status().to_string().c_str());
    std::abort();
  }
  return std::move(*problem);
}

/// Everything one worker observes; merged single-threaded after join.
struct WorkerTally {
  std::vector<double> steady_latency_ms;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t ok_cached = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t shed_observed = 0;
  std::uint64_t shutdown_observed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t transport_failures = 0;
  // Violations.
  std::uint64_t protocol_errors = 0;
  std::uint64_t deadline_violations = 0;
  std::uint64_t drain_orphans = 0;
  // Drain accounting.
  std::uint64_t drain_sent = 0;
  std::uint64_t drain_answered = 0;

  void merge(const WorkerTally& other) {
    steady_latency_ms.insert(steady_latency_ms.end(),
                             other.steady_latency_ms.begin(),
                             other.steady_latency_ms.end());
    sent += other.sent;
    ok += other.ok;
    ok_cached += other.ok_cached;
    deadline_expired += other.deadline_expired;
    shed_observed += other.shed_observed;
    shutdown_observed += other.shutdown_observed;
    cancelled += other.cancelled;
    transport_failures += other.transport_failures;
    protocol_errors += other.protocol_errors;
    deadline_violations += other.deadline_violations;
    drain_orphans += other.drain_orphans;
    drain_sent += other.drain_sent;
    drain_answered += other.drain_answered;
  }
};

bool contains(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

/// Classify one completed solve into the tally. \p deadline_ms is the
/// request's own budget (< 0 = no deadline). Returns true when the
/// request received *some* explicit answer (response or error frame).
bool record_outcome(WorkerTally& tally,
                    const Result<net::RemoteResponse>& result,
                    double deadline_ms, double violation_slack_ms,
                    bool draining) {
  ++tally.sent;
  if (result.ok()) {
    ++tally.ok;
    if (result->from_cache) ++tally.ok_cached;
    // Deadline accounting: an admitted-and-answered request must not
    // have run wildly past its budget. Deadlines are cooperative
    // (checkpoint granularity) so allow generous slack, but a small
    // budget that silently took many seconds is a real accounting bug.
    if (deadline_ms > 0.0 &&
        result->total_ms > deadline_ms * 1.5 + violation_slack_ms) {
      ++tally.deadline_violations;
    }
    return true;
  }
  const Status& status = result.status();
  const std::string& message = status.message();
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
      ++tally.deadline_expired;
      // A request that opted out of deadlines can never legitimately
      // expire: that is the sentinel leaking somewhere on the wire.
      if (deadline_ms < 0.0) ++tally.deadline_violations;
      return true;
    case StatusCode::kCancelled:
      ++tally.cancelled;  // drain-timeout cancellation: explicit answer
      return true;
    case StatusCode::kUnavailable:
      if (contains(message, "overloaded")) {
        ++tally.shed_observed;
        return true;
      }
      if (contains(message, "shutting_down")) {
        ++tally.shutdown_observed;
        return true;
      }
      if (contains(message, "closed the connection")) {
        // Unanswered close. During drain this is exactly the orphan the
        // bench exists to catch; outside drain it is a transport loss.
        if (draining) ++tally.drain_orphans;
        ++tally.transport_failures;
        return false;
      }
      ++tally.transport_failures;
      return false;
    case StatusCode::kInternal:
      ++tally.protocol_errors;
      return false;
    default:
      ++tally.transport_failures;
      return false;
  }
}

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  double rank = q * static_cast<double>(sorted.size() - 1);
  std::size_t lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

constexpr std::uint32_t kBulkTenant = 1;
constexpr std::uint32_t kQpsCappedTenant = 7;
constexpr std::uint32_t kInFlightCappedTenant = 9;

struct SharedState {
  Config cfg;
  std::uint16_t port = 0;
  std::vector<Problem> hot;  // shared, copied into each request
  std::atomic<int> drain_sent_count{0};
};

net::Client connect_or_die(const SharedState& shared, std::uint32_t tenant) {
  net::ClientOptions options;
  options.tenant = tenant;
  options.response_slack_ms = 30'000.0;  // sanitizer lanes are slow
  Result<net::Client> client =
      net::Client::connect("127.0.0.1", shared.port, options);
  if (!client.ok()) {
    std::fprintf(stderr, "client connect (tenant %u): %s\n", tenant,
                 client.status().to_string().c_str());
    std::abort();
  }
  return std::move(*client);
}

void worker(int id, SharedState& shared, std::barrier<>& sync,
            WorkerTally& tally) {
  const Config& cfg = shared.cfg;
  net::Client bulk = connect_or_die(shared, kBulkTenant);
  net::Client capped_qps = connect_or_die(shared, kQpsCappedTenant);
  net::Client capped_inflight = connect_or_die(shared, kInFlightCappedTenant);

  auto solve = [&](net::Client& client, const Problem& problem,
                   double deadline_ms, bool draining) {
    SolveRequest request;
    request.problem = problem;  // copy: the request owns its instance
    request.deadline_ms = deadline_ms;
    Result<net::RemoteResponse> result = client.solve(request);
    return record_outcome(tally, result, deadline_ms,
                          cfg.violation_slack_ms, draining);
  };
  auto hot_problem = [&](int i) -> const Problem& {
    return shared.hot[static_cast<std::size_t>(id * 31 + i) %
                      shared.hot.size()];
  };
  std::uint64_t cold_seed = 1'000'000 + static_cast<std::uint64_t>(id) * 4096;

  sync.arrive_and_wait();  // A: all connected

  for (int i = 0; i < cfg.warmup_per_conn; ++i) {
    solve(bulk, hot_problem(i), cfg.steady_deadline_ms, false);
  }
  sync.arrive_and_wait();  // B: steady begins (timed from here)

  for (int i = 0; i < cfg.steady_per_conn; ++i) {
    int mix = (id * 7 + i) % 10;
    Clock::time_point begin = Clock::now();
    if (mix < 4) {  // hot: cache-resident instance
      solve(bulk, hot_problem(i), cfg.steady_deadline_ms, false);
    } else if (mix < 6) {  // duplicate: immediate re-ask of the same key
      const Problem& p = hot_problem(i);
      solve(bulk, p, cfg.steady_deadline_ms, false);
    } else if (mix < 9) {  // cold: unique instance, full solve
      solve(bulk, generate_problem(cold_seed++), cfg.steady_deadline_ms,
            false);
    } else {  // deadline-tight cold: expiry is legal, stalling is not
      solve(bulk, generate_problem(cold_seed++), cfg.tight_deadline_ms,
            false);
    }
    double ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                          begin)
                    .count();
    tally.steady_latency_ms.push_back(ms);
  }
  sync.arrive_and_wait();  // C: steady done

  for (int i = 0; i < cfg.overload_per_conn; ++i) {
    switch (i % 3) {
      case 0:  // flood the qps-capped tenant far past its bucket
        solve(capped_qps, hot_problem(i), -1.0, false);
        break;
      case 1:  // pile onto the in-flight-capped tenant
        solve(capped_inflight, generate_problem(cold_seed++), -1.0, false);
        break;
      default:  // tight deadlines while the queue is deep
        solve(bulk, generate_problem(cold_seed++), cfg.tight_deadline_ms,
              false);
        break;
    }
  }
  sync.arrive_and_wait();  // D: overload done

  sync.arrive_and_wait();  // E: drain phase armed by main
  ++tally.drain_sent;
  shared.drain_sent_count.fetch_add(1, std::memory_order_release);
  if (solve(bulk, hot_problem(id), -1.0, true)) ++tally.drain_answered;
}

std::string json_escape_free_summary(const Config& cfg,
                                     const WorkerTally& total,
                                     const net::ServerStats& server_stats,
                                     double steady_ms, double qps, double p50,
                                     double p99, double p999, double mean_ms,
                                     double max_ms, double cache_hit_rate,
                                     std::uint64_t cache_hits,
                                     std::uint64_t cache_misses,
                                     std::uint32_t cache_shards,
                                     std::uint64_t protocol_errors,
                                     bool drained_clean) {
  const std::uint64_t total_shed = server_stats.total_shed();
  char buf[4096];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"bench\": \"server_stress\",\n"
      "  \"mode\": \"%s\",\n"
      "  \"connections\": %d,\n"
      "  \"server_threads\": %d,\n"
      "  \"hardware_threads\": %u,\n"
      "  \"requests\": {\"sent\": %llu, \"ok\": %llu, \"ok_cached\": %llu,\n"
      "    \"deadline_expired\": %llu, \"shed_observed\": %llu,\n"
      "    \"shutdown_observed\": %llu, \"cancelled\": %llu,\n"
      "    \"transport_failures\": %llu},\n"
      "  \"steady\": {\"duration_ms\": %.1f, \"qps\": %.1f,\n"
      "    \"latency_ms\": {\"p50\": %.3f, \"p99\": %.3f, \"p999\": %.3f,\n"
      "      \"mean\": %.3f, \"max\": %.3f}},\n"
      "  \"shed\": {\"qps\": %llu, \"in_flight\": %llu, \"deadline\": %llu,\n"
      "    \"shutdown\": %llu, \"total\": %llu},\n"
      "  \"cache\": {\"hits\": %llu, \"misses\": %llu, \"hit_rate\": %.4f,\n"
      "    \"shards\": %u},\n"
      "  \"violations\": {\"protocol_errors\": %llu,\n"
      "    \"deadline_violations\": %llu, \"drain_orphans\": %llu},\n"
      "  \"drain\": {\"sent\": %llu, \"answered\": %llu, \"orphans\": %llu,\n"
      "    \"drained_clean\": %s}\n"
      "}\n",
      cfg.mode, cfg.connections, cfg.server_threads,
      std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(total.sent),
      static_cast<unsigned long long>(total.ok),
      static_cast<unsigned long long>(total.ok_cached),
      static_cast<unsigned long long>(total.deadline_expired),
      static_cast<unsigned long long>(total.shed_observed),
      static_cast<unsigned long long>(total.shutdown_observed),
      static_cast<unsigned long long>(total.cancelled),
      static_cast<unsigned long long>(total.transport_failures), steady_ms,
      qps, p50, p99, p999, mean_ms, max_ms,
      static_cast<unsigned long long>(server_stats.shed_qps),
      static_cast<unsigned long long>(server_stats.shed_in_flight),
      static_cast<unsigned long long>(server_stats.shed_deadline),
      static_cast<unsigned long long>(server_stats.shed_shutdown),
      static_cast<unsigned long long>(total_shed),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses), cache_hit_rate,
      static_cast<unsigned>(cache_shards),
      static_cast<unsigned long long>(protocol_errors),
      static_cast<unsigned long long>(total.deadline_violations),
      static_cast<unsigned long long>(total.drain_orphans),
      static_cast<unsigned long long>(total.drain_sent),
      static_cast<unsigned long long>(total.drain_answered),
      static_cast<unsigned long long>(total.drain_orphans),
      drained_clean ? "true" : "false");
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  SharedState shared;
  shared.cfg = make_config(smoke);
  const Config& cfg = shared.cfg;
  std::printf("=== pmcast-serve closed-loop stress (%s): %d connections, "
              "%d server threads ===\n\n",
              cfg.mode, cfg.connections, cfg.server_threads);

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    shared.hot.push_back(generate_problem(seed));
  }

  net::ServerOptions options;
  options.port = 0;
  options.backlog = 1024;
  options.service.threads = cfg.server_threads;
  options.service.cache_capacity = 4096;
  // The overload phase's designated victims: one tenant with a tiny
  // token bucket, one with a tiny in-flight cap. Bulk traffic (tenant 1)
  // keeps the default unlimited quota so steady-state is untouched.
  options.tenant_quotas[kQpsCappedTenant] = net::TenantQuota{20.0, 5.0, 0};
  options.tenant_quotas[kInFlightCappedTenant] =
      net::TenantQuota{0.0, 0.0, 2};
  options.drain_timeout_ms = cfg.drain_timeout_ms;
  net::Server server(std::move(options));
  if (Status started = server.start(); !started.ok()) {
    std::fprintf(stderr, "server start: %s\n", started.to_string().c_str());
    return 1;
  }
  shared.port = server.port();
  std::thread loop([&server] { server.run(); });

  std::barrier<> sync(cfg.connections + 1);
  std::vector<WorkerTally> tallies(
      static_cast<std::size_t>(cfg.connections));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(cfg.connections));
  for (int i = 0; i < cfg.connections; ++i) {
    workers.emplace_back(worker, i, std::ref(shared), std::ref(sync),
                         std::ref(tallies[static_cast<std::size_t>(i)]));
  }

  sync.arrive_and_wait();  // A: connected
  std::printf("warmup: %d x %d requests\n", cfg.connections,
              cfg.warmup_per_conn);
  sync.arrive_and_wait();  // B: steady begins
  Clock::time_point steady_begin = Clock::now();
  sync.arrive_and_wait();  // C: steady done
  double steady_ms = std::chrono::duration<double, std::milli>(
                         Clock::now() - steady_begin)
                         .count();
  std::printf("steady: %d x %d requests in %.0f ms\n", cfg.connections,
              cfg.steady_per_conn, steady_ms);
  sync.arrive_and_wait();  // D: overload done
  std::printf("overload: %d x %d requests done\n", cfg.connections,
              cfg.overload_per_conn);

  // Snapshot the wire-visible cache counters before drain kills the
  // connection (the daemon's cache provenance is part of the report).
  net::Client stats_client = connect_or_die(shared, 0);
  Result<net::ServerStats> wire_stats = stats_client.stats();
  std::uint64_t cache_hits = 0, cache_misses = 0;
  double cache_hit_rate = 0.0;
  std::uint32_t cache_shards = 0;
  if (wire_stats.ok()) {
    cache_hits = wire_stats->cache_hits;
    cache_misses = wire_stats->cache_misses;
    cache_hit_rate = wire_stats->cache_hit_rate();
    cache_shards = wire_stats->cache_shards;
  }
  stats_client.close();

  sync.arrive_and_wait();  // E: drain phase — workers park one request each
  while (shared.drain_sent_count.load(std::memory_order_acquire) <
         cfg.connections) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Every worker is now inside solve(); give the frames a beat to land
  // in the event loop so the drain races real in-flight work.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.request_drain();
  for (std::thread& t : workers) t.join();
  loop.join();
  bool drained_clean = server.drained();
  net::ServerStats server_stats = server.stats();

  WorkerTally total;
  for (const WorkerTally& t : tallies) total.merge(t);
  std::uint64_t protocol_errors =
      total.protocol_errors + server_stats.protocol_errors;

  std::sort(total.steady_latency_ms.begin(), total.steady_latency_ms.end());
  double p50 = percentile(total.steady_latency_ms, 0.50);
  double p99 = percentile(total.steady_latency_ms, 0.99);
  double p999 = percentile(total.steady_latency_ms, 0.999);
  double mean_ms = bench::mean(total.steady_latency_ms);
  double max_ms = total.steady_latency_ms.empty()
                      ? 0.0
                      : total.steady_latency_ms.back();
  double qps = steady_ms > 0.0
                   ? 1000.0 *
                         static_cast<double>(total.steady_latency_ms.size()) /
                         steady_ms
                   : 0.0;
  const std::uint64_t total_shed = server_stats.total_shed();

  std::printf("\nsteady    %.0f qps sustained, latency p50 %.2f / p99 %.2f "
              "/ p999 %.2f ms (max %.2f)\n",
              qps, p50, p99, p999, max_ms);
  std::printf("requests  %llu sent, %llu ok (%llu cached), %llu deadline-"
              "expired, %llu cancelled\n",
              static_cast<unsigned long long>(total.sent),
              static_cast<unsigned long long>(total.ok),
              static_cast<unsigned long long>(total.ok_cached),
              static_cast<unsigned long long>(total.deadline_expired),
              static_cast<unsigned long long>(total.cancelled));
  std::printf("shed      %llu total (qps %llu, in-flight %llu, deadline "
              "%llu, shutdown %llu)\n",
              static_cast<unsigned long long>(total_shed),
              static_cast<unsigned long long>(server_stats.shed_qps),
              static_cast<unsigned long long>(server_stats.shed_in_flight),
              static_cast<unsigned long long>(server_stats.shed_deadline),
              static_cast<unsigned long long>(server_stats.shed_shutdown));
  std::printf("cache     %.0f%% hit rate (%llu / %llu), %u shard(s)\n",
              100.0 * cache_hit_rate,
              static_cast<unsigned long long>(cache_hits),
              static_cast<unsigned long long>(cache_hits + cache_misses),
              static_cast<unsigned>(cache_shards));
  std::printf("drain     %llu parked, %llu answered, %llu orphans, "
              "drained_clean=%s\n",
              static_cast<unsigned long long>(total.drain_sent),
              static_cast<unsigned long long>(total.drain_answered),
              static_cast<unsigned long long>(total.drain_orphans),
              drained_clean ? "true" : "false");
  std::printf("checks    protocol_errors=%llu deadline_violations=%llu\n",
              static_cast<unsigned long long>(protocol_errors),
              static_cast<unsigned long long>(total.deadline_violations));

  std::string json = json_escape_free_summary(
      cfg, total, server_stats, steady_ms, qps, p50, p99, p999, mean_ms,
      max_ms, cache_hit_rate, cache_hits, cache_misses, cache_shards,
      protocol_errors, drained_clean);
  std::ofstream("BENCH_server.json") << json;
  std::printf("\nwrote BENCH_server.json\n");

  bool pass = protocol_errors == 0 && total.deadline_violations == 0 &&
              total.drain_orphans == 0 && total_shed > 0 && total.ok > 0 &&
              total.transport_failures == 0 && drained_clean;
  std::printf("%s\n", pass ? "PASS" : "FAIL");
  if (!pass) {
    std::fprintf(stderr,
                 "FAIL: protocol_errors=%llu deadline_violations=%llu "
                 "orphans=%llu shed=%llu ok=%llu transport_failures=%llu "
                 "drained=%d\n",
                 static_cast<unsigned long long>(protocol_errors),
                 static_cast<unsigned long long>(total.deadline_violations),
                 static_cast<unsigned long long>(total.drain_orphans),
                 static_cast<unsigned long long>(total_shed),
                 static_cast<unsigned long long>(total.ok),
                 static_cast<unsigned long long>(total.transport_failures),
                 drained_clean ? 1 : 0);
  }
  return pass ? 0 : 1;
}

/// \file pmcast_client.cpp
/// Command-line client for a running pmcast_serve daemon: solve platform
/// files remotely over the binary wire protocol, or fetch the daemon's
/// counter snapshot (--stats) and profiling snapshot (--trace).
///
/// Usage:
///   pmcast_client [--host H] [--port P] [--tenant T]
///                 [--deadline-ms MS | --no-deadline] [--stats] [--trace]
///                 [<platform-file>...]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "pmcast/client.hpp"
#include "pmcast/pmcast.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host H] [--port P] [--tenant T]\n"
               "          [--deadline-ms MS | --no-deadline] [--stats]\n"
               "          [--trace] [<platform-file>...]\n",
               argv0);
  return 2;
}

void print_stats(const pmcast::net::ServerStats& s) {
  std::printf("uptime              %.1f s\n", s.uptime_ms / 1000.0);
  std::printf("connections         %llu accepted, %llu open\n",
              static_cast<unsigned long long>(s.connections_accepted),
              static_cast<unsigned long long>(s.connections_open));
  std::printf("requests            %llu admitted (%llu brownout), "
              "%llu in flight\n",
              static_cast<unsigned long long>(s.requests_admitted),
              static_cast<unsigned long long>(s.brownout_admitted),
              static_cast<unsigned long long>(s.in_flight));
  std::printf("responses / errors  %llu / %llu\n",
              static_cast<unsigned long long>(s.responses_sent),
              static_cast<unsigned long long>(s.errors_sent));
  std::printf("shed                %llu (qps %llu, in-flight %llu, "
              "deadline %llu, shutdown %llu)\n",
              static_cast<unsigned long long>(s.total_shed()),
              static_cast<unsigned long long>(s.shed_qps),
              static_cast<unsigned long long>(s.shed_in_flight),
              static_cast<unsigned long long>(s.shed_deadline),
              static_cast<unsigned long long>(s.shed_shutdown));
  std::printf("protocol errors     %llu\n",
              static_cast<unsigned long long>(s.protocol_errors));
  std::printf("closed              %llu idle-timeout, %llu read-timeout, "
              "%llu backpressure\n",
              static_cast<unsigned long long>(s.closed_idle_timeout),
              static_cast<unsigned long long>(s.closed_read_timeout),
              static_cast<unsigned long long>(s.closed_backpressure));
  std::printf("faults injected     %llu\n",
              static_cast<unsigned long long>(s.faults_injected));
  std::printf("cache               %.0f%% hit rate (%llu hits / %llu "
              "misses), %llu entries, %u shard(s)\n",
              100.0 * s.cache_hit_rate(),
              static_cast<unsigned long long>(s.cache_hits),
              static_cast<unsigned long long>(s.cache_misses),
              static_cast<unsigned long long>(s.cache_entries),
              static_cast<unsigned>(s.cache_shards));
  std::printf("workers             %u threads, EWMA solve %.1f ms\n",
              static_cast<unsigned>(s.worker_threads), s.ewma_solve_ms);
}

void print_predicate(const char* name, const pmcast::CutPredicateTrace& p) {
  std::printf("  %-16s %llu evaluated, %llu hits", name,
              static_cast<unsigned long long>(p.evaluated),
              static_cast<unsigned long long>(p.hits));
  if (p.misses() > 0 && p.closest_miss < 1e300) {
    std::printf(", closest miss %.3g", p.closest_miss);
  }
  std::printf("\n");
}

void print_trace(const pmcast::net::ServerTrace& server_trace) {
  const pmcast::SolveTrace& t = server_trace.trace;
  std::printf("trace detail        %s\n", pmcast::trace_detail_name(t.detail));
  std::printf("cut predicates\n");
  print_predicate("sub_scatter", t.sub_scatter);
  print_predicate("early_win", t.early_win);
  print_predicate("probe_poll", t.probe_poll);
  print_predicate("reconstruct_skip", t.reconstruct_skip);
  std::printf("lp checkpoints      %llu polls, mean gap %.1f us, max %.1f us\n",
              static_cast<unsigned long long>(t.checkpoint_polls),
              t.checkpoint_mean_us(), t.checkpoint_max_us);
  if (t.checkpoint_polls > 0) {
    std::printf("  gap histogram    ");
    for (std::uint64_t b : t.checkpoint_hist) {
      std::printf(" %llu", static_cast<unsigned long long>(b));
    }
    std::printf("\n");
  }
  std::printf("cache shard heat    (hits/misses/evictions/entries)\n");
  for (std::size_t i = 0; i < server_trace.shard_heat.size(); ++i) {
    const pmcast::CacheMetrics::ShardHeat& s = server_trace.shard_heat[i];
    std::printf("  shard %-2zu         %llu/%llu/%llu/%llu\n", i,
                static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(s.misses),
                static_cast<unsigned long long>(s.evictions),
                static_cast<unsigned long long>(s.entries));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  pmcast::net::ClientOptions client_options;
  double deadline_ms = 0.0;
  bool no_deadline = false;
  bool want_stats = false;
  bool want_trace = false;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--host") == 0) {
      host = next_value("--host");
    } else if (std::strcmp(argv[i], "--port") == 0) {
      port = static_cast<std::uint16_t>(
          std::strtoul(next_value("--port"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--tenant") == 0) {
      client_options.tenant = static_cast<std::uint32_t>(
          std::strtoul(next_value("--tenant"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      deadline_ms = std::strtod(next_value("--deadline-ms"), nullptr);
    } else if (std::strcmp(argv[i], "--no-deadline") == 0) {
      no_deadline = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      want_stats = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      want_trace = true;
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else {
      files.emplace_back(argv[i]);
    }
  }
  if (port == 0) {
    std::fprintf(stderr, "%s: --port is required\n", argv[0]);
    return usage(argv[0]);
  }
  if (!want_stats && !want_trace && files.empty()) return usage(argv[0]);

  pmcast::Result<pmcast::net::Client> connected =
      pmcast::net::Client::connect(host, port, client_options);
  if (!connected.ok()) {
    std::fprintf(stderr, "%s\n", connected.status().to_string().c_str());
    return 1;
  }
  pmcast::net::Client client = std::move(*connected);

  int failed = 0;
  for (const std::string& file : files) {
    pmcast::Result<pmcast::PlatformFile> parsed =
        pmcast::load_platform(file);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().to_string().c_str());
      ++failed;
      continue;
    }
    pmcast::Result<pmcast::Problem> problem =
        pmcast::make_problem(std::move(parsed->graph), parsed->source,
                             std::move(parsed->targets));
    if (!problem.ok()) {
      std::fprintf(stderr, "%s: %s\n", file.c_str(),
                   problem.status().to_string().c_str());
      ++failed;
      continue;
    }
    pmcast::SolveRequest request;
    request.problem = std::move(*problem);
    request.deadline_ms =
        no_deadline ? pmcast::SolveRequest::kNoDeadline : deadline_ms;
    pmcast::Result<pmcast::net::RemoteResponse> response =
        client.solve(request);
    if (!response.ok()) {
      std::printf("%s: %s\n", file.c_str(),
                  response.status().to_string().c_str());
      ++failed;
      continue;
    }
    std::printf("%s: period %.6g (throughput %.6g) via %s, %.1f ms "
                "server-side%s%s\n",
                file.c_str(), response->period, response->throughput(),
                pmcast::strategy_id_name(response->winner),
                response->total_ms,
                response->from_cache ? " [cache]" : "",
                response->coalesced ? " [coalesced]" : "");
  }

  if (want_stats) {
    pmcast::Result<pmcast::net::ServerStats> stats = client.stats();
    if (!stats.ok()) {
      std::fprintf(stderr, "%s\n", stats.status().to_string().c_str());
      return 1;
    }
    print_stats(*stats);
  }
  if (want_trace) {
    pmcast::Result<pmcast::net::ServerTrace> trace = client.trace();
    if (!trace.ok()) {
      std::fprintf(stderr, "%s\n", trace.status().to_string().c_str());
      return 1;
    }
    print_trace(*trace);
  }
  return failed == 0 ? 0 : 1;
}

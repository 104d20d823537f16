/// \file pmcast_serve.cpp
/// The stock pmcast daemon binary: bind the resident socket server
/// (pmcast/server.hpp) around one long-lived pmcast::Service and serve the
/// binary wire protocol until SIGTERM/SIGINT triggers a graceful drain.
///
/// Usage:
///   pmcast_serve [--host H] [--port P] [--port-file PATH]
///                [--threads N] [--cache N] [--deadline-ms MS]
///                [--qps Q] [--burst B] [--max-in-flight N]
///                [--global-max-in-flight N] [--drain-timeout-ms MS]
///                [--idle-timeout-ms MS] [--read-timeout-ms MS]
///                [--max-output-buffer BYTES] [--brownout]
///
/// --port 0 (the default) binds an ephemeral port; --port-file writes the
/// bound port to PATH once listening, so scripts can start the daemon and
/// discover where it landed without a race.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "pmcast/server.hpp"

namespace {

pmcast::net::Server* g_server = nullptr;

void handle_shutdown_signal(int) {
  // request_drain() is async-signal-safe: an atomic store + eventfd write.
  if (g_server != nullptr) g_server->request_drain();
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--host H] [--port P] [--port-file PATH] [--threads N]\n"
      "          [--cache N] [--deadline-ms MS] [--qps Q] [--burst B]\n"
      "          [--max-in-flight N] [--global-max-in-flight N]\n"
      "          [--drain-timeout-ms MS] [--idle-timeout-ms MS]\n"
      "          [--read-timeout-ms MS] [--max-output-buffer BYTES]\n"
      "          [--brownout]\n"
      "Serve the pmcast portfolio engine over the binary wire protocol.\n"
      "SIGTERM/SIGINT drain gracefully: in-flight requests finish (or are\n"
      "cancelled after the drain timeout) and every response is flushed.\n"
      "--brownout admits deadline-infeasible requests on the cheap\n"
      "heuristic allowlist instead of shedding them outright.\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pmcast::net::ServerOptions options;
  options.service.threads = 4;
  options.service.cache_capacity = 4096;
  std::string port_file;

  for (int i = 1; i < argc; ++i) {
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--host") == 0) {
      options.host = next_value("--host");
    } else if (std::strcmp(argv[i], "--port") == 0) {
      options.port = static_cast<std::uint16_t>(
          std::strtoul(next_value("--port"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--port-file") == 0) {
      port_file = next_value("--port-file");
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      options.service.threads =
          static_cast<int>(std::strtol(next_value("--threads"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--cache") == 0) {
      options.service.cache_capacity = static_cast<std::size_t>(
          std::strtoull(next_value("--cache"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      options.service.default_deadline_ms =
          std::strtod(next_value("--deadline-ms"), nullptr);
    } else if (std::strcmp(argv[i], "--qps") == 0) {
      options.default_quota.qps = std::strtod(next_value("--qps"), nullptr);
    } else if (std::strcmp(argv[i], "--burst") == 0) {
      options.default_quota.burst =
          std::strtod(next_value("--burst"), nullptr);
    } else if (std::strcmp(argv[i], "--max-in-flight") == 0) {
      options.default_quota.max_in_flight = static_cast<int>(
          std::strtol(next_value("--max-in-flight"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--global-max-in-flight") == 0) {
      options.global_max_in_flight = static_cast<int>(
          std::strtol(next_value("--global-max-in-flight"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--drain-timeout-ms") == 0) {
      options.drain_timeout_ms =
          std::strtod(next_value("--drain-timeout-ms"), nullptr);
    } else if (std::strcmp(argv[i], "--idle-timeout-ms") == 0) {
      options.idle_timeout_ms =
          std::strtod(next_value("--idle-timeout-ms"), nullptr);
    } else if (std::strcmp(argv[i], "--read-timeout-ms") == 0) {
      options.read_timeout_ms =
          std::strtod(next_value("--read-timeout-ms"), nullptr);
    } else if (std::strcmp(argv[i], "--max-output-buffer") == 0) {
      options.max_output_buffer_bytes = static_cast<std::size_t>(
          std::strtoull(next_value("--max-output-buffer"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--brownout") == 0) {
      options.brownout.enabled = true;
    } else {
      return usage(argv[0]);
    }
  }

  pmcast::net::Server server(std::move(options));
  pmcast::Status started = server.start();
  if (!started.ok()) {
    std::fprintf(stderr, "pmcast_serve: %s\n", started.to_string().c_str());
    return 1;
  }

  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "pmcast_serve: cannot write port file %s\n",
                   port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", static_cast<unsigned>(server.port()));
    std::fclose(f);
  }

  g_server = &server;
  struct sigaction action = {};
  action.sa_handler = handle_shutdown_signal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  std::printf("pmcast_serve: listening on port %u\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  server.run();  // blocks until a drain completes

  pmcast::net::ServerStats stats = server.stats();
  std::printf("pmcast_serve: drained; %llu responses, %llu errors, "
              "%llu shed\n",
              static_cast<unsigned long long>(stats.responses_sent),
              static_cast<unsigned long long>(stats.errors_sent),
              static_cast<unsigned long long>(stats.total_shed()));
  g_server = nullptr;
  return 0;
}

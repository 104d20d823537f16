/// End-to-end daemon suite over real loopback sockets: solve round-trips
/// (including cache hits and deadlines past the clock's range), remote
/// stats and trace, protocol-error handling, duplicate request ids, remote
/// cancellation, the in-flight cap on no-deadline requests, and graceful
/// drain with work in flight.
/// Every server runs on an ephemeral port with run() on a background
/// thread.

#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "topology/tiers.hpp"

namespace pmcast::net {
namespace {

Problem diamond_problem() {
  Digraph g(4);
  g.add_edge(0, 1, 2.0);
  g.add_edge(0, 2, 3.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(2, 3, 1.5);
  return Problem(std::move(g), 0, {1, 3});
}

/// A platform big enough that a full-portfolio solve reliably stays in
/// flight for the admission/drain tests (LP heuristics over 30 nodes).
Problem slow_problem() {
  topo::Platform platform =
      topo::generate_tiers(topo::TiersParams::small30(), 7);
  std::vector<NodeId> targets(platform.lan.begin(),
                              platform.lan.begin() + 8);
  return Problem(platform.graph, platform.source, std::move(targets));
}

/// Server + loop thread with RAII teardown so a failing ASSERT cannot leak
/// a running daemon into the next test.
struct TestDaemon {
  explicit TestDaemon(ServerOptions options) : server(std::move(options)) {
    Status started = server.start();
    EXPECT_TRUE(started.ok()) << started.to_string();
    loop = std::thread([this] { server.run(); });
  }
  ~TestDaemon() {
    server.request_drain();
    if (loop.joinable()) loop.join();
  }

  Server server;
  std::thread loop;
};

TEST(ServerTest, SolveRoundTripMatchesLocalServiceAndHitsCache) {
  ServerOptions options;
  options.service.threads = 2;
  TestDaemon daemon(options);

  Result<Client> client =
      Client::connect("127.0.0.1", daemon.server.port());
  ASSERT_TRUE(client.ok()) << client.status().to_string();

  SolveRequest request;
  request.problem = diamond_problem();
  Result<RemoteResponse> first = client->solve(request);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  EXPECT_GT(first->period, 0.0);
  EXPECT_GE(first->certified, 1);
  EXPECT_FALSE(first->from_cache);
  EXPECT_FALSE(first->outcomes.empty());
  EXPECT_GE(first->queue_ms, 0.0);

  // The remote answer is the same certified period the embedded engine
  // produces locally — the wire adds transport, not semantics.
  ServiceOptions local_options;
  local_options.threads = 1;
  Service local(local_options);
  Result<SolveResponse> local_response = local.solve(request);
  ASSERT_TRUE(local_response.ok());
  EXPECT_DOUBLE_EQ(first->period, local_response->period);

  // Same instance again: served from the daemon's shared result cache.
  Result<RemoteResponse> second = client->solve(request);
  ASSERT_TRUE(second.ok()) << second.status().to_string();
  EXPECT_TRUE(second->from_cache);
  EXPECT_DOUBLE_EQ(second->period, first->period);

  ServerStats stats = daemon.server.stats();
  EXPECT_EQ(stats.requests_admitted, 2u);
  EXPECT_EQ(stats.responses_sent, 2u);
  EXPECT_EQ(stats.errors_sent, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(ServerTest, DeadlinesBeyondTheClockCertifyOverTheWire) {
  // The decoder accepts any finite deadline >= 0. One too far out for the
  // clock to represent never expires: the server certifies, and the
  // client waits without a receive timeout. The cache is off so every
  // request races.
  ServerOptions options;
  options.service.threads = 1;
  options.service.cache_capacity = 0;
  TestDaemon daemon(options);

  Result<Client> client =
      Client::connect("127.0.0.1", daemon.server.port());
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  SolveRequest request;
  request.problem = diamond_problem();
  Result<RemoteResponse> reference = client->solve(request);
  ASSERT_TRUE(reference.ok()) << reference.status().to_string();
  for (double deadline_ms : {1e13, 1e300}) {
    request.deadline_ms = deadline_ms;
    Result<RemoteResponse> r = client->solve(request);
    ASSERT_TRUE(r.ok()) << deadline_ms << " ms: " << r.status().to_string();
    EXPECT_FALSE(r->from_cache);
    EXPECT_EQ(r->period, reference->period) << deadline_ms << " ms";
  }
}

TEST(ServerTest, RemoteStatsReflectServing) {
  ServerOptions options;
  options.service.threads = 2;
  TestDaemon daemon(options);

  Result<Client> client =
      Client::connect("127.0.0.1", daemon.server.port());
  ASSERT_TRUE(client.ok());
  SolveRequest request;
  request.problem = diamond_problem();
  ASSERT_TRUE(client->solve(request).ok());
  ASSERT_TRUE(client->solve(request).ok());

  Result<ServerStats> stats = client->stats();
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(stats->requests_admitted, 2u);
  EXPECT_EQ(stats->responses_sent, 2u);
  EXPECT_EQ(stats->worker_threads, 2u);
  EXPECT_GE(stats->cache_hits, 1u);
  EXPECT_GE(stats->cache_shards, 1u);
  EXPECT_GT(stats->uptime_ms, 0.0);
  EXPECT_EQ(stats->in_flight, 0u);
  EXPECT_GT(stats->ewma_solve_ms, 0.0);
}

TEST(ServerTest, RemoteTraceExposesCutAccountingAndShardHeat) {
  ServerOptions options;
  options.service.threads = 2;
  TestDaemon daemon(options);

  Result<Client> client =
      Client::connect("127.0.0.1", daemon.server.port());
  ASSERT_TRUE(client.ok());
  SolveRequest request;
  request.problem = diamond_problem();
  ASSERT_TRUE(client->solve(request).ok());
  ASSERT_TRUE(client->solve(request).ok());  // cache hit

  Result<ServerTrace> remote = client->trace();
  ASSERT_TRUE(remote.ok()) << remote.status().to_string();
  // The default service runs at Counters detail, so the solve above left
  // cut-predicate accounting behind (the race evaluates early-win and
  // sub-scatter dominance at every strategy start).
  const SolveTrace& trace = remote->trace;
  EXPECT_EQ(trace.detail, TraceDetail::Counters);
  EXPECT_GT(trace.early_win.evaluated, 0u);
  // The sub-scatter check only runs for strategies the early-win cut did
  // not already skip, so either it was evaluated or early-win fired first.
  EXPECT_TRUE(trace.sub_scatter.evaluated > 0 || trace.early_win.hits > 0);
  // One shard-heat row per cache shard, and the cache hit landed somewhere.
  ASSERT_FALSE(remote->shard_heat.empty());
  std::uint64_t total_hits = 0;
  for (const CacheMetrics::ShardHeat& s : remote->shard_heat) {
    total_hits += s.hits;
  }
  EXPECT_GE(total_hits, 1u);
}

TEST(ServerTest, MalformedBytesGetOneProtocolErrorThenClose) {
  ServerOptions options;
  options.service.threads = 1;
  TestDaemon daemon(options);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(daemon.server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage) - 1, 0), 0);

  // The daemon answers with exactly one kProtocol error frame, then closes.
  std::vector<std::uint8_t> in;
  Frame frame;
  std::string error;
  bool got_frame = false, got_eof = false;
  while (!got_eof) {
    std::uint8_t buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      got_eof = true;
      break;
    }
    in.insert(in.end(), buf, buf + n);
    std::size_t consumed = 0;
    if (!got_frame &&
        extract_frame(in, &frame, &consumed, &error) == FrameStatus::kOk) {
      got_frame = true;
      in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(consumed));
    }
  }
  ::close(fd);
  ASSERT_TRUE(got_frame) << "no error frame before close";
  ASSERT_EQ(frame.header.type, MessageType::kError);
  Result<WireErrorMessage> decoded = decode_error(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, WireError::kProtocol);
  EXPECT_TRUE(got_eof);
  EXPECT_EQ(daemon.server.stats().protocol_errors, 1u);
}

TEST(ServerTest, DuplicateRequestIdOnOneConnectionIsAProtocolError) {
  ServerOptions options;
  options.service.threads = 1;
  TestDaemon daemon(options);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(daemon.server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // Two solves with the same request id in one segment: the second must be
  // rejected while the first is pending (ids are per-connection unique).
  WireRequest wire;
  wire.request_id = 5;
  wire.problem = diamond_problem();
  std::vector<std::uint8_t> bytes = encode_solve_request(wire);
  std::vector<std::uint8_t> twice = bytes;
  twice.insert(twice.end(), bytes.begin(), bytes.end());
  ASSERT_EQ(::send(fd, twice.data(), twice.size(), 0),
            static_cast<ssize_t>(twice.size()));

  // Expect one solve response and one protocol error (order unspecified).
  bool saw_response = false, saw_dup_error = false;
  std::vector<std::uint8_t> in;
  while (!(saw_response && saw_dup_error)) {
    std::uint8_t buf[65536];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    ASSERT_GT(n, 0) << "connection closed before both frames arrived";
    in.insert(in.end(), buf, buf + n);
    Frame frame;
    std::size_t consumed = 0;
    std::string error;
    while (extract_frame(in, &frame, &consumed, &error) == FrameStatus::kOk) {
      in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(consumed));
      if (frame.header.type == MessageType::kSolveResponse) {
        saw_response = true;
      } else if (frame.header.type == MessageType::kError) {
        Result<WireErrorMessage> decoded = decode_error(frame);
        ASSERT_TRUE(decoded.ok());
        EXPECT_EQ(decoded->code, WireError::kProtocol);
        saw_dup_error = true;
      }
    }
  }
  ::close(fd);
}

TEST(ServerTest, CancelOfUnknownIdIsIgnored) {
  ServerOptions options;
  options.service.threads = 1;
  TestDaemon daemon(options);

  Result<Client> client =
      Client::connect("127.0.0.1", daemon.server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->cancel(424242).ok());
  SolveRequest request;
  request.problem = diamond_problem();
  EXPECT_TRUE(client->solve(request).ok());
}

TEST(ServerTest, CancelFrameStopsAnInFlightSolve) {
  // A cancel frame stops the request it names on its own connection: the
  // race is cut at its next checkpoint and answered with an error frame,
  // which the client's next round-trip discards as stale.
  ServerOptions options;
  options.service.threads = 1;
  options.service.cache_capacity = 0;
  TestDaemon daemon(options);

  ClientOptions client_options;
  client_options.response_timeout_ms = 200.0;
  client_options.retry.max_attempts = 1;
  Result<Client> client = Client::connect("127.0.0.1", daemon.server.port(),
                                          client_options);
  ASSERT_TRUE(client.ok()) << client.status().to_string();

  // Reduced broadcast alone runs for seconds on this platform, far past
  // the client's 200 ms wait.
  SolveRequest slow;
  slow.problem = slow_problem();
  slow.strategies = {StrategyId::ReducedBroadcast};
  slow.deadline_ms = SolveRequest::kNoDeadline;
  const std::uint64_t slow_id = client->next_request_id();
  Result<RemoteResponse> timed_out = client->solve(slow);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded)
      << timed_out.status().to_string();
  ASSERT_EQ(daemon.server.stats().in_flight, 1u);

  ASSERT_TRUE(client->cancel(slow_id).ok());
  for (int i = 0; i < 5000 && daemon.server.stats().in_flight != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const ServerStats stats = daemon.server.stats();
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.responses_sent, 0u);
  EXPECT_EQ(stats.errors_sent, 1u);  // the cancelled request's answer

  SolveRequest quick;
  quick.problem = diamond_problem();
  Result<RemoteResponse> next = client->solve(quick);
  ASSERT_TRUE(next.ok()) << next.status().to_string();
  EXPECT_EQ(client->stale_frames_discarded(), 1u);
}

TEST(ServerTest, NoDeadlineRequestIsNotAdmittedPastInFlightCap) {
  // The satellite contract end to end: "no deadline" must not bypass
  // admission — a second no-deadline request beyond the cap is answered
  // with an explicit Overloaded error, not queued forever.
  ServerOptions options;
  options.service.threads = 1;
  options.default_quota.max_in_flight = 1;
  options.drain_timeout_ms = 300.0;  // exercised below: cancel stragglers
  TestDaemon daemon(options);

  std::atomic<bool> slow_done{false};
  Status slow_status = Status::Ok();
  std::thread slow([&] {
    Result<Client> client =
        Client::connect("127.0.0.1", daemon.server.port());
    ASSERT_TRUE(client.ok());
    SolveRequest request;
    request.problem = slow_problem();
    request.deadline_ms = SolveRequest::kNoDeadline;
    Result<RemoteResponse> result = client->solve(request);
    slow_status = result.ok() ? Status::Ok() : result.status();
    slow_done.store(true);
  });

  // Wait until the slow request is admitted and holding the cap.
  for (int i = 0; i < 2000 && daemon.server.stats().requests_admitted == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(daemon.server.stats().requests_admitted, 1u);

  Result<Client> client =
      Client::connect("127.0.0.1", daemon.server.port());
  ASSERT_TRUE(client.ok());
  if (!slow_done.load()) {
    SolveRequest capped;
    capped.problem = diamond_problem();
    capped.deadline_ms = SolveRequest::kNoDeadline;
    Result<RemoteResponse> shed = client->solve(capped);
    ASSERT_FALSE(shed.ok()) << "no-deadline request bypassed the cap";
    EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
    EXPECT_NE(shed.status().message().find("in-flight cap"),
              std::string::npos)
        << shed.status().to_string();
    EXPECT_GE(daemon.server.stats().shed_in_flight, 1u);
  }

  // Drain with the slow request still in flight: after drain_timeout_ms it
  // is cooperatively cancelled and still answered with an explicit error —
  // the blocked client returns instead of hanging.
  daemon.server.request_drain();
  daemon.loop.join();
  EXPECT_TRUE(daemon.server.drained());
  slow.join();
  // Whatever won the race (a fast solve vs. the drain cancel), the remote
  // caller got an answer: a certified response or an explicit error.
  if (!slow_status.ok()) {
    EXPECT_TRUE(slow_status.code() == StatusCode::kCancelled ||
                slow_status.code() == StatusCode::kUnavailable)
        << slow_status.to_string();
  }
  // The daemon stopped listening: new connections are refused.
  EXPECT_FALSE(Client::connect("127.0.0.1", daemon.server.port()).ok());
}

TEST(ServerTest, SolveAfterDrainIsAnsweredShuttingDown) {
  ServerOptions options;
  options.service.threads = 1;
  options.drain_timeout_ms = 5'000.0;
  Server server(options);
  ASSERT_TRUE(server.start().ok());

  // Connect first, then drain: the established connection's next solve is
  // answered kShuttingDown while the loop finishes the drain.
  Result<Client> client = Client::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  std::thread loop([&] { server.run(); });
  // Hold the drain open with one admitted slow request so the loop is
  // still serving when the late solve arrives.
  std::thread slow([&] {
    Result<Client> slow_client =
        Client::connect("127.0.0.1", server.port());
    if (!slow_client.ok()) return;
    SolveRequest request;
    request.problem = slow_problem();
    request.deadline_ms = SolveRequest::kNoDeadline;
    (void)slow_client->solve(request);
  });
  for (int i = 0; i < 2000 && server.stats().requests_admitted == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.request_drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  SolveRequest late;
  late.problem = diamond_problem();
  Result<RemoteResponse> result = client->solve(late);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("shutting_down"),
            std::string::npos)
      << result.status().to_string();
  EXPECT_GE(server.stats().shed_shutdown, 1u);

  loop.join();
  slow.join();
  EXPECT_TRUE(server.drained());
}

TEST(ServerTest, ClientReconnectsAndRetriesOnceAfterServerRestart) {
  SolveRequest request;
  request.problem = diamond_problem();

  ServerOptions options;
  options.service.threads = 1;

  std::uint16_t port = 0;
  std::optional<Client> client;
  {
    TestDaemon daemon(options);
    port = daemon.server.port();
    Result<Client> connected = Client::connect("127.0.0.1", port);
    ASSERT_TRUE(connected.ok()) << connected.status().to_string();
    client.emplace(std::move(*connected));
    Result<RemoteResponse> first = client->solve(request);
    ASSERT_TRUE(first.ok()) << first.status().to_string();
  }  // daemon drained; the client's connection is now dead

  {
    // Restart a fresh daemon on the SAME port (SO_REUSEADDR) and reuse
    // the old client object: its first round-trip hits the dead socket
    // (kUnavailable) and the retry-once path dials the remembered
    // endpoint and resends the identical frame.
    ServerOptions restart = options;
    restart.port = port;
    TestDaemon daemon(restart);
    ASSERT_EQ(daemon.server.port(), port);

    Result<RemoteResponse> second = client->solve(request);
    ASSERT_TRUE(second.ok()) << second.status().to_string();
    EXPECT_GT(second->period, 0.0);
    EXPECT_TRUE(client->connected());
  }

  // Nobody listens any more: the dead socket fails, the one reconnect
  // attempt is refused, and solve() reports kUnavailable instead of
  // hanging or retrying in a loop.
  Result<RemoteResponse> third = client->solve(request);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace pmcast::net

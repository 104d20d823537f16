#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/protocol.hpp"
#include "runtime/portfolio.hpp"

namespace pmcast::net {
namespace {

using ServerClock = std::chrono::steady_clock;

constexpr std::uint64_t kListenerId = 0;
constexpr std::uint64_t kWakeId = 1;
constexpr std::uint64_t kFirstConnId = 16;
constexpr std::size_t kReadChunk = 64 * 1024;
/// Extra flush grace after a timed-out drain cancelled the stragglers: the
/// cancellation error frames still deserve a chance to reach their peers.
constexpr double kDrainFlushGraceMs = 2'000.0;

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

struct Server::Impl {
  explicit Impl(ServerOptions opts)
      : options(std::move(opts)),
        service(options.service),
        admission(AdmissionController::Options{
            options.default_quota, options.tenant_quotas,
            options.global_max_in_flight, options.shed_safety_factor,
            /*ewma_alpha=*/0.2}),
        start_time(ServerClock::now()) {
    brownout_strategies =
        options.brownout.strategies.empty()
            ? std::vector<StrategyId>{StrategyId::Mcph,
                                      StrategyId::PrunedDijkstra,
                                      StrategyId::Kmb}
            : options.brownout.strategies;
  }

  ~Impl() {
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (wake_fd >= 0) ::close(wake_fd);
    if (listen_fd >= 0) ::close(listen_fd);
  }

  // ------------------------------------------------------------- plumbing --

  double now_ms() const {
    return std::chrono::duration<double, std::milli>(ServerClock::now() -
                                                     start_time)
        .count();
  }

  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    std::vector<std::uint8_t> in;   ///< unparsed bytes
    std::vector<std::uint8_t> out;  ///< unwritten bytes
    std::size_t out_offset = 0;
    bool epollout_armed = false;
    bool close_after_flush = false;
    double last_activity_ms = 0.0;  ///< last accept/read, for idle timeout
    /// When the oldest buffered partial frame arrived; < 0 = no partial
    /// frame. Drives the slow-loris read timeout.
    double read_started_ms = -1.0;
    /// In-flight requests by id: the token a kCancel (or the connection
    /// closing, or a timed-out drain) stops.
    std::unordered_map<std::uint64_t, CancelToken> pending;

    bool flushed() const { return out_offset >= out.size(); }
  };

  /// Worker -> loop handoff: encoded bytes plus the admission accounting
  /// the loop must settle even when the connection is already gone.
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t request_id = 0;
    std::uint32_t tenant = 0;
    double solve_ms = -1.0;  ///< < 0: no EWMA update (errored before solving)
    bool is_error = false;
    bool brownout = false;
    std::vector<std::uint8_t> bytes;
  };

  // --------------------------------------------------------------- fields --

  ServerOptions options;
  Service service;
  AdmissionController admission;
  ServerClock::time_point start_time;
  /// Raw view of options.fault_plan: every instrumented site branches on
  /// this pointer, so a null plan costs one predictable compare.
  FaultPlan* faults = options.fault_plan.get();
  std::vector<StrategyId> brownout_strategies;

  int listen_fd = -1;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::uint16_t bound_port = 0;
  std::uint64_t next_conn_id = kFirstConnId;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> connections;

  std::mutex completion_mutex;
  std::deque<Completion> completions;

  std::atomic<bool> drain_requested{false};
  std::atomic<bool> drained{false};
  bool draining = false;
  double drain_started_ms = 0.0;
  bool drain_cancelled_stragglers = false;

  // Counters. Atomics so stats() is callable from any thread while the
  // loop runs; all writes happen on the loop thread.
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_open{0};
  std::atomic<std::uint64_t> requests_admitted{0};
  std::atomic<std::uint64_t> responses_sent{0};
  std::atomic<std::uint64_t> errors_sent{0};
  std::atomic<std::uint64_t> shed_qps{0};
  std::atomic<std::uint64_t> shed_in_flight{0};
  std::atomic<std::uint64_t> shed_deadline{0};
  std::atomic<std::uint64_t> shed_shutdown{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  std::atomic<std::uint64_t> brownout_admitted{0};
  std::atomic<std::uint64_t> closed_idle_timeout{0};
  std::atomic<std::uint64_t> closed_read_timeout{0};
  std::atomic<std::uint64_t> closed_backpressure{0};
  std::atomic<std::uint64_t> faults_injected{0};
  std::atomic<std::uint64_t> in_flight{0};
  /// admission.ewma_solve_ms(), copied after each completion like in_flight.
  std::atomic<double> ewma_solve_ms{0.0};

  // ---------------------------------------------------------------- faults --

  /// Poll the fault plan at \p point (no-op without a plan). Delay actions
  /// are applied here — stalling the loop thread is exactly what a delay
  /// fault means for a single-threaded server — so call sites only need to
  /// handle actions that change control flow.
  FaultDecision poll_fault(FaultPoint point) {
    if (faults == nullptr) return {};
    FaultDecision decision = faults->poll(point);
    if (decision) {
      faults_injected.fetch_add(1, std::memory_order_relaxed);
      if (decision.action == FaultAction::kDelay && decision.delay_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(decision.delay_ms));
      }
    }
    return decision;
  }

  // ---------------------------------------------------------------- start --

  Status start() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0);
    if (listen_fd < 0) {
      return Status(StatusCode::kUnavailable,
                    std::string("socket: ") + std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options.port);
    if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
      return Status(StatusCode::kInvalidArgument,
                    "bad listen address '" + options.host + "'");
    }
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      return Status(StatusCode::kUnavailable,
                    "bind " + options.host + ":" +
                        std::to_string(options.port) + ": " +
                        std::strerror(errno));
    }
    if (::listen(listen_fd, options.backlog) < 0) {
      return Status(StatusCode::kUnavailable,
                    std::string("listen: ") + std::strerror(errno));
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    bound_port = ntohs(addr.sin_port);

    epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (epoll_fd < 0 || wake_fd < 0) {
      return Status(StatusCode::kUnavailable,
                    std::string("epoll/eventfd: ") + std::strerror(errno));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerId;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev);
    ev.data.u64 = kWakeId;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &ev);
    return Status::Ok();
  }

  void wake() {
    if (wake_fd >= 0) {
      const std::uint64_t v = 1;
      // Best-effort; EAGAIN means the counter is already nonzero.
      [[maybe_unused]] ssize_t n = ::write(wake_fd, &v, sizeof(v));
    }
  }

  // ----------------------------------------------------------- event loop --

  void run() {
    std::vector<epoll_event> events(128);
    while (true) {
      const int timeout_ms = draining ? 20 : 200;
      const int n =
          ::epoll_wait(epoll_fd, events.data(),
                       static_cast<int>(events.size()), timeout_ms);
      if (n < 0 && errno != EINTR) break;
      for (int i = 0; i < n; ++i) {
        const std::uint64_t id = events[static_cast<std::size_t>(i)].data.u64;
        const std::uint32_t mask = events[static_cast<std::size_t>(i)].events;
        if (id == kListenerId) {
          accept_ready();
        } else if (id == kWakeId) {
          std::uint64_t v;
          while (::read(wake_fd, &v, sizeof(v)) > 0) {
          }
        } else {
          handle_connection_event(id, mask);
        }
      }
      drain_completions();
      if (options.idle_timeout_ms > 0.0 || options.read_timeout_ms > 0.0) {
        scan_timeouts();
      }
      if (drain_requested.load(std::memory_order_acquire) && !draining) {
        begin_drain();
      }
      if (draining && drain_finished()) break;
    }
    shutdown_everything();
    drained.store(true, std::memory_order_release);
  }

  void accept_ready() {
    while (true) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) break;  // EAGAIN or transient error: try next wakeup
      if (draining ||
          connections.size() >=
              static_cast<std::size_t>(options.max_connections)) {
        ::close(fd);
        continue;
      }
      if (poll_fault(FaultPoint::kAccept)) {
        // kEmfile: the fd table is "full"; kReset: the connection dies
        // before it exists. Either way the peer sees an abrupt close.
        ::close(fd);
        continue;
      }
      set_nodelay(fd);
      auto conn = std::make_unique<Connection>();
      conn->fd = fd;
      conn->id = next_conn_id++;
      conn->last_activity_ms = now_ms();
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = conn->id;
      ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev);
      connections.emplace(conn->id, std::move(conn));
      connections_accepted.fetch_add(1, std::memory_order_relaxed);
      connections_open.store(connections.size(), std::memory_order_relaxed);
    }
  }

  void handle_connection_event(std::uint64_t id, std::uint32_t mask) {
    auto it = connections.find(id);
    if (it == connections.end()) return;  // already closed this iteration
    Connection* conn = it->second.get();
    // Read before honouring HUP so a peer that sent-then-closed still gets
    // its last frames processed (read_ready handles the EOF itself).
    if (mask & EPOLLIN) {
      if (!read_ready(conn)) return;  // connection closed
    }
    if (mask & (EPOLLHUP | EPOLLERR)) {
      close_connection(conn);
      return;
    }
    if (mask & EPOLLOUT) flush(conn);
  }

  /// Returns false when the connection was closed.
  bool read_ready(Connection* conn) {
    std::size_t chunk = kReadChunk;
    bool single_read = false;
    if (FaultDecision fault = poll_fault(FaultPoint::kServerRead)) {
      if (fault.action == FaultAction::kReset) {
        close_connection(conn);
        return false;
      }
      if (fault.action == FaultAction::kShortRead) {
        // Deliver at most `magnitude` bytes this readiness event; the rest
        // stays in the kernel buffer for the next (level-triggered) wakeup.
        chunk = static_cast<std::size_t>(std::max<std::uint64_t>(
            fault.magnitude, 1));
        single_read = true;
      }
    }
    while (true) {
      const std::size_t old_size = conn->in.size();
      conn->in.resize(old_size + chunk);
      const ssize_t n = ::read(conn->fd, conn->in.data() + old_size, chunk);
      if (n > 0) {
        conn->in.resize(old_size + static_cast<std::size_t>(n));
        conn->last_activity_ms = now_ms();
        if (single_read || static_cast<std::size_t>(n) < chunk) break;
        continue;
      }
      conn->in.resize(old_size);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      // EOF or hard error. Anything still buffered is a frame the peer
      // abandoned mid-send — not an error, just a dead connection.
      close_connection(conn);
      return false;
    }
    return parse_frames(conn);
  }

  /// Returns false when the connection was closed.
  bool parse_frames(Connection* conn) {
    // Sends inside handle_frame can close the connection (peer gone mid
    // write), freeing *conn — track liveness by id, never touch conn after
    // a call that may have closed it.
    const std::uint64_t cid = conn->id;
    std::size_t consumed_total = 0;
    while (true) {
      Frame frame;
      std::size_t consumed = 0;
      std::string error;
      const FrameStatus status = extract_frame(
          std::span<const std::uint8_t>(conn->in).subspan(consumed_total),
          &frame, &consumed, &error);
      if (status == FrameStatus::kNeedMore) break;
      if (status == FrameStatus::kMalformed) {
        // A corrupted length prefix cannot be resynchronised: answer once,
        // flush, close.
        protocol_errors.fetch_add(1, std::memory_order_relaxed);
        conn->in.clear();
        conn->close_after_flush = true;  // flush() closes once drained
        send_error(conn, 0, 0, WireError::kProtocol, error);
        return connections.contains(cid);
      }
      consumed_total += consumed;
      handle_frame(conn, frame);
      if (!connections.contains(cid)) return false;
    }
    if (consumed_total > 0) {
      conn->in.erase(conn->in.begin(),
                     conn->in.begin() +
                         static_cast<std::ptrdiff_t>(consumed_total));
    }
    // Read-timeout bookkeeping: a non-empty buffer here is a partial frame.
    // Start the clock when one appears; stop it when the buffer drains.
    if (conn->in.empty()) {
      conn->read_started_ms = -1.0;
    } else if (conn->read_started_ms < 0.0) {
      conn->read_started_ms = now_ms();
    }
    return true;
  }

  void handle_frame(Connection* conn, const Frame& frame) {
    switch (frame.header.type) {
      case MessageType::kSolveRequest:
        handle_solve(conn, frame);
        return;
      case MessageType::kCancel: {
        auto it = conn->pending.find(frame.header.request_id);
        if (it != conn->pending.end()) it->second.request_stop();
        return;  // the cancelled solve still answers through its completion
      }
      case MessageType::kStatsRequest:
        send_bytes(conn,
                   encode_stats_response(stats(), frame.header.request_id));
        return;
      case MessageType::kTraceRequest:
        send_bytes(conn, encode_trace_response(
                             ServerTrace{service.aggregate_trace(),
                                         service.cache_metrics().shard_heat},
                             frame.header.request_id));
        return;
      case MessageType::kSolveResponse:
      case MessageType::kError:
      case MessageType::kStatsResponse:
      case MessageType::kTraceResponse:
        // Server-to-client message types arriving at the server.
        protocol_errors.fetch_add(1, std::memory_order_relaxed);
        send_error(conn, frame.header.request_id, frame.header.tenant,
                   WireError::kProtocol,
                   std::string("unexpected client-bound message type ") +
                       message_type_name(frame.header.type));
        return;
    }
  }

  void handle_solve(Connection* conn, const Frame& frame) {
    const std::uint64_t request_id = frame.header.request_id;
    const std::uint32_t tenant = frame.header.tenant;
    if (draining) {
      shed_shutdown.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, request_id, tenant, WireError::kShuttingDown,
                 "daemon is draining");
      return;
    }
    if (conn->pending.contains(request_id)) {
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, request_id, tenant, WireError::kProtocol,
                 "request id already in flight on this connection");
      return;
    }
    Result<WireRequest> decoded = decode_solve_request(frame);
    if (!decoded.ok()) {
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, request_id, tenant, WireError::kProtocol,
                 decoded.status().message());
      return;
    }

    // Fault point BEFORE admission: an injected failure here must not leak
    // admission accounting (nothing has been charged yet).
    if (FaultDecision fault = poll_fault(FaultPoint::kDispatch)) {
      if (fault.action == FaultAction::kReset) {
        close_connection(conn);
        return;
      }
      // Other actions at dispatch reduce to the delay poll_fault applied.
    }

    // Admission: the deadline the shed policy sees is the one the Service
    // will enforce, resolved the same way (negative = none). No-deadline
    // requests skip the deadline shed but not the caps.
    SolveRequest request = decoded->to_solve_request();
    const double resolved_deadline =
        runtime::resolve_race(options.service, request).budget.deadline_ms;
    const double admission_deadline =
        resolved_deadline > 0.0 ? resolved_deadline : -1.0;
    const AdmissionDecision decision =
        admission.admit(tenant, now_ms(), admission_deadline,
                        service.thread_count(), options.brownout.enabled);
    switch (decision) {
      case AdmissionDecision::kAdmit:
      case AdmissionDecision::kAdmitBrownout:
        break;
      case AdmissionDecision::kShedQps:
        shed_qps.fetch_add(1, std::memory_order_relaxed);
        send_error(conn, request_id, tenant, WireError::kOverloaded,
                   "tenant qps quota exhausted");
        return;
      case AdmissionDecision::kShedInFlight:
        shed_in_flight.fetch_add(1, std::memory_order_relaxed);
        send_error(conn, request_id, tenant, WireError::kOverloaded,
                   "in-flight cap reached");
        return;
      case AdmissionDecision::kShedDeadline: {
        shed_deadline.fetch_add(1, std::memory_order_relaxed);
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "estimated queue delay %.1f ms exceeds deadline %.1f ms",
                      admission.estimated_queue_delay_ms(
                          service.thread_count()),
                      admission_deadline);
        send_error(conn, request_id, tenant, WireError::kOverloaded, buf);
        return;
      }
    }

    const bool brownout = decision == AdmissionDecision::kAdmitBrownout;
    requests_admitted.fetch_add(1, std::memory_order_relaxed);
    if (brownout) {
      brownout_admitted.fetch_add(1, std::memory_order_relaxed);
    }
    in_flight.store(
        static_cast<std::uint64_t>(admission.global_in_flight()),
        std::memory_order_relaxed);

    // The request's own token: a kCancel for its id, its connection
    // closing and a timed-out drain all stop it.
    CancelToken cancel;
    request.cancel = cancel;
    if (brownout) {
      // Degraded admission: override the strategy allowlist with the cheap
      // arms. The client asked for the full portfolio and gets an honest
      // brownout bit on the response instead.
      request.strategies = brownout_strategies;
    }
    const std::uint64_t conn_id = conn->id;
    std::vector<SolveRequest> one;
    one.push_back(std::move(request));
    service.submit_batch(
        std::move(one),
        [this, conn_id, request_id, tenant, brownout](
            std::size_t, const Result<SolveResponse>& result) {
          Completion completion;
          completion.conn_id = conn_id;
          completion.request_id = request_id;
          completion.tenant = tenant;
          completion.brownout = brownout;
          if (result.ok()) {
            completion.solve_ms = result->timing.solve_ms;
            completion.bytes = encode_solve_response(
                make_wire_response(request_id, *result,
                                   result->timing.total_ms -
                                       result->timing.solve_ms,
                                   brownout),
                tenant);
          } else {
            completion.is_error = true;
            completion.bytes = encode_error(
                request_id, tenant,
                wire_error_from_status(result.status().code()),
                result.status().message());
          }
          {
            std::lock_guard<std::mutex> lock(completion_mutex);
            completions.push_back(std::move(completion));
          }
          wake();
        });
    // Cache hits complete inline above; the pending entry is still recorded
    // and will be settled by drain_completions() later this iteration.
    conn->pending.emplace(request_id, cancel);
  }

  void drain_completions() {
    std::deque<Completion> ready;
    {
      std::lock_guard<std::mutex> lock(completion_mutex);
      ready.swap(completions);
    }
    for (Completion& completion : ready) {
      admission.complete(completion.tenant, completion.solve_ms,
                         completion.brownout);
      in_flight.store(
          static_cast<std::uint64_t>(admission.global_in_flight()),
          std::memory_order_relaxed);
      ewma_solve_ms.store(admission.ewma_solve_ms(),
                          std::memory_order_relaxed);
      auto it = connections.find(completion.conn_id);
      if (it == connections.end()) continue;  // peer left; accounting only
      Connection* conn = it->second.get();
      conn->pending.erase(completion.request_id);
      if (faults != nullptr) {
        FaultDecision fault = apply_frame_fault(
            faults, FaultPoint::kResponseEnqueue, &completion.bytes);
        if (fault) {
          faults_injected.fetch_add(1, std::memory_order_relaxed);
          if (fault.action == FaultAction::kDelay && fault.delay_ms > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(fault.delay_ms));
          }
          if (fault.action == FaultAction::kReset) {
            close_connection(conn);
            continue;  // admission already settled above
          }
          if (fault.action == FaultAction::kTruncate) {
            // The peer gets a cut-off frame and then a close — exactly what
            // a server dying mid-send looks like.
            conn->close_after_flush = true;
          }
        }
      }
      if (completion.is_error) {
        errors_sent.fetch_add(1, std::memory_order_relaxed);
      } else {
        responses_sent.fetch_add(1, std::memory_order_relaxed);
      }
      send_bytes(conn, std::move(completion.bytes));
    }
  }

  // ----------------------------------------------------------------- send --

  void send_error(Connection* conn, std::uint64_t request_id,
                  std::uint32_t tenant, WireError code,
                  const std::string& message) {
    errors_sent.fetch_add(1, std::memory_order_relaxed);
    send_bytes(conn, encode_error(request_id, tenant, code, message));
  }

  void send_bytes(Connection* conn, std::vector<std::uint8_t> bytes) {
    if (conn->flushed()) {
      conn->out.clear();
      conn->out_offset = 0;
    }
    conn->out.insert(conn->out.end(), bytes.begin(), bytes.end());
    // Backpressure cap: a peer that stops reading its responses cannot hold
    // unbounded memory hostage. Closing loses the queued responses, but the
    // peer was not consuming them anyway.
    if (options.max_output_buffer_bytes > 0 &&
        conn->out.size() - conn->out_offset >
            options.max_output_buffer_bytes) {
      closed_backpressure.fetch_add(1, std::memory_order_relaxed);
      close_connection(conn);
      return;
    }
    flush(conn);
  }

  void flush(Connection* conn) {
    while (!conn->flushed()) {
      std::size_t want = conn->out.size() - conn->out_offset;
      if (FaultDecision fault = poll_fault(FaultPoint::kServerWrite)) {
        if (fault.action == FaultAction::kReset) {
          close_connection(conn);
          return;
        }
        if (fault.action == FaultAction::kShortWrite) {
          want = std::min<std::size_t>(
              want, static_cast<std::size_t>(
                        std::max<std::uint64_t>(fault.magnitude, 1)));
        }
      }
      const ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_offset,
                               want, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_offset += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        arm_epollout(conn, true);
        return;
      }
      close_connection(conn);  // peer gone mid-write
      return;
    }
    arm_epollout(conn, false);
    if (conn->close_after_flush) close_connection(conn);
  }

  void arm_epollout(Connection* conn, bool on) {
    if (conn->epollout_armed == on) return;
    conn->epollout_armed = on;
    epoll_event ev{};
    ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
    ev.data.u64 = conn->id;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
  }

  // ------------------------------------------------------------- timeouts --

  /// Per-tick sweep (epoll_wait bounds the tick at 200 ms, so sub-tick
  /// timeouts resolve at that granularity). Read timeout outranks idle: a
  /// connection trickling header bytes is "active" but still hostile.
  void scan_timeouts() {
    const double now = now_ms();
    std::vector<Connection*> doomed_read;
    std::vector<Connection*> doomed_idle;
    for (auto& [id, conn] : connections) {
      if (options.read_timeout_ms > 0.0 && conn->read_started_ms >= 0.0 &&
          now - conn->read_started_ms > options.read_timeout_ms) {
        doomed_read.push_back(conn.get());
      } else if (options.idle_timeout_ms > 0.0 && conn->pending.empty() &&
                 conn->flushed() && conn->in.empty() &&
                 now - conn->last_activity_ms > options.idle_timeout_ms) {
        // Idle only counts when nothing is owed in either direction.
        doomed_idle.push_back(conn.get());
      }
    }
    for (Connection* conn : doomed_read) {
      closed_read_timeout.fetch_add(1, std::memory_order_relaxed);
      close_connection(conn);
    }
    for (Connection* conn : doomed_idle) {
      closed_idle_timeout.fetch_add(1, std::memory_order_relaxed);
      close_connection(conn);
    }
  }

  void close_connection(Connection* conn) {
    // In-flight work for a vanished peer is wasted: cancel it. The
    // completions still arrive and settle the admission accounting.
    for (auto& [id, cancel] : conn->pending) cancel.request_stop();
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    connections.erase(conn->id);
    connections_open.store(connections.size(), std::memory_order_relaxed);
  }

  // ---------------------------------------------------------------- drain --

  void begin_drain() {
    draining = true;
    drain_started_ms = now_ms();
    if (listen_fd >= 0) {
      ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
      ::close(listen_fd);
      listen_fd = -1;
    }
  }

  bool drain_finished() {
    const double elapsed = now_ms() - drain_started_ms;
    if (admission.global_in_flight() > 0) {
      if (elapsed > options.drain_timeout_ms && !drain_cancelled_stragglers) {
        // Grace expired: cancel the stragglers. Each still gets an explicit
        // kCancelled error frame through the normal completion path.
        drain_cancelled_stragglers = true;
        for (auto& [id, conn] : connections) {
          for (auto& [rid, cancel] : conn->pending) cancel.request_stop();
        }
      }
      if (elapsed <= options.drain_timeout_ms + kDrainFlushGraceMs) {
        return false;
      }
      // Even cancellation did not complete in time (a strategy stuck past
      // every checkpoint); abandoning ship beats hanging forever.
      return true;
    }
    // Nothing in flight: exit once every response byte is out (or give up
    // on peers that stopped reading after the flush grace).
    bool all_flushed = true;
    for (auto& [id, conn] : connections) {
      if (!conn->flushed()) {
        all_flushed = false;
        break;
      }
    }
    return all_flushed ||
           elapsed > options.drain_timeout_ms + kDrainFlushGraceMs;
  }

  void shutdown_everything() {
    std::vector<Connection*> all;
    all.reserve(connections.size());
    for (auto& [id, conn] : connections) all.push_back(conn.get());
    for (Connection* conn : all) close_connection(conn);
  }

  // ---------------------------------------------------------------- stats --

  /// The one counter snapshot (Server::stats() and kStatsResponse). Reads
  /// only atomics and thread-safe Service accessors, so any thread may
  /// call it.
  ServerStats stats() const {
    ServerStats stats;
    stats.uptime_ms = now_ms();
    stats.connections_accepted =
        connections_accepted.load(std::memory_order_relaxed);
    stats.connections_open = connections_open.load(std::memory_order_relaxed);
    stats.requests_admitted =
        requests_admitted.load(std::memory_order_relaxed);
    stats.brownout_admitted =
        brownout_admitted.load(std::memory_order_relaxed);
    stats.responses_sent = responses_sent.load(std::memory_order_relaxed);
    stats.errors_sent = errors_sent.load(std::memory_order_relaxed);
    stats.shed_qps = shed_qps.load(std::memory_order_relaxed);
    stats.shed_in_flight = shed_in_flight.load(std::memory_order_relaxed);
    stats.shed_deadline = shed_deadline.load(std::memory_order_relaxed);
    stats.shed_shutdown = shed_shutdown.load(std::memory_order_relaxed);
    stats.protocol_errors = protocol_errors.load(std::memory_order_relaxed);
    stats.closed_idle_timeout =
        closed_idle_timeout.load(std::memory_order_relaxed);
    stats.closed_read_timeout =
        closed_read_timeout.load(std::memory_order_relaxed);
    stats.closed_backpressure =
        closed_backpressure.load(std::memory_order_relaxed);
    stats.faults_injected = faults_injected.load(std::memory_order_relaxed);
    stats.in_flight = in_flight.load(std::memory_order_relaxed);
    stats.worker_threads = static_cast<std::uint32_t>(service.thread_count());
    const CacheMetrics cache = service.cache_metrics();
    stats.cache_shards = static_cast<std::uint32_t>(cache.shards);
    stats.cache_hits = cache.hits;
    stats.cache_misses = cache.misses;
    stats.cache_entries = cache.entries;
    stats.ewma_solve_ms = ewma_solve_ms.load(std::memory_order_relaxed);
    return stats;
  }
};

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() = default;

Status Server::start() { return impl_->start(); }

std::uint16_t Server::port() const { return impl_->bound_port; }

void Server::run() { impl_->run(); }

void Server::request_drain() {
  impl_->drain_requested.store(true, std::memory_order_release);
  impl_->wake();
}

bool Server::drained() const {
  return impl_->drained.load(std::memory_order_acquire);
}

ServerStats Server::stats() const { return impl_->stats(); }

}  // namespace pmcast::net

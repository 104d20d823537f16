#include "net/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>

namespace pmcast::net {
namespace {

using ClientClock = std::chrono::steady_clock;

Status socket_error(const std::string& what) {
  return Status(StatusCode::kUnavailable, what + ": " + std::strerror(errno));
}

/// splitmix64, matching faultpoint.cpp: retry jitter must be bit-stable
/// across platforms so a seeded chaos run replays exactly.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Bound the next recv() by \p timeout_ms; not positive, or too large for
/// timeval's seconds (up to +inf), means no timeout.
void set_recv_timeout(int fd, double timeout_ms) {
  timeval tv{};
  if (timeout_ms > 0.0 &&
      timeout_ms / 1000.0 <
          static_cast<double>(std::numeric_limits<time_t>::max())) {
    const double seconds = std::floor(timeout_ms / 1000.0);
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        std::clamp((timeout_ms - seconds * 1000.0) * 1000.0, 0.0, 999999.0));
    if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1000;
  }
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

}  // namespace

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      options_(std::move(other.options_)),
      next_request_id_(other.next_request_id_),
      in_(std::move(other.in_)),
      host_(std::move(other.host_)),
      port_(other.port_),
      attempts_(other.attempts_),
      stale_discarded_(other.stale_discarded_) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    options_ = std::move(other.options_);
    next_request_id_ = other.next_request_id_;
    in_ = std::move(other.in_);
    host_ = std::move(other.host_);
    port_ = other.port_;
    attempts_ = other.attempts_;
    stale_discarded_ = other.stale_discarded_;
  }
  return *this;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  in_.clear();
}

FaultDecision Client::poll_fault(FaultPoint point) {
  FaultPlan* plan = options_.fault_plan.get();
  if (plan == nullptr) return {};
  FaultDecision decision = plan->poll(point);
  if (decision.action == FaultAction::kDelay && decision.delay_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(decision.delay_ms));
  }
  return decision;
}

namespace {

/// Open a fresh TCP connection to host:port. Shared by the initial
/// connect() and by reconnect() on solve()'s retry path. With a positive
/// \p connect_timeout_ms the connect runs non-blocking and is bounded by a
/// poll(); a timeout maps to kUnavailable so the retry policy covers it.
Result<int> dial(const std::string& host, std::uint16_t port,
                 double connect_timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return socket_error("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    // Not a dotted quad: resolve it.
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* resolved = nullptr;
    if (::getaddrinfo(host.c_str(), nullptr, &hints, &resolved) != 0 ||
        resolved == nullptr) {
      ::close(fd);
      return Status(StatusCode::kNotFound,
                    "cannot resolve host '" + host + "'");
    }
    addr.sin_addr =
        reinterpret_cast<sockaddr_in*>(resolved->ai_addr)->sin_addr;
    ::freeaddrinfo(resolved);
  }

  const std::string endpoint = host + ":" + std::to_string(port);
  if (connect_timeout_ms > 0.0) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    const int rc =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc < 0) {
      if (errno != EINPROGRESS) {
        Status status = socket_error("connect " + endpoint);
        ::close(fd);
        return status;
      }
      pollfd pfd{fd, POLLOUT, 0};
      const int pr = ::poll(
          &pfd, 1, static_cast<int>(std::ceil(connect_timeout_ms)));
      if (pr == 0) {
        ::close(fd);
        return Status(StatusCode::kUnavailable,
                      "connect " + endpoint + " timed out");
      }
      int so_error = 0;
      socklen_t len = sizeof(so_error);
      if (pr < 0 ||
          ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0 ||
          so_error != 0) {
        if (so_error != 0) errno = so_error;
        Status status = socket_error("connect " + endpoint);
        ::close(fd);
        return status;
      }
    }
    ::fcntl(fd, F_SETFL, flags);  // back to blocking for send/recv
  } else if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) < 0) {
    Status status = socket_error("connect " + endpoint);
    ::close(fd);
    return status;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

Result<Client> Client::connect(const std::string& host, std::uint16_t port,
                               ClientOptions options) {
  Client client;
  client.options_ = std::move(options);
  client.host_ = host;
  client.port_ = port;
  if (client.poll_fault(FaultPoint::kConnect).action == FaultAction::kReset) {
    return Status(StatusCode::kUnavailable,
                  "injected fault: connect reset");
  }
  Result<int> fd = dial(host, port, client.options_.connect_timeout_ms);
  if (!fd.ok()) return fd.status();
  client.fd_ = *fd;
  return client;
}

Status Client::reconnect() {
  close();
  if (host_.empty()) {
    return Status(StatusCode::kUnavailable, "no remembered endpoint");
  }
  if (poll_fault(FaultPoint::kConnect).action == FaultAction::kReset) {
    return Status(StatusCode::kUnavailable, "injected fault: connect reset");
  }
  Result<int> fd = dial(host_, port_, options_.connect_timeout_ms);
  if (!fd.ok()) return fd.status();
  fd_ = *fd;
  return Status::Ok();
}

Status Client::send_all(const std::vector<std::uint8_t>& bytes) {
  if (fd_ < 0) return Status(StatusCode::kUnavailable, "client not connected");
  std::size_t limit = bytes.size();
  if (FaultDecision fault = poll_fault(FaultPoint::kClientSend)) {
    if (fault.action == FaultAction::kReset) {
      close();
      return Status(StatusCode::kUnavailable, "injected fault: send reset");
    }
    if (fault.action == FaultAction::kShortWrite ||
        fault.action == FaultAction::kTruncate) {
      // Die mid-send: the server receives a truncated frame followed by a
      // close — exactly what a client crash between write() calls leaves.
      limit = std::min<std::size_t>(
          bytes.size(), static_cast<std::size_t>(fault.magnitude));
    }
  }
  std::size_t sent = 0;
  while (sent < limit) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, limit - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      close();
      return socket_error("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  if (limit < bytes.size()) {
    close();
    return Status(StatusCode::kUnavailable,
                  "injected fault: short write (" + std::to_string(limit) +
                      " of " + std::to_string(bytes.size()) + " bytes)");
  }
  return Status::Ok();
}

Result<Frame> Client::read_matching(std::uint64_t request_id,
                                    double timeout_ms) {
  const ClientClock::time_point start = ClientClock::now();
  int stale_this_call = 0;
  while (true) {
    // Frames already buffered first.
    while (true) {
      Frame frame;
      std::size_t consumed = 0;
      std::string error;
      const FrameStatus status =
          extract_frame(in_, &frame, &consumed, &error);
      if (status == FrameStatus::kMalformed) {
        close();
        return Status(StatusCode::kInternal,
                      "protocol error from server: " + error);
      }
      if (status == FrameStatus::kNeedMore) break;
      in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(
                                               consumed));
      if (frame.header.request_id == request_id) return frame;
      // A stale frame (response to an id we stopped waiting for): drop it,
      // but only so many times — an unbounded run of mismatched ids means
      // the stream is poisoned (or the peer is not our server), and
      // discarding forever would turn that into a silent hang.
      ++stale_discarded_;
      if (options_.max_stale_frames > 0 &&
          ++stale_this_call > options_.max_stale_frames) {
        close();
        return Status(StatusCode::kInternal,
                      "protocol error from server: more than " +
                          std::to_string(options_.max_stale_frames) +
                          " stale frames while waiting for request " +
                          std::to_string(request_id));
      }
    }

    double remaining_ms = -1.0;
    if (timeout_ms >= 0.0) {
      const double elapsed =
          std::chrono::duration<double, std::milli>(ClientClock::now() -
                                                    start)
              .count();
      remaining_ms = timeout_ms - elapsed;
      if (remaining_ms <= 0.0) {
        return Status(StatusCode::kDeadlineExceeded,
                      "timed out waiting for the server's response");
      }
    }
    set_recv_timeout(fd_, remaining_ms > 0.0 ? remaining_ms : 0.0);

    std::size_t want = sizeof(std::uint8_t) * 16 * 1024;
    if (FaultDecision fault = poll_fault(FaultPoint::kClientRecv)) {
      if (fault.action == FaultAction::kReset) {
        close();
        return Status(StatusCode::kUnavailable, "injected fault: recv reset");
      }
      if (fault.action == FaultAction::kShortRead) {
        want = std::max<std::size_t>(
            1, static_cast<std::size_t>(fault.magnitude));
      }
    }
    std::uint8_t chunk[16 * 1024];
    want = std::min(want, sizeof(chunk));
    const ssize_t n = ::recv(fd_, chunk, want, 0);
    if (n > 0) {
      in_.insert(in_.end(), chunk, chunk + n);
      continue;
    }
    if (n < 0 && (errno == EINTR)) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return Status(StatusCode::kDeadlineExceeded,
                    "timed out waiting for the server's response");
    }
    close();
    return Status(StatusCode::kUnavailable,
                  n == 0 ? "server closed the connection"
                         : std::string("recv: ") + std::strerror(errno));
  }
}

Result<RemoteResponse> Client::solve(const SolveRequest& request) {
  if (fd_ < 0) return Status(StatusCode::kUnavailable, "client not connected");
  Status valid = validate_problem(request.problem);
  if (!valid.ok()) return valid;

  WireRequest wire;
  wire.tenant = options_.tenant;
  wire.request_id = next_request_id_++;
  if (request.deadline_ms < 0.0) {
    wire.no_deadline = true;  // the explicit kNoDeadline sentinel
  } else {
    wire.deadline_ms = request.deadline_ms;
  }
  wire.priority = request.priority;
  wire.strategy_mask = mask_from_strategies(request.strategies);
  wire.exact_max_nodes = request.limits.exact_max_nodes;
  wire.exact_max_trees =
      static_cast<std::uint64_t>(request.limits.exact_max_trees);
  if (request.pruning.has_value()) {
    wire.pruning = static_cast<std::uint8_t>(*request.pruning);
  }
  wire.known_lower_bound = request.known_lower_bound;
  wire.problem = request.problem;

  // How long to block: the request's own deadline plus slack, or the
  // no-deadline client cap (0 = forever).
  double timeout_ms = -1.0;
  if (!wire.no_deadline && wire.deadline_ms > 0.0) {
    timeout_ms = wire.deadline_ms + options_.response_slack_ms;
  } else if (options_.response_timeout_ms > 0.0) {
    timeout_ms = options_.response_timeout_ms;
  }

  const std::vector<std::uint8_t> encoded = encode_solve_request(wire);
  auto round_trip = [&]() -> Result<Frame> {
    Status sent = send_all(encoded);
    if (!sent.ok()) return sent;
    return read_matching(wire.request_id, timeout_ms);
  };

  // Retry loop: capped exponential backoff with deterministic jitter (see
  // RetryPolicy). Retryable = the transport died (kUnavailable from a dead
  // socket — safe because the old connection is closed, so the daemon can
  // never answer the original) or the server said kUnavailable /
  // kShuttingDown. Everything else — timeouts, protocol errors, and
  // notably kOverloaded sheds — returns immediately. On exhaustion the
  // LAST error is returned, not the first: the freshest failure is the one
  // that describes the endpoint's current state.
  const RetryPolicy& retry = options_.retry;
  const int max_attempts = std::max(retry.max_attempts, 1);
  const ClientClock::time_point overall_start = ClientClock::now();
  std::uint64_t jitter_state =
      retry.seed ^ (wire.request_id * 0x9E3779B97F4A7C15ull);
  double backoff_ms = std::max(retry.initial_backoff_ms, 0.0);
  Status last_error = Status::Ok();

  for (int attempt = 1;; ++attempt) {
    Status conn_status =
        fd_ >= 0 ? Status::Ok() : reconnect();
    if (!conn_status.ok()) {
      last_error = conn_status;
    } else {
      ++attempts_;
      Result<Frame> frame = round_trip();
      if (!frame.ok()) {
        if (frame.status().code() != StatusCode::kUnavailable) {
          return frame.status();  // timeout/protocol: never retried
        }
        last_error = frame.status();
      } else if (frame->header.type == MessageType::kError) {
        Result<WireErrorMessage> error = decode_error(*frame);
        if (!error.ok()) {
          close();
          return Status(StatusCode::kInternal, "undecodable error frame: " +
                                                   error.status().message());
        }
        if (error->code == WireError::kUnavailable ||
            error->code == WireError::kShuttingDown) {
          last_error = error->to_status();  // conn stays open; just back off
        } else {
          return error->to_status();
        }
      } else if (frame->header.type != MessageType::kSolveResponse) {
        close();
        return Status(StatusCode::kInternal,
                      std::string("unexpected frame type ") +
                          message_type_name(frame->header.type));
      } else {
        Result<WireResponse> wire_response = decode_solve_response(*frame);
        if (!wire_response.ok()) {
          close();
          return Status(StatusCode::kInternal,
                        "undecodable response frame: " +
                            wire_response.status().message());
        }
        RemoteResponse out;
        out.period = wire_response->period;
        out.winner = static_cast<StrategyId>(wire_response->winner);
        out.from_cache = wire_response->from_cache != 0;
        out.coalesced = wire_response->coalesced != 0;
        out.brownout = wire_response->brownout != 0;
        out.solve_ms = wire_response->solve_ms;
        out.total_ms = wire_response->total_ms;
        out.queue_ms = wire_response->queue_ms;
        out.certified = static_cast<int>(wire_response->certified);
        out.failed = static_cast<int>(wire_response->failed);
        out.skipped = static_cast<int>(wire_response->skipped);
        out.pruned = static_cast<int>(wire_response->pruned);
        out.proven_lower_bound = wire_response->proven_lower_bound;
        out.outcomes = std::move(wire_response->outcomes);
        return out;
      }
    }

    // Only retryable failures fall through to here; back off and go again.
    if (attempt >= max_attempts) return last_error;
    double elapsed_ms =
        std::chrono::duration<double, std::milli>(ClientClock::now() -
                                                  overall_start)
            .count();
    if (retry.attempt_deadline_ms > 0.0 &&
        elapsed_ms >= retry.attempt_deadline_ms) {
      return last_error;
    }
    double sleep_ms = backoff_ms;
    if (retry.jitter > 0.0 && sleep_ms > 0.0) {
      const double u =
          static_cast<double>(splitmix64(jitter_state) >> 11) * 0x1.0p-53;
      sleep_ms *= 1.0 + retry.jitter * (2.0 * u - 1.0);
    }
    if (retry.attempt_deadline_ms > 0.0) {
      sleep_ms = std::min(sleep_ms, retry.attempt_deadline_ms - elapsed_ms);
    }
    if (sleep_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(sleep_ms));
    }
    backoff_ms = std::min(backoff_ms * std::max(retry.backoff_multiplier, 1.0),
                          retry.max_backoff_ms);
  }
}

Status Client::cancel(std::uint64_t request_id) {
  return send_all(encode_cancel(request_id, options_.tenant));
}

Result<ServerStats> Client::stats() {
  if (fd_ < 0) return Status(StatusCode::kUnavailable, "client not connected");
  const std::uint64_t id = next_request_id_++;
  Status sent = send_all(encode_stats_request(id));
  if (!sent.ok()) return sent;
  const double timeout_ms =
      options_.response_timeout_ms > 0.0 ? options_.response_timeout_ms
                                         : 10'000.0;
  Result<Frame> frame = read_matching(id, timeout_ms);
  if (!frame.ok()) return frame.status();
  if (frame->header.type != MessageType::kStatsResponse) {
    return Status(StatusCode::kInternal,
                  std::string("unexpected frame type ") +
                      message_type_name(frame->header.type));
  }
  return decode_stats_response(*frame);
}

Result<ServerTrace> Client::trace() {
  if (fd_ < 0) return Status(StatusCode::kUnavailable, "client not connected");
  const std::uint64_t id = next_request_id_++;
  Status sent = send_all(encode_trace_request(id));
  if (!sent.ok()) return sent;
  const double timeout_ms =
      options_.response_timeout_ms > 0.0 ? options_.response_timeout_ms
                                         : 10'000.0;
  Result<Frame> frame = read_matching(id, timeout_ms);
  if (!frame.ok()) return frame.status();
  if (frame->header.type != MessageType::kTraceResponse) {
    return Status(StatusCode::kInternal,
                  std::string("unexpected frame type ") +
                      message_type_name(frame->header.type));
  }
  return decode_trace_response(*frame);
}

}  // namespace pmcast::net

#pragma once
/// \file protocol.hpp
/// The pmcast binary wire protocol: compact length-prefixed frames carrying
/// solve requests, responses, errors, cancellations and server statistics
/// between a thin remote client and the resident daemon (src/net/server.hpp).
///
/// Frame layout (all integers little-endian):
///
///   offset  size  field
///   0       4     magic       "PMC1" (0x50 0x4D 0x43 0x31 on the wire)
///   4       1     version     kProtocolVersion (1)
///   5       1     type        MessageType
///   6       2     flags       bit 0 = kFlagNoDeadline (solve requests)
///   8       4     tenant      admission-control tenant id
///   12      8     request_id  caller-chosen correlation id, echoed back
///   20      4     payload_len bytes following this header (<= kMaxPayload)
///   24      ...   payload     message-type specific
///
/// Decoding is strictly bounds-checked and never trusts peer lengths: every
/// count is validated against the bytes actually present *before* any
/// allocation sized by it, and every hard cap (kMaxPayload, kMaxNodes,
/// kMaxEdges, ...) is enforced on both ends. A malformed frame is a
/// protocol error — with a corrupted length prefix there is no way to
/// resynchronise a byte stream, so the peer closes the connection.
///
/// The platform payload reuses the canonical instance encoding of
/// src/graph/hash.*: edges are serialised as the sorted multiset of
/// (from, to, cost-bits) triples and targets as the sorted duplicate-free
/// set. Two requests for the same instance therefore serialise to identical
/// bytes regardless of construction order, and encode→decode→encode is
/// byte-stable. Node names are not transmitted (they never influence a
/// solver, and hash_instance ignores them).
///
/// Deadlines travel as *relative* milliseconds (anchored by the server when
/// the request enters its Service): 0 inherits the server's default
/// deadline, and "no deadline at all" is the kFlagNoDeadline header bit —
/// never a negative or sentinel float on the wire, so the in-memory
/// SolveRequest::kNoDeadline sentinel value cannot leak into (or be forged
/// from) a frame. A negative or non-finite wire deadline is malformed.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/faultpoint.hpp"
#include "pmcast/problem.hpp"
#include "pmcast/request.hpp"
#include "pmcast/response.hpp"
#include "pmcast/service.hpp"
#include "pmcast/status.hpp"

namespace pmcast::net {

inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderBytes = 24;
/// Hard cap on a frame payload. Generous for any plausible platform (a
/// 16 MiB payload holds ~800k edges) while bounding what one peer can make
/// the other buffer.
inline constexpr std::uint32_t kMaxPayload = 16u << 20;
inline constexpr std::uint32_t kMaxNodes = 1u << 20;
inline constexpr std::uint32_t kMaxEdges = 4u << 20;
inline constexpr std::uint32_t kMaxOutcomes = 64;
inline constexpr std::uint32_t kMaxErrorMessage = 16u << 10;

/// Header flag bits.
inline constexpr std::uint16_t kFlagNoDeadline = 1u << 0;

enum class MessageType : std::uint8_t {
  kSolveRequest = 1,   ///< client -> server: solve one instance
  kSolveResponse = 2,  ///< server -> client: certified answer
  kError = 3,          ///< server -> client: request failed / was shed
  kCancel = 4,         ///< client -> server: cancel an in-flight request_id
  kStatsRequest = 5,   ///< client -> server: snapshot request (empty payload)
  kStatsResponse = 6,  ///< server -> client: ServerStats
  kTraceRequest = 7,   ///< client -> server: profiling snapshot (empty payload)
  kTraceResponse = 8,  ///< server -> client: ServerTrace
};

inline const char* message_type_name(MessageType t) {
  switch (t) {
    case MessageType::kSolveRequest: return "solve_request";
    case MessageType::kSolveResponse: return "solve_response";
    case MessageType::kError: return "error";
    case MessageType::kCancel: return "cancel";
    case MessageType::kStatsRequest: return "stats_request";
    case MessageType::kStatsResponse: return "stats_response";
    case MessageType::kTraceRequest: return "trace_request";
    case MessageType::kTraceResponse: return "trace_response";
  }
  return "?";
}

/// Wire error codes. Mostly mirrors StatusCode, plus serving-specific
/// conditions: kOverloaded (admission control shed the request before any
/// solver budget was spent) and kShuttingDown (the daemon is draining).
enum class WireError : std::uint16_t {
  kInvalidArgument = 1,
  kFailedPrecondition = 2,
  kNotFound = 3,
  kDeadlineExceeded = 4,
  kCancelled = 5,
  kResourceExhausted = 6,
  kUnavailable = 7,
  kInternal = 8,
  kOverloaded = 9,     ///< shed by admission control (quota / queue delay)
  kShuttingDown = 10,  ///< daemon draining; retry against another instance
  kProtocol = 11,      ///< peer sent a malformed frame
};

const char* wire_error_name(WireError code);
/// Map a wire error onto the client-visible Status model. kOverloaded and
/// kShuttingDown both map to kUnavailable (retryable), keeping the wire
/// distinction in the message text.
StatusCode wire_error_status(WireError code);
/// Map a Status onto the closest wire error (server side).
WireError wire_error_from_status(StatusCode code);

struct FrameHeader {
  std::uint8_t version = kProtocolVersion;
  MessageType type = MessageType::kSolveRequest;
  std::uint16_t flags = 0;
  std::uint32_t tenant = 0;
  std::uint64_t request_id = 0;
  std::uint32_t payload_len = 0;
};

/// One complete frame peeled off a byte stream.
struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

enum class FrameStatus {
  kOk,        ///< one frame extracted; *consumed bytes were used
  kNeedMore,  ///< buffer holds a valid prefix of a frame; read more bytes
  kMalformed, ///< bad magic/version/type/length — close the connection
};

/// Try to peel one frame off the front of \p buffer. On kOk, \p frame and
/// \p consumed are set; on kMalformed, \p error describes the problem.
/// Never consumes bytes except on kOk.
FrameStatus extract_frame(std::span<const std::uint8_t> buffer, Frame* frame,
                          std::size_t* consumed, std::string* error);

// ---------------------------------------------------------------- request --

/// A solve request as it travels on the wire. Everything a remote caller
/// may set on a SolveRequest except the process-local cancellation token
/// (remote cancellation is the kCancel message).
struct WireRequest {
  std::uint32_t tenant = 0;
  std::uint64_t request_id = 0;
  /// Explicit opt-out of any deadline (kFlagNoDeadline on the wire).
  bool no_deadline = false;
  /// Relative deadline in ms; 0 inherits the server default. Must be
  /// finite and >= 0 (the no-deadline case is the flag, not a sentinel).
  double deadline_ms = 0.0;
  int priority = 0;
  /// Bit i allows StrategyId(i); 0 = the server's full portfolio.
  std::uint32_t strategy_mask = 0;
  int exact_max_nodes = -1;        ///< < 0 inherits the server default
  std::uint64_t exact_max_trees = 0;  ///< 0 inherits the server default
  /// PruningPolicy as u8; kInheritPruning = server default.
  static constexpr std::uint8_t kInheritPruning = 0xFF;
  std::uint8_t pruning = kInheritPruning;
  double known_lower_bound = 0.0;
  Problem problem;

  /// Build the in-process SolveRequest (deadline sentinel restored,
  /// strategy mask expanded). The cancellation token is left default —
  /// the server wires its own per-request token.
  SolveRequest to_solve_request() const;
};

std::vector<std::uint8_t> encode_solve_request(const WireRequest& request);
Result<WireRequest> decode_solve_request(const Frame& frame);

// --------------------------------------------------------------- response --

struct WireOutcome {
  std::uint8_t strategy = 0;
  std::uint8_t state = 0;
  double period = 0.0;
  double elapsed_ms = 0.0;
};

struct WireResponse {
  std::uint64_t request_id = 0;
  double period = 0.0;
  std::uint8_t winner = 0;
  std::uint8_t from_cache = 0;
  std::uint8_t coalesced = 0;
  /// 1 when admission degraded this request to the cheap-arm allowlist
  /// (brownout): the answer is heuristic-only, no exact/CG arm ran.
  std::uint8_t brownout = 0;
  double solve_ms = 0.0;
  double total_ms = 0.0;
  /// Server-side delay between frame decode and Service submission (the
  /// admission/event-loop overhead a remote caller cannot observe).
  double queue_ms = 0.0;
  std::uint32_t certified = 0;
  std::uint32_t failed = 0;
  std::uint32_t skipped = 0;
  std::uint32_t pruned = 0;
  double proven_lower_bound = 0.0;
  std::vector<WireOutcome> outcomes;
};

/// Flatten a certified SolveResponse for the wire. \p brownout marks a
/// response produced under the degraded heuristic-only allowlist.
WireResponse make_wire_response(std::uint64_t request_id,
                                const SolveResponse& response,
                                double queue_ms, bool brownout = false);

std::vector<std::uint8_t> encode_solve_response(const WireResponse& response,
                                                std::uint32_t tenant = 0);
Result<WireResponse> decode_solve_response(const Frame& frame);

// ------------------------------------------------------------------ error --

struct WireErrorMessage {
  std::uint64_t request_id = 0;
  WireError code = WireError::kInternal;
  std::string message;

  /// The client-visible Status for this wire error.
  Status to_status() const {
    return Status(wire_error_status(code),
                  std::string(wire_error_name(code)) + ": " + message);
  }
};

std::vector<std::uint8_t> encode_error(std::uint64_t request_id,
                                       std::uint32_t tenant, WireError code,
                                       std::string_view message);
Result<WireErrorMessage> decode_error(const Frame& frame);

// ----------------------------------------------------------- cancel/stats --

/// Cancel has an empty payload: the request_id to cancel rides the header.
std::vector<std::uint8_t> encode_cancel(std::uint64_t request_id,
                                        std::uint32_t tenant);
std::vector<std::uint8_t> encode_stats_request(std::uint64_t request_id = 0);

/// The daemon's counter snapshot: what Server::stats() returns and what a
/// kStatsRequest is answered with. The declaration order is the wire order.
struct ServerStats {
  double uptime_ms = 0.0;
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_open = 0;
  std::uint64_t requests_admitted = 0;
  std::uint64_t brownout_admitted = 0;  ///< admitted under the cheap allowlist
  std::uint64_t responses_sent = 0;
  std::uint64_t errors_sent = 0;
  std::uint64_t shed_qps = 0;        ///< token bucket empty
  std::uint64_t shed_in_flight = 0;  ///< per-tenant in-flight cap
  std::uint64_t shed_deadline = 0;   ///< est. queue delay > request deadline
  std::uint64_t shed_shutdown = 0;   ///< rejected while draining
  std::uint64_t protocol_errors = 0;
  std::uint64_t closed_idle_timeout = 0;  ///< idle past ServerOptions bound
  std::uint64_t closed_read_timeout = 0;  ///< partial frame stalled too long
  std::uint64_t closed_backpressure = 0;  ///< output queue exceeded its cap
  std::uint64_t faults_injected = 0;      ///< fired fault-plan decisions
  std::uint64_t in_flight = 0;
  std::uint32_t worker_threads = 0;
  std::uint32_t cache_shards = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_entries = 0;
  double ewma_solve_ms = 0.0;  ///< admission's solve-time estimate

  std::uint64_t total_shed() const {
    return shed_qps + shed_in_flight + shed_deadline + shed_shutdown;
  }
  double cache_hit_rate() const {
    const std::uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }
};

/// Stats payload: every ServerStats field in declaration order, at its own
/// width (f64, u64 or u32): 176 bytes.
std::vector<std::uint8_t> encode_stats_response(const ServerStats& stats,
                                                std::uint64_t request_id = 0);
Result<ServerStats> decode_stats_response(const Frame& frame);

// ------------------------------------------------------------------- trace --

/// Trace request has an empty payload, like stats.
std::vector<std::uint8_t> encode_trace_request(std::uint64_t request_id = 0);

/// Hard cap on the shard-heat rows of a trace frame.
inline constexpr std::uint32_t kMaxTraceShards = 1u << 10;

/// The daemon's cumulative profiling view as served to a kTraceRequest:
/// the Service-wide aggregate trace (counters only — timelines stay on
/// individual responses) plus the result cache's per-shard heat.
struct ServerTrace {
  SolveTrace trace;
  std::vector<CacheMetrics::ShardHeat> shard_heat;
};

/// Trace payload: detail (u8); sub_scatter, early_win, probe_poll and
/// reconstruct_skip, each as evaluated (u64), hits (u64), closest_miss
/// (f64); a u32 bucket count and that many u64 buckets; checkpoint polls
/// (u64), total and max gap (f64); a u32 shard count and, per shard,
/// hits, misses, evictions and entries (u64). The bucket count is 0 for
/// an Off trace and kCheckpointBuckets for every other detail; the
/// decoder rejects any other count, and any detail above Timeline.
/// The timeline is never sent.
std::vector<std::uint8_t> encode_trace_response(const ServerTrace& trace,
                                                std::uint64_t request_id = 0);
Result<ServerTrace> decode_trace_response(const Frame& frame);

// ------------------------------------------------- canonical problem body --
// Exposed for the round-trip property tests; the request codec uses them.

/// Append the canonical instance encoding of \p problem to \p out.
void encode_problem(const Problem& problem, std::vector<std::uint8_t>* out);

/// Decode and *validate* a problem (ids in range, source not a target, no
/// duplicate targets) from \p bytes starting at \p *pos; advances \p *pos.
Result<Problem> decode_problem(std::span<const std::uint8_t> bytes,
                               std::size_t* pos);

/// Expand a strategy bitmask into the allowlist vector (empty = all).
std::vector<StrategyId> strategies_from_mask(std::uint32_t mask);
std::uint32_t mask_from_strategies(std::span<const StrategyId> strategies);

// --------------------------------------------------------- fault injection --

/// Poll \p plan at \p point and apply any frame-level fault to \p bytes in
/// place: kTruncate drops the last `magnitude` bytes of the encoded frame
/// (at most the whole frame), which is indistinguishable on the wire from a
/// peer dying mid-send. Connection-level actions (kReset, kDelay, short
/// writes) are returned untouched for the I/O site to act on. A null plan
/// is a no-op returning an empty decision.
FaultDecision apply_frame_fault(FaultPlan* plan, FaultPoint point,
                                std::vector<std::uint8_t>* bytes);

}  // namespace pmcast::net

#pragma once
/// \file pmcast/response.hpp
/// SolveResponse — what the Service returns for a certified request: the
/// best certified period, the winning strategy, a certificate summary,
/// per-strategy outcomes, cache/coalescing provenance and timing.
///
/// A SolveResponse only exists for requests that produced a certified
/// answer; failures travel as Status (see pmcast/status.hpp), so a
/// response's period is always backed by a validated schedule/certificate.
///
/// This header is self-contained apart from pmcast/strategy.hpp.

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "pmcast/strategy.hpp"

namespace pmcast {

enum class OutcomeState {
  Certified,  ///< period realised as a schedule and validated
  Failed,     ///< strategy did not produce a certifiable result
  Skipped,    ///< budget/deadline/cancellation or inapplicable
  Pruned,     ///< cooperatively cut: provably could not beat the winner
              ///< (dominated by the incumbent, or the incumbent already
              ///< met the proven lower bound). Never a failure — and never
              ///< reported for the winning strategy.
};

inline const char* outcome_state_name(OutcomeState state) {
  switch (state) {
    case OutcomeState::Certified: return "certified";
    case OutcomeState::Failed: return "failed";
    case OutcomeState::Skipped: return "skipped";
    case OutcomeState::Pruned: return "pruned";
  }
  return "?";
}

/// Why a strategy did not certify: structured so callers classify outcomes
/// (deadline vs cancellation vs pruning) without matching detail strings.
/// NotSkipped for Certified and Failed outcomes; Dominated or EarlyWin for
/// every Pruned one. In-process only: the wire does not carry it.
enum class SkipReason {
  NotSkipped = 0,
  Inapplicable,      ///< strategy doesn't apply (instance above exact size)
  EnumerationLimit,  ///< exact solver hit its tree-enumeration cap
  DeadlineExpired,   ///< wall-clock deadline hit, possibly mid-LP-solve
  Cancelled,         ///< cancellation token fired
  Dominated,         ///< provably cannot beat the incumbent (pruned)
  EarlyWin,          ///< incumbent already meets the proven lower bound
};

/// Counters for a strategy's LP solve sequence. The LP refinement
/// strategies (augmented_sources, reduced_broadcast, augmented_multicast)
/// re-solve one mutated program per probe, warm-starting from the previous
/// basis where possible; these counters expose how well that worked.
/// multicast_ub and exact report their single LP solve; all-zero for the
/// tree heuristics, which solve none.
struct LpStats {
  int solves = 0;          ///< LP solves run by the strategy
  int warm_starts = 0;     ///< solves warm-started from a previous basis
  int eta_reuses = 0;      ///< warm starts that also kept the factorisation
  int cold_fallbacks = 0;  ///< warm attempts re-run cold after a failure
  long long iterations = 0;///< total simplex iterations

  // Column-generation counters, populated only when the exact strategy
  // runs its restricted-master pricing loop (instances above
  // exact_max_nodes but within colgen_max_nodes); all-zero otherwise.
  int columns_priced = 0;     ///< tree columns appended by the oracle
  int master_iterations = 0;  ///< restricted-master re-solves in the loop
  double pricing_ms = 0.0;    ///< wall-clock spent in the pricing oracle

  double warm_hit_rate() const {
    return solves > 0 ? static_cast<double>(warm_starts) / solves : 0.0;
  }
};

/// Per-strategy cooperative-pruning counters (see PruningPolicy).
struct PruneCounters {
  int probes_skipped = 0;  ///< heuristic probes not run after a cut
};

/// One strategy's result inside the portfolio race.
struct StrategyOutcome {
  StrategyId strategy = StrategyId::Mcph;
  OutcomeState state = OutcomeState::Skipped;
  SkipReason skip_reason = SkipReason::NotSkipped;
  /// Certified period (infinity unless state == Certified).
  double period = std::numeric_limits<double>::infinity();
  /// The strategy's own claimed/advisory value (e.g. Broadcast-EB bound).
  double bound_period = std::numeric_limits<double>::infinity();
  double elapsed_ms = 0.0;
  LpStats lp;          ///< LP sequence counters (see LpStats)
  PruneCounters prune; ///< cooperative-pruning counters
  std::string detail;  ///< failure reason / certification note
};

/// How the winning period was proven.
struct CertificateSummary {
  int certified = 0;  ///< strategies whose answer passed the proof pipeline
  int failed = 0;
  int skipped = 0;    ///< budget/deadline/cancellation or inapplicable
  int pruned = 0;     ///< cooperatively cut (not counted under skipped)
  std::string winner_detail;  ///< certification note of the winner, if any
};

/// Request-level cooperative-pruning summary.
struct PruningSummary {
  int strategies_pruned = 0;   ///< strategies cut as dominated
  int early_win_cancels = 0;   ///< strategies cut by the early-win signal
  int probes_skipped = 0;      ///< heuristic probes not run
  /// Simplex iterations spent proving the Multicast-LB lower bound (the
  /// one extra LP a pruning race pays; 0 when pruning is off).
  long long lb_probe_iterations = 0;
  /// Best proven lower bound on the achievable period (0 = none). The
  /// certified period is >= this value up to floating-point dust in the
  /// LP objective evaluation (a certified period *equal* to the bound is
  /// the early-win signal that stops the race).
  double proven_lower_bound = 0.0;
};

/// Tracing/profiling detail level (ServiceOptions::trace).
enum class TraceDetail {
  Off = 0,       ///< record nothing: no clocks, no atomics, no allocations
  Counters = 1,  ///< cut-predicate accounting + LP checkpoint latency
  Timeline = 2,  ///< Counters plus per-strategy event timelines
};

inline const char* trace_detail_name(TraceDetail detail) {
  switch (detail) {
    case TraceDetail::Off: return "off";
    case TraceDetail::Counters: return "counters";
    case TraceDetail::Timeline: return "timeline";
  }
  return "?";
}

/// Timeline event kinds (SolveTrace::timeline, Timeline detail only).
enum class TraceEventKind {
  Launch = 0,             ///< strategy task started executing
  FirstLpCheckpoint = 1,  ///< first in-LP budget checkpoint of the strategy
  Certified = 2,          ///< strategy certified a period (event value)
  Pruned = 3,             ///< strategy cooperatively cut
  Skipped = 4,            ///< strategy never ran usefully (budget, filter)
  Failed = 5,             ///< strategy finished without a certificate
};

inline const char* trace_event_name(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::Launch: return "launch";
    case TraceEventKind::FirstLpCheckpoint: return "first_lp_checkpoint";
    case TraceEventKind::Certified: return "certified";
    case TraceEventKind::Pruned: return "pruned";
    case TraceEventKind::Skipped: return "skipped";
    case TraceEventKind::Failed: return "failed";
  }
  return "?";
}

/// Accounting for one cut predicate of the cooperative-pruning race.
struct CutPredicateTrace {
  std::uint64_t evaluated = 0;  ///< times the predicate was checked
  std::uint64_t hits = 0;       ///< times it fired (work was cut)
  /// Smallest finite margin by which the predicate missed — "how close it
  /// came to firing", in period units. Infinity when every evaluation hit
  /// or no finite margin was observed. This is the field that diagnoses a
  /// dead cut: a counter stuck at 0 hits with misses clustering at some
  /// tiny epsilon means the predicate is off by exactly that epsilon.
  double closest_miss = std::numeric_limits<double>::infinity();

  std::uint64_t misses() const { return evaluated - hits; }
};

/// One entry of the per-strategy event timeline (Timeline detail).
struct TraceTimelineEvent {
  TraceEventKind kind = TraceEventKind::Launch;
  StrategyId strategy = StrategyId::Mcph;
  int slot = 0;               ///< launch index within the race
  std::uint32_t thread = 0;   ///< hashed thread id (stable within a race)
  double t_us = 0.0;          ///< microseconds since the race started
  /// Kind-specific payload: certified period for Certified, advisory bound
  /// for Pruned/Skipped/Failed when one exists, else 0.
  double value = 0.0;
};

/// Buckets of SolveTrace::checkpoint_hist: bucket 0 counts gaps below 1us,
/// bucket i (i >= 1) counts gaps in [2^(i-1), 2^i) us, and the last bucket
/// absorbs everything from 2^(kCheckpointBuckets-2) us (~16ms) up.
inline constexpr int kCheckpointBuckets = 16;

/// What the tracing/profiling layer recorded for this solve (see
/// ServiceOptions::trace; detail == Off means every counter is zero and
/// the timeline empty). The runtime's tracer records straight into this
/// type, and only the timeline allocates, so a Counters-level trace is
/// heap-free to produce and to copy.
/// Cache hits return the trace of the originating solve — check
/// Provenance::from_cache before attributing its cost to this request.
struct SolveTrace {
  TraceDetail detail = TraceDetail::Off;

  // Cut-predicate accounting (Counters and above).
  CutPredicateTrace sub_scatter;      ///< start-of-strategy scatter dominance
  CutPredicateTrace early_win;        ///< incumbent met the proven LB
  CutPredicateTrace probe_poll;       ///< between-probe LB-convergence
                                      ///< polls of the LP heuristics
  CutPredicateTrace reconstruct_skip; ///< multicast_ub reconstruction skip

  /// LP checkpoint latency histogram (see kCheckpointBuckets): the gaps
  /// between two consecutive budget checkpoints of one LP solve. All zero
  /// when detail == Off.
  std::array<std::uint64_t, kCheckpointBuckets> checkpoint_hist{};
  std::uint64_t checkpoint_polls = 0;
  double checkpoint_total_us = 0.0;
  double checkpoint_max_us = 0.0;

  /// Per-strategy event timeline, sorted by timestamp (Timeline detail).
  std::vector<TraceTimelineEvent> timeline;

  double checkpoint_mean_us() const {
    return checkpoint_polls == 0
               ? 0.0
               : checkpoint_total_us / static_cast<double>(checkpoint_polls);
  }
};

/// Where the answer came from.
struct Provenance {
  bool from_cache = false;  ///< served from the service's LRU result cache
  bool coalesced = false;   ///< duplicate within a batch, copied from the
                            ///< leader request's result
};

struct Timing {
  double solve_ms = 0.0;  ///< portfolio wall time (0 for pure cache hits)
  double total_ms = 0.0;  ///< submit-to-delivery, includes queueing
};

struct SolveResponse {
  /// Best certified steady-state period (time per multicast).
  double period = std::numeric_limits<double>::infinity();
  StrategyId winner = StrategyId::Mcph;
  std::vector<StrategyOutcome> outcomes;  ///< indexed by launch order
  CertificateSummary certificate;
  PruningSummary pruning;
  SolveTrace trace;
  Provenance provenance;
  Timing timing;

  double throughput() const { return period > 0.0 ? 1.0 / period : 0.0; }
};

}  // namespace pmcast

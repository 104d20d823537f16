#pragma once
/// \file trace.hpp
/// Lightweight always-on tracing/profiling for the portfolio runtime.
///
/// The tracer answers the questions the bench counters cannot: which cut
/// predicates actually fire, *how close* each miss was, how long the LP
/// solvers go between budget checkpoints, and when each strategy launched,
/// saw its first LP checkpoint, and reached a terminal state. PR 5 shipped
/// pruning counters that read zero across the whole bench corpus
/// (early_win_cancels, probes_skipped); this layer exists so that kind of
/// dead code is a five-minute diagnosis instead of an archaeology dig.
///
/// Three detail levels (TraceDetail):
///
///   Off       nothing is recorded. Every Tracer method early-returns on a
///             single enum compare: no clock reads, no atomic traffic, and
///             exactly zero heap allocations anywhere in the hot path.
///   Counters  (default) cut-predicate accounting + checkpoint latency
///             histogram. Cost per record is one or two relaxed atomic
///             bumps; checkpoint gaps add one steady_clock read per
///             checkpoint (every 32 simplex iterations).
///   Timeline  Counters plus per-strategy event timelines with monotonic
///             timestamps and (hashed) thread ids. The only level that
///             allocates: one fixed-size event buffer per strategy slot,
///             sized at construction.
///
/// Thread-safety contract: predicate() and checkpoint_gap() may be called
/// from any number of threads concurrently. event() is single-writer *per
/// slot* — each strategy slot is owned by the one pool task running that
/// strategy.
/// summary() may race with writers (it is acquire-correct), though the
/// runtime only calls it after the race has joined.
///
/// The tracer records straight into the public types of
/// pmcast/response.hpp: summary() returns a SolveTrace, and the per-slot
/// buffers hold TraceTimelineEvents.

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "pmcast/response.hpp"

namespace pmcast::runtime {

/// The cut predicates the runtime evaluates while racing a portfolio. Each
/// indexes one of the tracer's counter cells and lands in the
/// CutPredicateTrace field of SolveTrace with the same name.
enum class CutPredicate : std::uint8_t {
  /// Start-of-strategy sub-scatter dominance: the incumbent already beats
  /// the published scatter upper bound by more than the dominance margin.
  SubScatter = 0,
  /// Start-of-strategy early win: a strategy launched earlier certified a
  /// period that meets the proven lower bound, so later launches are moot.
  EarlyWin = 1,
  /// Between-probe polls inside the LP heuristics: the LB-convergence cut
  /// that skips provably futile probes.
  ProbePoll = 2,
  /// MulticastUb mid-strategy check: skip schedule reconstruction when the
  /// bound it just computed is already dominated.
  ReconstructSkip = 3,
};

inline constexpr int kCutPredicateCount = 4;

/// Fold \p from's counters into \p into: predicate counts and histogram
/// buckets add, closest_miss takes the min, the max gap takes the max and
/// detail the higher of the two. Timelines are not merged (timestamps from
/// different races share no origin).
void merge_counters(SolveTrace& into, const SolveTrace& from);

/// The recorder. One Tracer lives for the duration of one portfolio race
/// (or, in the engine, one coalesced group). All recording methods are
/// no-ops at TraceDetail::Off.
class Tracer {
 public:
  /// Per-slot event capacity: Launch + FirstLpCheckpoint + terminal, with
  /// one spare. Overflow silently drops (never blocks, never allocates).
  static constexpr int kMaxEventsPerSlot = 4;

  Tracer() = default;  ///< disabled tracer (TraceDetail::Off)
  Tracer(TraceDetail detail, std::size_t slots);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  TraceDetail detail() const { return detail_; }
  bool enabled() const { return detail_ != TraceDetail::Off; }
  bool timeline_enabled() const { return detail_ == TraceDetail::Timeline; }

  /// Record one evaluation of \p predicate. On a miss, \p miss_margin says
  /// how far the predicate was from firing (same units as the quantity it
  /// compares); non-finite or negative margins are accepted and ignored,
  /// so call sites can pass "infinity" when no bound existed yet.
  void predicate(CutPredicate predicate, bool hit, double miss_margin);

  /// Record the gap between two consecutive LP budget checkpoints of one
  /// solve.
  void checkpoint_gap(double gap_us);

  /// Append a timeline event for \p slot (single writer per slot).
  void event(TraceEventKind kind, int slot, StrategyId strategy,
             double value);

  /// Microseconds since this tracer was constructed (0 when disabled).
  double now_us() const;

  /// Everything recorded so far. Below Timeline detail the snapshot is
  /// heap-free; Timeline adds the sorted event list.
  SolveTrace summary() const;

 private:
  struct PredicateCell {
    std::atomic<std::uint64_t> evaluated{0};
    std::atomic<std::uint64_t> hits{0};
    /// Bit pattern of the closest finite miss. Nonnegative doubles order
    /// the same as their bit patterns, so min() is an integer CAS loop.
    std::atomic<std::uint64_t> closest_miss_bits{
        std::bit_cast<std::uint64_t>(
            std::numeric_limits<double>::infinity())};
  };

  struct SlotEvents {
    std::array<TraceTimelineEvent, kMaxEventsPerSlot> events{};
    std::atomic<std::uint32_t> count{0};
  };

  TraceDetail detail_ = TraceDetail::Off;
  std::chrono::steady_clock::time_point origin_{};
  std::array<PredicateCell, kCutPredicateCount> predicates_{};
  std::array<std::atomic<std::uint64_t>, kCheckpointBuckets> hist_{};
  std::atomic<std::uint64_t> polls_{0};
  std::atomic<std::uint64_t> total_gap_ns_{0};
  std::atomic<std::uint64_t> max_gap_bits_{0};
  /// Timeline detail only; empty (no heap) otherwise.
  std::vector<SlotEvents> slots_;
};

}  // namespace pmcast::runtime

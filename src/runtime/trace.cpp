#include "runtime/trace.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <thread>

namespace pmcast::runtime {

namespace {

std::uint32_t hashed_thread_id() {
  const std::size_t h =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

/// Map a checkpoint gap in microseconds onto its histogram bucket.
int gap_bucket(double gap_us) {
  if (!(gap_us >= 1.0)) return 0;  // also catches NaN / negatives
  const int exponent = std::ilogb(gap_us);  // floor(log2), gap_us >= 1
  return std::min(exponent + 1, kCheckpointBuckets - 1);
}

/// SolveTrace's field for each CutPredicate, in enum order.
constexpr std::array<CutPredicateTrace SolveTrace::*, kCutPredicateCount>
    kPredicateFields = {&SolveTrace::sub_scatter, &SolveTrace::early_win,
                        &SolveTrace::probe_poll, &SolveTrace::reconstruct_skip};

}  // namespace

void merge_counters(SolveTrace& into, const SolveTrace& from) {
  into.detail = std::max(into.detail, from.detail);
  for (CutPredicateTrace SolveTrace::*field : kPredicateFields) {
    CutPredicateTrace& a = into.*field;
    const CutPredicateTrace& b = from.*field;
    a.evaluated += b.evaluated;
    a.hits += b.hits;
    a.closest_miss = std::min(a.closest_miss, b.closest_miss);
  }
  for (int b = 0; b < kCheckpointBuckets; ++b) {
    into.checkpoint_hist[b] += from.checkpoint_hist[b];
  }
  into.checkpoint_polls += from.checkpoint_polls;
  into.checkpoint_total_us += from.checkpoint_total_us;
  into.checkpoint_max_us = std::max(into.checkpoint_max_us,
                                    from.checkpoint_max_us);
}

Tracer::Tracer(TraceDetail detail, std::size_t slots) : detail_(detail) {
  if (detail_ == TraceDetail::Off) return;
  origin_ = std::chrono::steady_clock::now();
  if (detail_ == TraceDetail::Timeline) {
    slots_ = std::vector<SlotEvents>(slots);
  }
}

double Tracer::now_us() const {
  if (detail_ == TraceDetail::Off) return 0.0;
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void Tracer::predicate(CutPredicate predicate, bool hit, double miss_margin) {
  if (detail_ == TraceDetail::Off) return;
  PredicateCell& cell = predicates_[static_cast<std::size_t>(predicate)];
  cell.evaluated.fetch_add(1, std::memory_order_relaxed);
  if (hit) {
    cell.hits.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!std::isfinite(miss_margin) || miss_margin < 0.0) return;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(miss_margin);
  std::uint64_t current = cell.closest_miss_bits.load(std::memory_order_relaxed);
  while (bits < current &&
         !cell.closest_miss_bits.compare_exchange_weak(
             current, bits, std::memory_order_relaxed)) {
  }
}

void Tracer::checkpoint_gap(double gap_us) {
  if (detail_ == TraceDetail::Off) return;
  if (!std::isfinite(gap_us) || gap_us < 0.0) return;
  polls_.fetch_add(1, std::memory_order_relaxed);
  total_gap_ns_.fetch_add(static_cast<std::uint64_t>(gap_us * 1e3),
                          std::memory_order_relaxed);
  hist_[gap_bucket(gap_us)].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(gap_us);
  std::uint64_t current = max_gap_bits_.load(std::memory_order_relaxed);
  while (bits > current &&
         !max_gap_bits_.compare_exchange_weak(current, bits,
                                              std::memory_order_relaxed)) {
  }
}

void Tracer::event(TraceEventKind kind, int slot, StrategyId strategy,
                   double value) {
  if (detail_ != TraceDetail::Timeline) return;
  if (slot < 0 || static_cast<std::size_t>(slot) >= slots_.size()) return;
  SlotEvents& cell = slots_[static_cast<std::size_t>(slot)];
  const std::uint32_t count = cell.count.load(std::memory_order_relaxed);
  if (count >= kMaxEventsPerSlot) return;  // drop, never block
  TraceTimelineEvent& event = cell.events[count];
  event.kind = kind;
  event.strategy = strategy;
  event.slot = slot;
  event.thread = hashed_thread_id();
  event.t_us = now_us();
  event.value = value;
  // Publish after the payload is fully written (summary() acquires).
  cell.count.store(count + 1, std::memory_order_release);
}

SolveTrace Tracer::summary() const {
  SolveTrace out;
  out.detail = detail_;
  if (detail_ == TraceDetail::Off) return out;
  for (int p = 0; p < kCutPredicateCount; ++p) {
    const PredicateCell& cell = predicates_[p];
    CutPredicateTrace& trace = out.*kPredicateFields[p];
    trace.evaluated = cell.evaluated.load(std::memory_order_relaxed);
    trace.hits = cell.hits.load(std::memory_order_relaxed);
    trace.closest_miss = std::bit_cast<double>(
        cell.closest_miss_bits.load(std::memory_order_relaxed));
  }
  for (int b = 0; b < kCheckpointBuckets; ++b) {
    out.checkpoint_hist[b] = hist_[b].load(std::memory_order_relaxed);
  }
  out.checkpoint_polls = polls_.load(std::memory_order_relaxed);
  out.checkpoint_total_us =
      static_cast<double>(total_gap_ns_.load(std::memory_order_relaxed)) / 1e3;
  out.checkpoint_max_us = std::bit_cast<double>(
      max_gap_bits_.load(std::memory_order_relaxed));
  if (out.checkpoint_polls == 0) out.checkpoint_max_us = 0.0;
  if (detail_ == TraceDetail::Timeline) {
    for (const SlotEvents& cell : slots_) {
      const std::uint32_t count = cell.count.load(std::memory_order_acquire);
      for (std::uint32_t i = 0; i < count; ++i) {
        out.timeline.push_back(cell.events[i]);
      }
    }
    std::stable_sort(out.timeline.begin(), out.timeline.end(),
                     [](const TraceTimelineEvent& a,
                        const TraceTimelineEvent& b) { return a.t_us < b.t_us; });
  }
  return out;
}

}  // namespace pmcast::runtime

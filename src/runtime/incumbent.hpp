#pragma once
/// \file incumbent.hpp
/// Shared incumbent bounds for one cooperative portfolio race.
///
/// An Incumbent aggregates, across the strategies of one request:
///  * the best *certified* period so far (an upper bound on the answer),
///  * the best *proven* lower bound on any achievable period
///    (Multicast-LB of the instance, or a caller-supplied bound — never a
///    strategy's certified value, which only bounds from above),
///  * the full-platform Multicast-UB LP value ("scatter bound"), published
///    by the MulticastUb strategy: the platform heuristics certify via
///    scatter on a *sub*-platform, which is monotonically no better, so
///    any certified period below the scatter bound dominates them outright,
///  * the lowest launch index that certified *at* the proven lower bound
///    (the early-win signal: nothing later in launch order can strictly
///    beat it, so the race may stop).
///
/// Lock-freedom and determinism: every field is a monotone min/max over
/// published values, maintained with compare-exchange loops on the raw
/// double bits (all published values are positive and finite, where the
/// IEEE-754 bit pattern orders like the double). Monotone aggregation is
/// commutative, so a snapshot taken after a *completion barrier* is a pure
/// function of which strategies ran — independent of thread interleaving.
/// That is the whole determinism argument of PruningPolicy::Deterministic:
/// reads happen only at stage boundaries, behind a barrier.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>

namespace pmcast::runtime {

/// Barrier-fenced copy of an Incumbent (see Incumbent::freeze()).
struct IncumbentSnapshot {
  double best_certified = std::numeric_limits<double>::infinity();
  double proven_lb = 0.0;
  double scatter_ub = std::numeric_limits<double>::infinity();
  int early_win_from = std::numeric_limits<int>::max();
};

class Incumbent {
 public:
  Incumbent() = default;

  /// Publish a certified period from the strategy at \p launch_index.
  /// Also raises the early-win signal when the period meets the proven
  /// lower bound: every later-launched strategy certifies >= the bound, so
  /// it can at best tie — and ties break on the earlier launch index.
  void publish_certified(double period, int launch_index) {
    if (!(period > 0.0) || period == std::numeric_limits<double>::infinity()) {
      return;
    }
    store_min(best_certified_, period);
    if (period <= proven_lb()) {
      int seen = early_win_from_.load(std::memory_order_relaxed);
      while (launch_index < seen &&
             !early_win_from_.compare_exchange_weak(
                 seen, launch_index, std::memory_order_release,
                 std::memory_order_relaxed)) {
      }
    }
  }

  /// Publish a proven lower bound on every achievable period (monotone
  /// max). Only universally valid bounds may go here.
  void publish_lower_bound(double period) {
    if (!(period > 0.0) || period == std::numeric_limits<double>::infinity()) {
      return;
    }
    store_max(proven_lb_, period);
  }

  /// Publish the full-platform Multicast-UB LP value (monotone min).
  void publish_scatter_ub(double value) {
    if (!(value > 0.0) || value == std::numeric_limits<double>::infinity()) {
      return;
    }
    store_min(scatter_ub_, value);
  }

  double best_certified() const { return load_or(best_certified_, kInf); }
  double proven_lb() const { return load_or(proven_lb_, 0.0); }
  double scatter_ub() const { return load_or(scatter_ub_, kInf); }
  int early_win_from() const {
    return early_win_from_.load(std::memory_order_acquire);
  }

  IncumbentSnapshot freeze() const {
    IncumbentSnapshot snap;
    snap.best_certified = best_certified();
    snap.proven_lb = proven_lb();
    snap.scatter_ub = scatter_ub();
    snap.early_win_from = early_win_from();
    return snap;
  }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  // 0 encodes "nothing published" for all three bound cells (no published
  // value is 0: publish guards reject non-positive and infinite inputs).
  static constexpr std::uint64_t kEmpty = 0;

  static std::uint64_t bits_of(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  static double double_of(std::uint64_t bits) {
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  static double load_or(const std::atomic<std::uint64_t>& cell,
                        double if_empty) {
    std::uint64_t bits = cell.load(std::memory_order_acquire);
    return bits == kEmpty ? if_empty : double_of(bits);
  }

  /// CAS-min on positive doubles (their bit patterns order like doubles).
  static void store_min(std::atomic<std::uint64_t>& cell, double value) {
    const std::uint64_t bits = bits_of(value);
    std::uint64_t seen = cell.load(std::memory_order_relaxed);
    while ((seen == kEmpty || bits < seen) &&
           !cell.compare_exchange_weak(seen, bits, std::memory_order_release,
                                       std::memory_order_relaxed)) {
    }
  }
  static void store_max(std::atomic<std::uint64_t>& cell, double value) {
    const std::uint64_t bits = bits_of(value);
    std::uint64_t seen = cell.load(std::memory_order_relaxed);
    while ((seen == kEmpty || bits > seen) &&
           !cell.compare_exchange_weak(seen, bits, std::memory_order_release,
                                       std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::uint64_t> best_certified_{kEmpty};
  std::atomic<std::uint64_t> proven_lb_{kEmpty};
  std::atomic<std::uint64_t> scatter_ub_{kEmpty};
  std::atomic<int> early_win_from_{std::numeric_limits<int>::max()};
};

}  // namespace pmcast::runtime

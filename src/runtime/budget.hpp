#pragma once
/// \file budget.hpp
/// Budget control for portfolio runs: wall-clock deadlines, work limits and
/// cooperative cancellation. A SolveBudget is checked before a strategy
/// starts, between a strategy's LP probes, and — through the simplex
/// checkpoint hook (lp::SolverOptions::checkpoint) — every few dozen
/// iterations *inside* an LP solve, so overruns are bounded by one
/// checkpoint interval. The engine still never kills a thread: every stop
/// is cooperative, at a pivot boundary.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>

namespace pmcast::runtime {

using Clock = std::chrono::steady_clock;

/// Cooperative cancellation flag, shareable across requests and threads.
/// request_stop() is sticky; strategies poll stop_requested() at their
/// checkpoints and bail out early.
class CancellationToken {
 public:
  CancellationToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_stop() const { flag_->store(true, std::memory_order_relaxed); }
  bool stop_requested() const {
    return flag_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Budget for one portfolio run: a wall-clock deadline plus limits on the
/// expensive exact solver. A SolveBudget is always *resolved*: it carries
/// no inherit sentinels (resolve_race, runtime/portfolio.hpp, merges a
/// SolveRequest over ServiceOptions into one). The default-constructed
/// budget holds the ServiceOptions defaults.
struct SolveBudget {
  /// Wall-clock budget in milliseconds; anything but a positive value means
  /// no deadline. Anchored when the request enters the engine (see
  /// deadline_from()).
  double deadline_ms = 0.0;

  /// Instances larger than this skip the exact enumeration strategy.
  int exact_max_nodes = 9;
  /// Tree-enumeration abort limit for the exact strategy.
  std::size_t exact_max_trees = 200'000;

  /// Instances above exact_max_nodes but at most this many nodes route the
  /// exact strategy to the column-generation solver (restricted master +
  /// pricing oracle) instead of skipping. 0 disables column generation —
  /// the default, keeping small-instance results bit-identical to the
  /// enumeration-only portfolio.
  int colgen_max_nodes = 0;

  /// The deadline as a time point, anchored on \p start. A deadline the
  /// clock cannot represent from \p start (past its range, or +inf)
  /// saturates to never expiring rather than overflowing the cast.
  Clock::time_point deadline_from(Clock::time_point start) const {
    if (!(deadline_ms > 0.0)) return Clock::time_point::max();
    // The tick count duration_cast would produce, compared while still a
    // double: only a value below the headroom is cast.
    const double ticks = std::chrono::duration<double, Clock::period>(
                             std::chrono::duration<double, std::milli>(
                                 deadline_ms))
                             .count();
    const double headroom =
        static_cast<double>((Clock::time_point::max() - start).count());
    if (!(ticks < headroom)) return Clock::time_point::max();
    return start + Clock::duration(static_cast<Clock::rep>(ticks));
  }
};

/// The live view a running strategy checks: deadline passed or cancelled?
/// Carries two tokens so one request can be stopped either individually
/// (its own token) or collectively (the owning batch's token).
struct BudgetGuard {
  Clock::time_point deadline = Clock::time_point::max();
  CancellationToken cancel;        ///< per-request token
  CancellationToken batch_cancel;  ///< owning batch's token

  /// The two expiry causes, split so outcomes can classify precisely
  /// (DeadlineExpired vs Cancelled) instead of reporting a generic
  /// budget event.
  bool cancelled() const {
    return cancel.stop_requested() || batch_cancel.stop_requested();
  }
  bool deadline_passed() const {
    return deadline != Clock::time_point::max() && Clock::now() >= deadline;
  }

  bool expired() const { return cancelled() || deadline_passed(); }
};

}  // namespace pmcast::runtime

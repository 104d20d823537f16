#pragma once
/// \file resolve.hpp
/// Warm-started / incremental LP resolution, the substrate of the paper's
/// platform heuristics (Figs. 6/7) and of column generation: each solves
/// dozens of closely-related LPs, and rebuilding + cold-solving every one
/// dominates the portfolio's latency. This layer keeps the simplex state
/// alive between solves:
///
///  * ResolvableModel — an lp::Model plus mutation tracking: in-place
///    edits of variable bounds, objective coefficients and row bounds are
///    *data* edits (structure version unchanged); adding variables, rows
///    or entries are *structural* edits. The split is what tells the
///    solver how much of its state survives.
///  * IncrementalSimplex — a persistent solver. Data-only edits and column
///    appends re-solve in place, reusing the basis AND the eta file (no
///    refactorisation unless the engine's drift check or cost trigger
///    calls for one);
///    structural edits or a different model rebuild but warm-start from
///    the previous basis whenever the shape (vars, rows) matches; anything
///    else runs cold. A warm attempt that fails to reach optimality falls
///    back to a full cold solve, so callers never observe a worse status
///    than lp::solve() would return.
///  * ResolveStats — per-sequence counters (solves, warm-start hits, eta
///    reuses, cold fallbacks, simplex iterations) threaded through the
///    heuristics into the runtime's per-strategy outcomes, plus the
///    engine's reinversions by cause, which stay internal.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace pmcast::lp {

namespace detail {
class Simplex;
}

/// Basis reinversions of the simplex engine, by cause. Internal
/// accounting for tests and benches; it stays off LpStats and the wire.
struct ReinversionCounts {
  int initial = 0;  ///< cold start or adopted basis: nothing to reuse
  int drift = 0;    ///< end-of-phase residual or bound check failed
  int trigger = 0;  ///< update-eta work overtook the last reinversion's
  int cap = 0;      ///< SolverOptions::refactor_every update etas reached

  int total() const { return initial + drift + trigger + cap; }

  void merge(const ReinversionCounts& other) {
    initial += other.initial;
    drift += other.drift;
    trigger += other.trigger;
    cap += other.cap;
  }
};

/// Counters for one warm-started LP sequence.
struct ResolveStats {
  int solves = 0;          ///< total solve() calls
  int warm_starts = 0;     ///< solves that started from a previous basis
  int eta_reuses = 0;      ///< warm starts that also kept the eta file
  int cold_fallbacks = 0;  ///< warm attempts re-run cold after a failure
  long long iterations = 0;///< total simplex iterations (incl. fallbacks)
  ReinversionCounts reinversions;  ///< incl. fallbacks and basis loads

  // Column-generation accounting (zero outside a pricing loop).
  int columns_priced = 0;     ///< columns appended by a pricing oracle
  int master_iterations = 0;  ///< restricted-master re-solves in the loop
  double pricing_ms = 0.0;    ///< wall-clock spent inside the oracle

  double warm_hit_rate() const {
    return solves > 0 ? static_cast<double>(warm_starts) / solves : 0.0;
  }

  void merge(const ResolveStats& other) {
    solves += other.solves;
    warm_starts += other.warm_starts;
    eta_reuses += other.eta_reuses;
    cold_fallbacks += other.cold_fallbacks;
    iterations += other.iterations;
    reinversions.merge(other.reinversions);
    columns_priced += other.columns_priced;
    master_iterations += other.master_iterations;
    pricing_ms += other.pricing_ms;
  }
};

/// A Model with mutation tracking. Data edits (bounds, objective, row
/// bounds) keep the structure version; structural edits (new variables,
/// rows or entries) bump it and cost the solver its factorisation.
///
/// Every instance carries a process-unique serial — regenerated on
/// copy/move/assign — so a solver can tell "the same model sequence,
/// mutated" from "a different model that happens to live at a reused
/// address" (the latter must never pass for eta reuse).
class ResolvableModel {
 public:
  ResolvableModel() = default;
  explicit ResolvableModel(Model base) : model_(std::move(base)) {}

  ResolvableModel(const ResolvableModel& other)
      : model_(other.model_),
        structure_(other.structure_),
        data_(other.data_),
        columns_(other.columns_) {}
  ResolvableModel(ResolvableModel&& other) noexcept
      : model_(std::move(other.model_)),
        structure_(other.structure_),
        data_(other.data_),
        columns_(other.columns_) {}
  ResolvableModel& operator=(const ResolvableModel& other) {
    model_ = other.model_;
    structure_ = other.structure_;
    data_ = other.data_;
    columns_ = other.columns_;
    serial_ = next_serial();
    return *this;
  }
  ResolvableModel& operator=(ResolvableModel&& other) noexcept {
    model_ = std::move(other.model_);
    structure_ = other.structure_;
    data_ = other.data_;
    columns_ = other.columns_;
    serial_ = next_serial();
    return *this;
  }

  const Model& model() const { return model_; }

  /// Process-unique identity of this instance (never 0, never reused).
  std::uint64_t serial() const { return serial_; }

  // --- data edits (basis and eta file survive) ---
  void set_var_bounds(int j, double lb, double ub) {
    assert(lb <= ub);
    model_.set_var_lb(j, lb);
    model_.set_var_ub(j, ub);
    ++data_;
  }
  void set_obj_coeff(int j, double c) {
    model_.set_obj(j, c);
    ++data_;
  }
  void set_row_bounds(int i, double lo, double hi) {
    assert(lo <= hi);
    model_.set_row_lo(i, lo);
    model_.set_row_hi(i, hi);
    ++data_;
  }

  // --- column appends (basis and eta file survive; the solver absorbs
  //     the new columns without refactorising) ---

  /// Add a variable with its full constraint column (Model::add_column).
  /// Tracked separately from structural edits: an append only ever adds
  /// entries for the new variable, so the solver keeps its factorisation
  /// and the very next solve is an eta-reuse warm start — the mutation
  /// class column generation lives on.
  int add_column(double lb, double ub, double obj, std::span<const int> rows,
                 std::span<const double> values, std::string name = {}) {
    ++columns_;
    return model_.add_column(lb, ub, obj, rows, values, std::move(name));
  }

  // --- structural edits (bounded row/column growth between solves) ---
  int add_variable(double lb, double ub, double obj, std::string name = {}) {
    ++structure_;
    return model_.add_variable(lb, ub, obj, std::move(name));
  }
  int add_row(double lo, double hi, std::string name = {}) {
    ++structure_;
    return model_.add_row(lo, hi, std::move(name));
  }
  void add_entry(int row, int var, double value) {
    ++structure_;
    model_.add_entry(row, var, value);
  }

  /// Full access for builders; treated as a structural edit.
  Model& mutable_model() {
    ++structure_;
    return model_;
  }

  std::uint64_t structure_version() const { return structure_; }
  std::uint64_t data_version() const { return data_; }
  std::uint64_t columns_version() const { return columns_; }

 private:
  static std::uint64_t next_serial() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  Model model_;
  std::uint64_t structure_ = 0;
  std::uint64_t data_ = 0;
  std::uint64_t columns_ = 0;
  std::uint64_t serial_ = next_serial();
};

/// Persistent solver for a sequence of related LPs. Not thread-safe; use
/// one instance per sequence (they are cheap to create).
class IncrementalSimplex {
 public:
  explicit IncrementalSimplex(SolverOptions options = {});
  ~IncrementalSimplex();
  IncrementalSimplex(IncrementalSimplex&&) noexcept;
  IncrementalSimplex& operator=(IncrementalSimplex&&) noexcept;

  /// Solve \p rm, reusing as much previous state as its mutation history
  /// allows: eta reuse when only data changed since the last solve of the
  /// same object, basis warm start when the shape still matches, cold
  /// otherwise. Falls back to a cold solve when a warm attempt does not
  /// reach optimality.
  Solution solve(const ResolvableModel& rm);

  /// Drop all remembered state; the next solve runs cold.
  void reset();

  /// Basis of the last successful solve (empty when none). Cheap to copy;
  /// pair with set_start_basis() to anchor a probe sequence on one
  /// accepted point instead of chaining probe-to-probe.
  const Basis& last_basis() const { return last_basis_; }

  /// One-shot override: the next solve warm-starts from \p basis (shape
  /// permitting) instead of the previous solve's end basis. If it matches
  /// the internal end basis the cheaper eta-reuse path is kept.
  void set_start_basis(Basis basis) { pending_basis_ = std::move(basis); }

  const ResolveStats& stats() const { return stats_; }

 private:
  /// How much live engine state the mutation history lets this solve keep.
  enum class Reuse {
    Cold,    ///< rebuild from scratch
    Basis,   ///< rebuild, adopt the last basis (refactorise + repair)
    Eta,     ///< reload data in place; basis and eta file survive
    Append,  ///< absorb freshly appended columns, then the Eta path
  };
  Solution solve_internal(const Model& model, Reuse reuse);

  SolverOptions options_;
  ResolveStats stats_;
  std::unique_ptr<detail::Simplex> engine_;
  Basis last_basis_;
  Basis pending_basis_;  ///< one-shot start override (set_start_basis)
  int last_vars_ = -1;
  int last_rows_ = -1;
  std::uint64_t bound_serial_ = 0;  ///< ResolvableModel::serial(), 0 = none
  std::uint64_t bound_structure_ = 0;
  std::uint64_t bound_columns_ = 0;

  // Adaptive guard: on degenerate, flow-heavy instances the phase-1 repair
  // from a warm basis can cost more than a cold solve. Each warm solve is
  // compared against the latest cold solve of the same sequence; warm
  // solves without 2x headroom accumulate strikes (clearly-good ones decay
  // them) and three net strikes disable warm-starting for the rest of the
  // sequence (reset() re-arms it).
  int cold_reference_iters_ = -1;
  int warm_strikes_ = 0;
  bool warm_disabled_ = false;
};

}  // namespace pmcast::lp

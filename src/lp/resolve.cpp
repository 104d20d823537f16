#include "lp/resolve.hpp"

#include <utility>

#include "lp/simplex_impl.hpp"

namespace pmcast::lp {

IncrementalSimplex::IncrementalSimplex(SolverOptions options)
    : options_(options) {}

IncrementalSimplex::~IncrementalSimplex() = default;
IncrementalSimplex::IncrementalSimplex(IncrementalSimplex&&) noexcept =
    default;
IncrementalSimplex& IncrementalSimplex::operator=(
    IncrementalSimplex&&) noexcept = default;

void IncrementalSimplex::reset() {
  engine_.reset();
  last_basis_ = Basis{};
  pending_basis_ = Basis{};
  last_vars_ = last_rows_ = -1;
  bound_serial_ = 0;
  bound_structure_ = 0;
  bound_columns_ = 0;
  cold_reference_iters_ = -1;
  warm_strikes_ = 0;
  warm_disabled_ = false;
}

Solution IncrementalSimplex::solve(const ResolvableModel& rm) {
  // Same live sequence = same object, same structural history, same rows.
  const bool same_sequence =
      engine_ != nullptr && bound_serial_ == rm.serial() &&
      bound_structure_ == rm.structure_version() &&
      last_rows_ == rm.model().num_rows();
  Reuse reuse = Reuse::Cold;
  if (same_sequence && bound_columns_ == rm.columns_version() &&
      last_vars_ == rm.model().num_vars()) {
    reuse = Reuse::Eta;
  } else if (same_sequence && rm.columns_version() > bound_columns_ &&
             rm.model().num_vars() > last_vars_) {
    // Only add_column() calls since the last solve: the engine can absorb
    // the new columns without losing its factorisation.
    reuse = Reuse::Append;
  } else if (!last_basis_.empty() && last_vars_ == rm.model().num_vars() &&
             last_rows_ == rm.model().num_rows()) {
    reuse = Reuse::Basis;
  }
  if (!pending_basis_.empty()) {
    // A start-basis override anchors this solve on the caller's snapshot.
    // When the snapshot IS where the engine already sits, the eta file
    // still inverts it — keep the cheap path; otherwise adopt the
    // snapshot, which forces the basis-load (refactorise) route.
    if (pending_basis_.status != last_basis_.status) {
      last_basis_ = std::move(pending_basis_);
      if (reuse == Reuse::Eta || reuse == Reuse::Append) {
        reuse = last_basis_.shaped_for(rm.model().num_vars(),
                                       rm.model().num_rows())
                    ? Reuse::Basis
                    : Reuse::Cold;
      }
    }
    pending_basis_ = Basis{};
  }
  Solution sol = solve_internal(rm.model(), reuse);
  if (sol.optimal()) {
    bound_serial_ = rm.serial();
    bound_structure_ = rm.structure_version();
    bound_columns_ = rm.columns_version();
  } else {
    // Don't trust the state for eta reuse after a failed solve.
    bound_serial_ = 0;
  }
  return sol;
}

Solution IncrementalSimplex::solve_internal(const Model& model, Reuse reuse) {
  ++stats_.solves;
  const int n = model.num_vars();
  const int m = model.num_rows();

  // Every engine hands over its reinversion tally before it is replaced
  // and after every run, so fallbacks and basis loads are counted too.
  auto rebuild = [&]() {
    if (engine_) stats_.reinversions.merge(engine_->take_reinversions());
    engine_ = std::make_unique<detail::Simplex>(model, options_);
  };
  auto run = [&]() {
    Solution s = engine_->run(model);
    stats_.iterations += s.iterations;
    stats_.reinversions.merge(engine_->take_reinversions());
    return s;
  };
  auto cold = [&]() {
    rebuild();
    Solution s = run();
    if (s.optimal()) cold_reference_iters_ = s.iterations;
    return s;
  };

  Solution sol;
  bool warm_attempted = false;

  if (reuse == Reuse::Append && !warm_disabled_ &&
      !engine_->append_columns(model)) {
    // The model mutated in a way the append contract excludes.
    reuse = Reuse::Cold;
  }
  const bool append_path = reuse == Reuse::Append;

  if (warm_disabled_) {
    sol = cold();
  } else if (reuse == Reuse::Eta || reuse == Reuse::Append) {
    // Same structure as the model this engine was built with (after any
    // just-absorbed column append): reload the bounds/costs in place, keep
    // the basis and the eta file.
    engine_->refresh_data(model);
    sol = run();
    warm_attempted = true;
    if (sol.optimal()) {
      ++stats_.warm_starts;
      ++stats_.eta_reuses;
    }
  } else if (reuse == Reuse::Basis && !last_basis_.empty() &&
             last_vars_ == n && last_rows_ == m) {
    // Same shape, different coefficients: rebuild, adopt the last basis
    // (refactorised with repair). A snapshot the refactorisation rejects
    // outright is a straight cold fallback.
    rebuild();
    if (engine_->load_basis(last_basis_)) {
      sol = run();
      warm_attempted = true;
      if (sol.optimal()) ++stats_.warm_starts;
    } else {
      ++stats_.cold_fallbacks;
      sol = cold();
    }
  } else {
    sol = cold();
  }

  const bool interrupted = sol.status == SolveStatus::Aborted;
  if (warm_attempted && !sol.optimal() && !interrupted) {
    // Warm start led somewhere bad (stalled, drifted, or a spurious
    // verdict from a degenerate start): retry from scratch so the caller
    // never does worse than a cold lp::solve(). A checkpoint abort is
    // exempt: the caller asked the solve to stop, so re-running it cold
    // would undo exactly the work the interruption saved (and earn no
    // strike — the warm start didn't fail, it was told to quit).
    ++stats_.cold_fallbacks;
    sol = cold();
  } else if (warm_attempted && !interrupted && cold_reference_iters_ > 0 &&
             !append_path) {
    // (Append re-solves are exempt from the strike system: a column
    // generation master GROWS across the sequence, so the cold reference —
    // taken from the small initial model — systematically understates what
    // a cold solve of the current model would cost. Judging the append
    // path against it disables warm starts exactly where they pay most:
    // the appended column enters the basis in a handful of pivots, while a
    // cold master re-solve costs hundreds. A genuinely bad append start
    // still falls back cold through the non-optimal branch above.)
    // Adaptive guard: warm-started solves should come in well under the
    // latest cold solve of this sequence; one without 2x headroom earns a
    // strike, a clearly-good one pays a strike back, and three net
    // strikes finish the sequence cold. This catches the degenerate
    // instances where the phase-1 repair of a tightened warm basis costs
    // as much as a fresh solve. The 2x bar is deliberate: the reference
    // is typically the sequence's *first* (largest) solve, and cold
    // probes of these sequences empirically run at roughly half its
    // iterations, so "under half the reference" ≈ "beats a cold probe".
    if (2 * sol.iterations > cold_reference_iters_) {
      if (++warm_strikes_ >= 3) warm_disabled_ = true;
    } else if (warm_strikes_ > 0) {
      --warm_strikes_;
    }
  }

  if (sol.optimal() && engine_ != nullptr) {
    last_basis_ = engine_->basis();
    last_vars_ = n;
    last_rows_ = m;
  } else if (!sol.optimal()) {
    last_basis_ = Basis{};
    last_vars_ = last_rows_ = -1;
  }
  return sol;
}

}  // namespace pmcast::lp

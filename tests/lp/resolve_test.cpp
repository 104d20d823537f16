/// Unit coverage of the warm-start layer (lp/resolve.hpp): eta reuse after
/// data-only edits, basis warm starts across same-shape models, cold runs
/// on structural growth, the fallback-to-cold path, and stats accounting.

#include "lp/resolve.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "graph/rng.hpp"

namespace pmcast::lp {
namespace {

constexpr double kTol = 1e-6;

/// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6. Optimum 12 at (4, 0).
ResolvableModel classic_lp() {
  Model m(Sense::Maximize);
  int x = m.add_variable(0, kInf, 3);
  int y = m.add_variable(0, kInf, 2);
  int r1 = m.add_row_le(4);
  int r2 = m.add_row_le(6);
  m.add_entry(r1, x, 1);
  m.add_entry(r1, y, 1);
  m.add_entry(r2, x, 1);
  m.add_entry(r2, y, 3);
  return ResolvableModel(std::move(m));
}

/// A moderately sized random feasible LP (for meatier warm starts).
Model random_lp(std::uint64_t seed, int n) {
  Rng rng(seed);
  Model m(Sense::Maximize);
  for (int j = 0; j < n; ++j) m.add_variable(0, 10, rng.uniform_real());
  for (int i = 0; i < n; ++i) {
    int r = m.add_row_le(5.0 + rng.uniform_real() * 5.0);
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.3)) m.add_entry(r, j, rng.uniform_real(-1.0, 2.0));
    }
  }
  return m;
}

TEST(ResolvableModel, DataEditsKeepTheStructureVersion) {
  ResolvableModel rm = classic_lp();
  auto before = rm.structure_version();
  rm.set_var_bounds(0, 0.0, 2.0);
  rm.set_obj_coeff(1, 5.0);
  rm.set_row_bounds(0, -kInf, 3.0);
  EXPECT_EQ(rm.structure_version(), before);
  EXPECT_GT(rm.data_version(), 0u);
}

TEST(ResolvableModel, StructuralEditsBumpTheStructureVersion) {
  ResolvableModel rm = classic_lp();
  auto before = rm.structure_version();
  int v = rm.add_variable(0, 1, 0);
  int r = rm.add_row(-kInf, 1);
  rm.add_entry(r, v, 1.0);
  EXPECT_GT(rm.structure_version(), before);
}

TEST(IncrementalSimplex, DataEditResolvesViaEtaReuse) {
  ResolvableModel rm = classic_lp();
  IncrementalSimplex solver;

  Solution first = solver.solve(rm);
  ASSERT_TRUE(first.optimal());
  EXPECT_NEAR(first.objective, 12.0, kTol);
  EXPECT_EQ(solver.stats().solves, 1);
  EXPECT_EQ(solver.stats().warm_starts, 0);

  // Tighten x <= 2: optimum moves to x=2, y=4/3 -> 26/3. Same structure.
  rm.set_var_bounds(0, 0.0, 2.0);
  Solution second = solver.solve(rm);
  ASSERT_TRUE(second.optimal());
  EXPECT_NEAR(second.objective, 26.0 / 3.0, kTol);
  EXPECT_EQ(solver.stats().solves, 2);
  EXPECT_EQ(solver.stats().warm_starts, 1);
  EXPECT_EQ(solver.stats().eta_reuses, 1);
  EXPECT_EQ(solver.stats().cold_fallbacks, 0);

  // Relax it again: back to 12.
  rm.set_var_bounds(0, 0.0, kInf);
  Solution third = solver.solve(rm);
  ASSERT_TRUE(third.optimal());
  EXPECT_NEAR(third.objective, 12.0, kTol);
  EXPECT_EQ(solver.stats().warm_starts, 2);
}

TEST(IncrementalSimplex, StructuralGrowthRunsColdAndStillSolves) {
  ResolvableModel rm = classic_lp();
  IncrementalSimplex solver;
  ASSERT_TRUE(solver.solve(rm).optimal());

  // New row x <= 1 cuts the optimum to 3*1 + 2*(5/3).
  int r = rm.add_row(-kInf, 1.0);
  rm.add_entry(r, 0, 1.0);
  Solution sol = solver.solve(rm);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 3.0 + 2.0 * (5.0 / 3.0), kTol);
  // Different shape: no basis to adopt, runs cold.
  EXPECT_EQ(solver.stats().warm_starts, 0);
}

TEST(IncrementalSimplex, SameShapeModelsWarmStartAcrossRebuilds) {
  IncrementalSimplex solver;
  Model a = random_lp(7, 30);
  Solution cold = solver.solve(ResolvableModel(a));
  ASSERT_TRUE(cold.optimal());
  EXPECT_EQ(solver.stats().warm_starts, 0);

  // Perturb the objective only; same shape, freshly built model (a new
  // ResolvableModel, so the eta file cannot carry over, only the basis).
  Model b = a;
  for (int j = 0; j < b.num_vars(); ++j) b.set_obj(j, b.obj(j) + 0.01);
  Solution warm = solver.solve(ResolvableModel(b));
  ASSERT_TRUE(warm.optimal());
  EXPECT_EQ(solver.stats().warm_starts, 1);
  EXPECT_EQ(solver.stats().eta_reuses, 0);  // rebuilt, basis-only warm
  // The warm start must agree with a from-scratch solve.
  Solution check = solve(b);
  ASSERT_TRUE(check.optimal());
  EXPECT_NEAR(warm.objective, check.objective,
              kTol * (1.0 + std::abs(check.objective)));
}

TEST(IncrementalSimplex, ShapeMismatchRunsCold) {
  IncrementalSimplex solver;
  ASSERT_TRUE(solver.solve(ResolvableModel(random_lp(3, 20))).optimal());
  Solution sol = solver.solve(ResolvableModel(random_lp(4, 25)));
  ASSERT_TRUE(sol.optimal());
  EXPECT_EQ(solver.stats().warm_starts, 0);
  EXPECT_EQ(solver.stats().solves, 2);
}

TEST(IncrementalSimplex, UnboundedAfterWarmAttemptFallsBackCold) {
  ResolvableModel rm = classic_lp();
  IncrementalSimplex solver;
  ASSERT_TRUE(solver.solve(rm).optimal());

  // Remove both row caps: the maximisation is now unbounded. The warm
  // attempt reports it, the fallback confirms it cold, and the sequence
  // keeps functioning afterwards.
  rm.set_row_bounds(0, -kInf, kInf);
  rm.set_row_bounds(1, -kInf, kInf);
  Solution sol = solver.solve(rm);
  EXPECT_EQ(sol.status, SolveStatus::Unbounded);
  EXPECT_EQ(solver.stats().cold_fallbacks, 1);

  rm.set_row_bounds(0, -kInf, 4.0);
  rm.set_row_bounds(1, -kInf, 6.0);
  Solution again = solver.solve(rm);
  ASSERT_TRUE(again.optimal());
  EXPECT_NEAR(again.objective, 12.0, kTol);
}

TEST(IncrementalSimplex, StartBasisOverrideAnchorsTheNextSolve) {
  ResolvableModel rm = classic_lp();
  IncrementalSimplex solver;
  ASSERT_TRUE(solver.solve(rm).optimal());
  Basis anchor = solver.last_basis();
  ASSERT_FALSE(anchor.empty());

  // Wander away (tightened model), then anchor back and re-solve the
  // original bounds: must still be optimal at 12.
  rm.set_var_bounds(0, 0.0, 1.0);
  ASSERT_TRUE(solver.solve(rm).optimal());
  rm.set_var_bounds(0, 0.0, kInf);
  solver.set_start_basis(anchor);
  Solution sol = solver.solve(rm);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 12.0, kTol);
  EXPECT_GE(solver.stats().warm_starts, 2);
}

TEST(IncrementalSimplex, RecreatedModelAtTheSameAddressNeverPassesForEta) {
  // Regression: eta-reuse identity used to key on the ResolvableModel's
  // address + structural edit count, so a loop-local model rebuilt at the
  // same stack slot with different entries silently reused the stale
  // factorisation and returned the previous model's optimum.
  IncrementalSimplex solver;
  for (double coeff : {1.0, 2.0}) {
    // max x s.t. coeff * x <= 4  ->  optimum 4 / coeff.
    Model m(Sense::Maximize);
    int x = m.add_variable(0, kInf, 1);
    int r = m.add_row_le(4.0);
    m.add_entry(r, x, coeff);
    ResolvableModel rm(std::move(m));
    Solution sol = solver.solve(rm);
    ASSERT_TRUE(sol.optimal());
    EXPECT_NEAR(sol.objective, 4.0 / coeff, kTol) << "coeff " << coeff;
  }
}

TEST(IncrementalSimplex, ResetForgetsEverything) {
  ResolvableModel rm = classic_lp();
  IncrementalSimplex solver;
  ASSERT_TRUE(solver.solve(rm).optimal());
  solver.reset();
  rm.set_var_bounds(0, 0.0, 2.0);
  Solution sol = solver.solve(rm);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 26.0 / 3.0, kTol);
  EXPECT_EQ(solver.stats().warm_starts, 0);  // both solves ran cold
}

TEST(IncrementalSimplex, WarmSequenceMatchesColdOnRandomBoundSweeps) {
  // Differential: one model, a sweep of bound tightenings/relaxations;
  // every warm resolve must match an independent cold solve.
  Rng rng(99);
  Model base = random_lp(11, 24);
  ResolvableModel rm(base);
  IncrementalSimplex solver;
  for (int step = 0; step < 12; ++step) {
    int j = static_cast<int>(rng.uniform(static_cast<uint64_t>(
        base.num_vars())));
    double ub = rng.bernoulli(0.5) ? 10.0 : rng.uniform_real(0.5, 6.0);
    rm.set_var_bounds(j, 0.0, ub);
    Solution warm = solver.solve(rm);
    Solution cold = solve(rm.model());
    ASSERT_EQ(warm.status, cold.status) << "step " << step;
    if (cold.optimal()) {
      EXPECT_NEAR(warm.objective, cold.objective,
                  kTol * (1.0 + std::abs(cold.objective)))
          << "step " << step;
    }
  }
  EXPECT_GT(solver.stats().warm_starts, 0);
}

/// |a - b| <= 1e-9 * (1 + max(|a|, |b|)).
void expect_matches_cold(const Solution& warm, const Model& model,
                         const std::string& what) {
  const Solution cold = solve(model);
  ASSERT_TRUE(cold.optimal()) << what;
  ASSERT_TRUE(warm.optimal()) << what;
  const double scale =
      1.0 + std::max(std::abs(warm.objective), std::abs(cold.objective));
  EXPECT_LE(std::abs(warm.objective - cold.objective), 1e-9 * scale)
      << what << ": warm " << warm.objective << " vs cold " << cold.objective;
}

TEST(IncrementalSimplex, EtaReuseKeepsTheFactorisationAcrossDataEdits) {
  // A data-edit sequence re-solves on the live eta file: after the one
  // initial factorisation, no solve's end-of-phase check may find drift,
  // and every answer matches a cold solve.
  Rng rng(5);
  ResolvableModel rm(random_lp(21, 40));
  IncrementalSimplex solver;
  ASSERT_TRUE(solver.solve(rm).optimal());
  for (int step = 0; step < 15; ++step) {
    const int j = static_cast<int>(rng.uniform(40));
    rm.set_var_bounds(j, 0.0, rng.uniform_real(0.5, 10.0));
    rm.set_obj_coeff(static_cast<int>(rng.uniform(40)), rng.uniform_real());
    const Solution warm = solver.solve(rm);
    expect_matches_cold(warm, rm.model(), "step " + std::to_string(step));
  }
  const ResolveStats& stats = solver.stats();
  EXPECT_EQ(stats.eta_reuses, 15);
  EXPECT_EQ(stats.cold_fallbacks, 0);
  EXPECT_EQ(stats.reinversions.initial, 1);
  EXPECT_EQ(stats.reinversions.drift, 0);
  // A re-solve pays for its pivots, not for a factorisation of its own.
  EXPECT_LT(stats.reinversions.total(), stats.solves);
}

TEST(IncrementalSimplex, ColumnAppendsKeepTheFactorisation) {
  // The column-generation pattern: a packing master (maximise sum y_k
  // subject to per-row capacities) grows by one column per round and
  // re-solves warm with Devex, as core::column_generation_throughput does.
  Rng rng(17);
  const int rows = 30;
  Model base(Sense::Maximize);
  for (int i = 0; i < rows; ++i) base.add_row_le(1.0);
  ResolvableModel rm(std::move(base));
  auto append = [&]() {
    std::vector<int> idx;
    std::vector<double> val;
    for (int i = 0; i < rows; ++i) {
      if (rng.bernoulli(0.25)) {
        idx.push_back(i);
        val.push_back(rng.uniform_real(0.1, 2.0));
      }
    }
    if (idx.empty()) {
      idx.push_back(static_cast<int>(rng.uniform(rows)));
      val.push_back(1.0);
    }
    rm.add_column(0.0, kInf, 1.0, idx, val);
  };
  for (int k = 0; k < 5; ++k) append();
  SolverOptions options;
  options.pricing = PricingRule::Devex;
  IncrementalSimplex solver(options);
  ASSERT_TRUE(solver.solve(rm).optimal());
  for (int k = 0; k < 20; ++k) {
    append();
    const Solution warm = solver.solve(rm);
    expect_matches_cold(warm, rm.model(), "column " + std::to_string(k));
  }
  const ResolveStats& stats = solver.stats();
  EXPECT_EQ(stats.eta_reuses, 20);
  EXPECT_EQ(stats.cold_fallbacks, 0);
  EXPECT_EQ(stats.reinversions.initial, 1);
  EXPECT_EQ(stats.reinversions.drift, 0);
  // A re-solve pays for its pivots, not for a factorisation of its own.
  EXPECT_LT(stats.reinversions.total(), stats.solves);
}

}  // namespace
}  // namespace pmcast::lp

#pragma once
/// \file oracle.hpp
/// Differential verification oracle: cross-check every solver strategy of
/// the library against each other and against the LP lower bound on one
/// instance, and return a structured report.
///
/// Invariants enforced (tolerances are relative, see OracleOptions::rel_tol):
///  1. every *certified* period is >= the Multicast-LB lower bound — a
///     heuristic beating the LP lower bound means a broken certificate or
///     a broken LP;
///  2. when the exact tree-enumeration solver certifies, its period is <=
///     every certified *single-tree* strategy (mcph / pruned Dijkstra /
///     kmb): a single tree is a weighted-tree set, so the COMPACT-WEIGHTED-
///     MULTICAST optimum dominates it. Flow-based strategies are exempt on
///     purpose — a scatter routes each target's message independently and
///     may reassemble split fragments, which the compact (tree) model
///     forbids, so scatters can legitimately beat the tree optimum (the
///     scenario sweep surfaces real such instances; cf. the Fig. 4
///     discussion of non-tight bounds);
///  3. the certified Multicast-UB period is <= |Ptarget| * LB (the paper's
///     Fig. 5 factor, proved tight);
///  4. every strategy either certifies or is explicitly skipped
///     (budget/inapplicability) — a Failed outcome is a violation, because
///     on feasible generated platforms every strategy has a valid answer;
///  5. at least one strategy certifies.
///
/// Certification itself (core::verify_certificate for tree candidates,
/// sched::validate_schedule for reconstructed flow schedules) runs inside
/// runtime::run_strategy for every candidate, so every period the oracle
/// reasons about has already survived the proof pipeline.

#include <string>
#include <vector>

#include "core/formulations.hpp"
#include "core/problem.hpp"
#include "pmcast/service.hpp"
#include "runtime/portfolio.hpp"

namespace pmcast::scenario {

struct OracleOptions {
  /// Strategy set / limits / replay config raced by the oracle. Empty
  /// strategy list = all 8 strategies. The oracle's own race always runs
  /// inline, uncached and with pruning Off.
  ServiceOptions service;
  /// Solver options for the Multicast-LB bound.
  core::FormulationOptions lp;
  /// Relative tolerance for every ordering check: absorbs simplex numerics
  /// plus the <= 1e-5 schedule-rationalisation wobble on both sides of a
  /// comparison, while still catching any real (percent-scale) violation.
  double rel_tol = 1e-4;
  /// Accept OutcomeState::Failed outcomes without flagging them
  /// (diagnostic runs on adversarial/infeasible inputs).
  bool allow_failures = false;
};

struct OracleViolation {
  std::string check;   ///< "lb_ordering", "exact_dominance", ...
  std::string detail;  ///< human-readable diagnostic with the numbers
};

struct OracleReport {
  bool ok = false;            ///< no violations and >= 1 certified strategy
  double lower_bound = 0.0;   ///< Multicast-LB period (0 when LB failed)
  double best_period = kInfinity;  ///< best certified period
  double gap = kInfinity;     ///< best_period / lower_bound
  int certified = 0;
  int failed = 0;
  int skipped = 0;   ///< skipped or pruned
  bool exact_certified = false;
  double exact_period = kInfinity;
  runtime::PortfolioResult portfolio;  ///< per-strategy outcomes
  std::vector<OracleViolation> violations;

  /// One-line digest, e.g. "ok gap=1.42 certified=7/8".
  std::string summary() const;
};

/// Cross-check a portfolio result that was already computed (e.g. by
/// PortfolioEngine::solve_batch) — only the LB is solved here.
OracleReport cross_check(const core::MulticastProblem& problem,
                         const runtime::PortfolioResult& result,
                         const OracleOptions& options = {});

/// Run the full portfolio inline on the calling thread, then cross-check.
OracleReport cross_check(const core::MulticastProblem& problem,
                         const OracleOptions& options = {});

}  // namespace pmcast::scenario

#pragma once
/// \file simplex.hpp
/// Sparse bounded-variable primal simplex with product-form inverse (PFI).
///
/// Design (see DESIGN.md §2, §5):
///  * computational form: every row i gets a logical variable s_i with
///    bounds [lo_i, hi_i] and the system becomes A x - s = 0; the initial
///    basis is the (trivially invertible) logical basis;
///  * phase 1 is the classic composite method: minimise the sum of bound
///    violations of basic variables with a piecewise-linear cost re-derived
///    each iteration, stopping at the first ratio-test breakpoint;
///  * the basis inverse is kept as an eta file (PFI), reinverted by
///    product-form Gauss–Jordan (logical columns first) only when the
///    update etas have cost more than a fresh factorisation, or when a
///    converged phase fails its residual check — so a warm re-solve
///    continues on the previous solve's eta file;
///  * Dantzig pricing with a Bland's-rule fallback after a run of
///    degenerate pivots guarantees termination;
///  * optional geometric-mean equilibration improves conditioning on the
///    strongly heterogeneous platforms used in the experiments.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "lp/model.hpp"

namespace pmcast::lp {

enum class SolveStatus {
  Optimal,
  Infeasible,
  Unbounded,
  IterationLimit,
  Numerical,
  Aborted,  ///< checkpoint requested a stop (deadline / cancellation)
};

const char* to_string(SolveStatus s);

/// Verdict of a SolverOptions::checkpoint poll. An Aborted solve was told
/// to stop, it did not fail: callers must not treat it as a solver error —
/// no fallback, no retry, no "Failed" classification.
enum class CheckpointAction {
  Continue,
  Abort,  ///< stop now; solve returns SolveStatus::Aborted
};

/// SolverOptions::checkpoint. \p poll is the poll's index within the
/// running solve: 0 opens a solve, so a hook serving a sequence of solves
/// can tell time spent inside one solve from time spent between two.
using CheckpointHook = std::function<CheckpointAction(int poll)>;

/// Entering-variable selection rule.
enum class PricingRule {
  /// Most-negative reduced cost. The historical default — every bit-exact
  /// golden trace was recorded under it, so it stays the default.
  Dantzig,
  /// Forrest–Goldfarb reference-framework weights (approximate steepest
  /// edge). Costs one extra BTRAN plus a pricing-sized pass per pivot but
  /// takes far fewer pivots on the long, thin restricted masters that
  /// column generation produces; that is where the engine turns it on.
  Devex,
};

struct SolverOptions {
  /// 0 = automatic (scales with the model size).
  int max_iterations = 0;
  double feas_tol = 1e-7;   ///< bound/row feasibility tolerance
  double opt_tol = 1e-7;    ///< reduced-cost (dual feasibility) tolerance
  double pivot_tol = 1e-8;  ///< minimum acceptable pivot magnitude
  int refactor_every = 600; ///< hard cap on update etas between
                            ///  reinversions. Below it the engine reinverts
                            ///  when the update etas' FTRAN/BTRAN work
                            ///  overtakes the last reinversion's cost, or
                            ///  when a converged phase fails its residual
                            ///  check (lp/simplex_impl.hpp)
  bool scale = true;        ///< geometric-mean equilibration

  /// Cooperative mid-solve hook, polled every checkpoint_every simplex
  /// iterations (both phases). Returning Abort makes the solve stop within
  /// one checkpoint interval and report SolveStatus::Aborted; the
  /// partially-iterated state is discarded by callers (no Solution values
  /// are extracted for non-Optimal statuses). Null = never polled.
  CheckpointHook checkpoint;
  /// Iterations between checkpoint polls. A poll is two atomic loads and a
  /// clock read in the runtime's guards — far below the cost of one pivot
  /// (a full BTRAN + pricing pass + FTRAN) — so a small interval buys
  /// deadline responsiveness at well under 1% overhead.
  int checkpoint_every = 32;

  PricingRule pricing = PricingRule::Dantzig;

  /// Pattern-tracked sparse FTRAN for pivot columns and reinversion. The
  /// arithmetic is bit-identical to the dense reference loops it replaces
  /// (the pattern is sorted before any order-sensitive scan); false keeps
  /// the dense loops, which the sparse-vs-dense differential suite runs
  /// as its reference.
  bool sparse_ftran = true;
};

struct Solution {
  SolveStatus status = SolveStatus::Numerical;
  double objective = 0.0;
  std::vector<double> x;          ///< structural variable values
  std::vector<double> row_value;  ///< row activities (A x)_i
  std::vector<double> dual;       ///< row duals y_i (sign: min problem)
  int iterations = 0;

  bool optimal() const { return status == SolveStatus::Optimal; }
};

/// A simplex basis snapshot: one status per variable, structurals first
/// (model order), then one logical per row. The encoding matches the
/// solver's internal VarStatus (0 = nonbasic at lower, 1 = nonbasic at
/// upper, 2 = basic, 3 = nonbasic free). A Basis is only meaningful for
/// models with the same variable/row counts it was exported from; values
/// are not stored — nonbasic variables re-seat on their bounds and basic
/// values are recomputed on load.
struct Basis {
  std::vector<signed char> status;

  bool empty() const { return status.empty(); }
  bool shaped_for(int num_vars, int num_rows) const {
    return static_cast<int>(status.size()) == num_vars + num_rows;
  }
};

/// Solve \p model. Never throws on solvable-but-hard inputs; inspect
/// Solution::status.
Solution solve(const Model& model, const SolverOptions& options = {});

}  // namespace pmcast::lp

#pragma once
/// \file exact.hpp
/// Exact solvers for small instances.
///
/// Theorem 4 of the paper shows the optimal steady-state throughput is
/// attained by a weighted combination of at most 2|E| multicast trees. For
/// small platforms we can therefore compute the true optimum exactly:
/// enumerate every irredundant multicast tree (arborescence rooted at the
/// source, spanning the targets, all leaves targets) and solve
///     maximise   sum_k y_k
///     subject to sum_k y_k * send_k(v) <= 1   for every node v
///                sum_k y_k * recv_k(v) <= 1   for every node v
/// where send_k / recv_k are the one-port port times of tree k per message.
/// (Edge occupation constraints are dominated by the sender port times.)
///
/// Tree enumeration is exponential — this is exactly the NP-hardness of the
/// problem — so these functions guard against blow-ups via explicit limits
/// and are used for tests, the worked examples (Figs. 1/4/5) and the
/// complexity-gap bench (E2).

#include <functional>
#include <optional>

#include "core/problem.hpp"
#include "core/tree.hpp"
#include "lp/resolve.hpp"
#include "lp/simplex.hpp"

namespace pmcast::core {

struct EnumerationLimits {
  std::size_t max_trees = 2'000'000;  ///< abort when exceeded

  /// Cooperative stop, polled between relay subsets and every ~1000
  /// parent-assignment recursion steps inside a subset (rejected
  /// assignments never emit, so per-tree polling alone would not bound
  /// the response time): true aborts the enumeration
  /// (ExactSolution::aborted). The runtime wires deadlines/cancellation
  /// through this so a deadline that expires mid-enumeration takes
  /// effect within one poll interval instead of after the full
  /// exponential sweep. Null = never polled.
  std::function<bool()> should_abort;

  /// Options (including the mid-solve checkpoint) for the weighted-tree LP
  /// that follows the enumeration.
  lp::SolverOptions solver;
};

/// All irredundant multicast trees (each enumerated exactly once). Returns
/// nullopt when the limit is exceeded or should_abort fired; *aborted
/// (when given) is set only in the latter case, so callers can classify
/// the stop without re-polling the hook (which could have turned true
/// after a genuine limit hit). Relay subsets that cannot be spanned from
/// the source are skipped without recursing (counted into
/// *subsets_pruned when given).
std::optional<std::vector<MulticastTree>> enumerate_multicast_trees(
    const MulticastProblem& problem, const EnumerationLimits& limits = {},
    std::size_t* subsets_pruned = nullptr, bool* aborted = nullptr);

struct ExactSolution {
  bool ok = false;
  double throughput = 0.0;       ///< optimal steady-state throughput
  WeightedTreeSet combination;   ///< optimal weighted tree combination
  std::size_t trees_enumerated = 0;
  std::size_t subsets_pruned = 0; ///< relay subsets skipped by the
                                  ///< reachability pre-filter (no tree can
                                  ///< span them; sound, value-preserving)
  bool aborted = false;           ///< stopped by EnumerationLimits::
                                  ///< should_abort or an LP Abort checkpoint
  int lp_iterations = 0;          ///< simplex iterations of the tree LP
  bool column_generation = false; ///< solved by the pricing loop, not
                                  ///< enumeration — the throughput is a
                                  ///< certified primal value, not a proven
                                  ///< optimum (heuristic pricing)
  lp::ResolveStats lp;            ///< master warm-start + pricing counters
                                  ///< (column-generation path only)
};

/// The exact optimal steady-state throughput (COMPACT-WEIGHTED-MULTICAST
/// optimum) by LP over all enumerated trees.
ExactSolution exact_optimal_throughput(const MulticastProblem& problem,
                                       const EnumerationLimits& limits = {});

/// Limits and knobs for column_generation_throughput().
struct ColumnGenLimits {
  int max_columns = 0;  ///< master column cap; 0 = automatic (Theorem 4
                        ///  says 2|E| columns suffice at the optimum, so
                        ///  the automatic cap scales with the graph)
  int max_rounds = 0;   ///< pricing-loop round cap; 0 = automatic
  double rc_tol = 1e-9; ///< improvement threshold: a priced tree enters
                        ///  only when its dual weight is below 1 - rc_tol
  std::function<bool()> should_abort;  ///< polled once per pricing round
  lp::SolverOptions solver;  ///< master LP options (checkpoint included);
                             ///  the pricing rule below overrides .pricing
  lp::PricingRule master_pricing = lp::PricingRule::Devex;
};

/// Large-instance replacement for exact_optimal_throughput(): a restricted
/// master over a growing set of trees (the same per-node send/recv LP),
/// re-solved warm through lp::IncrementalSimplex after every column
/// append, with new trees priced by a shortest-path-arborescence heuristic
/// over the master's duals. The returned combination is feasible and
/// certifiable end-to-end; because exact pricing is the NP-hard directed
/// Steiner problem, a heuristic oracle means the value is a strong lower
/// bound on the optimum, not a proven optimum (ExactSolution::
/// column_generation documents this on the result).
ExactSolution column_generation_throughput(const MulticastProblem& problem,
                                           const ColumnGenLimits& limits = {});

struct BestTreeSolution {
  bool ok = false;
  double throughput = 0.0;  ///< 1 / best single-tree period
  MulticastTree tree;
  std::size_t trees_enumerated = 0;
};

/// The best *single* multicast tree (the COMPACT-MULTICAST optimum with
/// S = 2, i.e. one tree) by exhaustive search.
BestTreeSolution exact_best_single_tree(const MulticastProblem& problem,
                                        const EnumerationLimits& limits = {});

}  // namespace pmcast::core

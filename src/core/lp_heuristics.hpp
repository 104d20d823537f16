#pragma once
/// \file lp_heuristics.hpp
/// The paper's refined LP-based heuristics (Section 5.2).
///
/// * reduced_broadcast() — Fig. 6: start from a broadcast of the whole
///   platform (Broadcast-EB) and greedily remove the non-target node with
///   the smallest message inflow while the broadcast period does not
///   degrade.
/// * augmented_multicast() — Fig. 7: start from the sub-platform of the
///   targets plus the source and greedily add the non-target node with the
///   largest inflow in the Multicast-LB solution while the broadcast period
///   of the grown sub-platform improves.
/// * augmented_sources() — Fig. 8: keep the full platform but promote
///   high-inflow nodes to intermediate sources, re-solving
///   MulticastMultiSource-UB for every candidate promotion. Candidates are
///   probed with the program's per-origin form (value only); one whose
///   probe improves the period is re-solved with the per-commodity form,
///   which decides acceptance and whose flows score the next round and
///   build the schedule.
///
/// One deviation from the paper's pseudo-code, recorded in EXPERIMENTS.md:
/// acceptance requires a *strict* period improvement (the pseudo-code's
/// "<=" admits plateau moves, which never change the reported period but
/// can multiply the number of LP solves by the platform size).
///
/// All results report achievable periods: Broadcast-EB values are
/// achievable per [6,5]; the multi-source value reconstructs like a scatter.

#include <functional>
#include <vector>

#include "core/formulations.hpp"
#include "core/problem.hpp"

namespace pmcast::core {

/// Cooperative controls the runtime threads into a heuristic's greedy
/// descent. Both hooks are polled between LP probes; deadlines are also
/// surfaced *inside* probes through the solver checkpoint
/// (lp::SolverOptions::checkpoint), so a long LP solve reacts within one
/// checkpoint interval. Null members are never called.
struct ProbeControl {
  /// Deadline / cancellation: true => stop now; the heuristic returns its
  /// best-so-far with `aborted` set.
  std::function<bool()> should_abort;
  /// Lower-bound convergence: called with the heuristic's current accepted
  /// period; true => that value already meets a proven lower bound, so no
  /// remaining probe can be accepted (acceptance demands a strictly better
  /// period and every achievable period is >= the bound). The heuristic
  /// stops probing but *keeps* its result — ok/period stay valid and the
  /// candidate still certifies — with `converged` set and the skipped
  /// probes accounted in probes_skipped. Never called while the current
  /// period is infinite.
  std::function<bool(double)> converged;
};

struct HeuristicOptions {
  FormulationOptions lp;
  int max_rounds = 64;      ///< outer improvement rounds
  int max_candidates = 64;  ///< candidates probed per round
  /// Re-solve the masked Broadcast-EB sequence of reduced_broadcast and
  /// augmented_multicast incrementally (basis + eta reuse, see
  /// lp/resolve.hpp). Off = cold-solve every LP, kept for differential
  /// testing. augmented_sources solves every program cold either way.
  bool warm_start = true;
  /// Runtime-supplied abort/convergence hooks (default: never fire).
  ProbeControl control;
};

struct PlatformHeuristicResult {
  bool ok = false;
  double period = kInfinity;
  std::vector<char> platform;  ///< final node mask the broadcast runs on
  int lp_solves = 0;
  lp::ResolveStats lp_stats;   ///< warm-start counters of the LP sequence
  bool aborted = false;        ///< stopped by ProbeControl::should_abort
  bool converged = false;      ///< stopped by ProbeControl::converged
  int probes_skipped = 0;      ///< probes of the interrupted round not run
};

/// REDUCED BROADCAST (Fig. 6).
PlatformHeuristicResult reduced_broadcast(const MulticastProblem& problem,
                                          const HeuristicOptions& options = {});

/// AUGMENTED MULTICAST (Fig. 7).
PlatformHeuristicResult augmented_multicast(
    const MulticastProblem& problem, const HeuristicOptions& options = {});

struct AugmentedSourcesResult {
  bool ok = false;
  double period = kInfinity;
  std::vector<NodeId> sources;  ///< ordered intermediate sources (incl. Psource)
  MultiSourceSolution solution;  ///< per-commodity solution of `sources`
  int lp_solves = 0;            ///< probes and per-commodity solves
  lp::ResolveStats lp_stats;    ///< solves and iterations of both kinds
  bool aborted = false;         ///< stopped by ProbeControl::should_abort
  bool converged = false;       ///< stopped by ProbeControl::converged
  int probes_skipped = 0;       ///< probes of the interrupted round not run
};

/// AUGMENTED SOURCES / "Multisource MC" (Fig. 8).
AugmentedSourcesResult augmented_sources(const MulticastProblem& problem,
                                         const HeuristicOptions& options = {});

}  // namespace pmcast::core

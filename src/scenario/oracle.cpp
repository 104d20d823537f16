#include "scenario/oracle.hpp"

#include <sstream>
#include <utility>

#include "runtime/engine.hpp"

namespace pmcast::scenario {
namespace {

/// a <= b up to the relative tolerance (scale-aware, absolute floor for
/// values near zero).
bool leq(double a, double b, double rel_tol) {
  return a <= b + rel_tol * std::max({1.0, a, b});
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

}  // namespace

std::string OracleReport::summary() const {
  std::ostringstream os;
  os << (ok ? "ok" : "VIOLATED");
  os.precision(4);
  os << " gap=" << gap << " certified=" << certified << "/"
     << (certified + failed + skipped);
  if (!violations.empty()) {
    os << " [" << violations[0].check << ": " << violations[0].detail << "]";
  }
  return os.str();
}

OracleReport cross_check(const core::MulticastProblem& problem,
                         const runtime::PortfolioResult& result,
                         const OracleOptions& options) {
  OracleReport report;
  report.portfolio = result;
  auto violate = [&](const char* check, const std::string& detail) {
    report.violations.push_back({check, detail});
  };

  if (!problem.feasible()) {
    violate("infeasible", "a target is unreachable from the source");
    return report;
  }

  core::FlowSolution lb =
      core::solve_multicast_lb(problem, core::FormulationOptions{options.lp});
  if (!lb.ok()) {
    violate("lb_failed", "Multicast-LB did not reach optimality");
  } else {
    report.lower_bound = lb.period;
  }

  const StrategyOutcome* exact = nullptr;
  const StrategyOutcome* multicast_ub = nullptr;
  for (const StrategyOutcome& c : result.outcomes) {
    switch (c.state) {
      case OutcomeState::Certified: {
        ++report.certified;
        // Invariant 1: certified period >= LP lower bound.
        if (lb.ok() && !leq(lb.period, c.period, options.rel_tol)) {
          violate("lb_ordering",
                  std::string(strategy_id_name(c.strategy)) + " period " +
                      fmt(c.period) + " beats the LP lower bound " +
                      fmt(lb.period));
        }
        if (c.strategy == StrategyId::Exact) {
          exact = &c;
          report.exact_certified = true;
          report.exact_period = c.period;
        }
        if (c.strategy == StrategyId::MulticastUb) multicast_ub = &c;
        break;
      }
      case OutcomeState::Failed:
        ++report.failed;
        // Invariant 4: on a feasible platform every strategy must either
        // certify or declare itself inapplicable (Skipped).
        if (!options.allow_failures) {
          violate("strategy_failed",
                  std::string(strategy_id_name(c.strategy)) + ": " + c.detail);
        }
        break;
      case OutcomeState::Skipped:
      case OutcomeState::Pruned:
        ++report.skipped;
        break;
    }
  }

  // Invariant 2: the exact COMPACT-WEIGHTED-MULTICAST optimum dominates
  // every certified single-tree strategy. Flow/scatter strategies are
  // exempt: they may split and reassemble messages per target, which the
  // compact model forbids, and genuinely beat the tree optimum.
  if (exact != nullptr) {
    for (const StrategyOutcome& c : result.outcomes) {
      if (c.state != OutcomeState::Certified) continue;
      bool single_tree = c.strategy == StrategyId::Mcph ||
                         c.strategy == StrategyId::PrunedDijkstra ||
                         c.strategy == StrategyId::Kmb;
      if (!single_tree) continue;
      if (!leq(exact->period, c.period, options.rel_tol)) {
        violate("exact_dominance",
                std::string("exact period ") + fmt(exact->period) +
                    " worse than " + strategy_id_name(c.strategy) + " " +
                    fmt(c.period));
      }
    }
  }

  // Invariant 3: UB <= |Ptarget| * LB (Fig. 5).
  if (multicast_ub != nullptr && lb.ok()) {
    double cap = static_cast<double>(problem.target_count()) * lb.period;
    if (!leq(multicast_ub->period, cap, options.rel_tol)) {
      violate("ub_factor", "multicast_ub period " + fmt(multicast_ub->period) +
                               " exceeds |Ptarget| * LB = " + fmt(cap));
    }
  }

  // Invariant 5: somebody certified.
  if (!result.ok) {
    violate("no_certified", "no strategy produced a certified period");
  } else {
    report.best_period = result.period;
    if (report.lower_bound > 0.0) {
      report.gap = report.best_period / report.lower_bound;
    }
  }

  report.ok = report.violations.empty() && result.ok;
  return report;
}

OracleReport cross_check(const core::MulticastProblem& problem,
                         const OracleOptions& options) {
  // The oracle's whole point is differential coverage of every strategy;
  // cooperative pruning would legitimately skip dominated ones, so the
  // oracle's own portfolio runs blind. Precomputed results passed to the
  // other overload keep whatever policy produced them.
  // An inline, uncached engine runs the strategies in launch order.
  ServiceOptions service = options.service;
  service.threads = 0;
  service.cache_capacity = 0;
  service.pruning = PruningPolicy::Off;
  runtime::PortfolioEngine engine(std::move(service));
  SolveRequest request;
  request.problem = problem;
  return cross_check(problem, engine.solve(std::move(request)), options);
}

}  // namespace pmcast::scenario

#include "core/formulations.hpp"

#include <cassert>
#include <string>
#include <utility>
#include <vector>

namespace pmcast::core {
namespace {

/// Index helpers for the x[t][e] variable block.
struct VarLayout {
  int targets = 0;
  int edges = 0;
  int x(int t, int e) const { return t * edges + e; }
  int n(int e) const { return targets * edges + e; }
  int period() const { return targets * edges + edges; }
};

/// Rows-first model assembly for the flow programs. The constraint rows are
/// created on the model up front (add_row_*), while coefficients are
/// buffered per *column*; flush() then materialises every variable through
/// Model::add_column in layout order. This matches the solver's sparse CSC
/// storage (columns are the unit of both construction and pricing) and is
/// the same build path column generation extends at runtime. The entry
/// *set* per column is exactly what the historical row-major builders
/// emitted, so the solve is unchanged.
class ColumnBuffer {
 public:
  explicit ColumnBuffer(int vars)
      : rows_(static_cast<size_t>(vars)), vals_(static_cast<size_t>(vars)) {}

  void add(int row, int var, double value) {
    rows_[static_cast<size_t>(var)].push_back(row);
    vals_[static_cast<size_t>(var)].push_back(value);
  }

  /// Append variable \p var to \p model with its buffered column.
  void flush(lp::Model& model, int var, double lb, double ub, double obj,
             std::string name = {}) {
    model.add_column(lb, ub, obj, rows_[static_cast<size_t>(var)],
                     vals_[static_cast<size_t>(var)], std::move(name));
  }

 private:
  std::vector<std::vector<int>> rows_;
  std::vector<std::vector<double>> vals_;
};

/// Build and solve the single-source formulation with the given edge-load
/// aggregation.
FlowSolution solve_single_source(const MulticastProblem& problem,
                                 EdgeAggregation aggregation,
                                 const FormulationOptions& options) {
  FlowSolution out;
  const Digraph& g = problem.graph;
  const int E = g.edge_count();
  const int T = problem.target_count();
  if (T == 0) {
    out.status = lp::SolveStatus::Optimal;
    out.period = 0.0;
    out.edge_load.assign(static_cast<size_t>(E), 0.0);
    return out;
  }
  if (!problem.feasible()) {
    out.status = lp::SolveStatus::Infeasible;
    return out;
  }

  VarLayout layout{T, E};
  lp::Model model(lp::Sense::Minimize);
  ColumnBuffer cols(layout.period() + 1);

  // (1) full message leaves the source; (2) full message reaches target;
  // (3) conservation elsewhere.
  for (int t = 0; t < T; ++t) {
    NodeId tv = problem.targets[static_cast<size_t>(t)];
    int r1 = model.add_row_eq(1.0);
    for (EdgeId e : g.out_edges(problem.source)) {
      cols.add(r1, layout.x(t, e), 1.0);
    }
    int r2 = model.add_row_eq(1.0);
    for (EdgeId e : g.in_edges(tv)) {
      cols.add(r2, layout.x(t, e), 1.0);
    }
    for (NodeId j = 0; j < g.node_count(); ++j) {
      if (j == problem.source || j == tv) continue;
      int r = model.add_row_eq(0.0);
      for (EdgeId e : g.out_edges(j)) cols.add(r, layout.x(t, e), 1.0);
      for (EdgeId e : g.in_edges(j)) cols.add(r, layout.x(t, e), -1.0);
    }
  }

  // Edge-load aggregation: (10') n_e >= x_{t,e}  or  (10) n_e = sum_t x.
  if (aggregation == EdgeAggregation::Max) {
    for (int t = 0; t < T; ++t) {
      for (int e = 0; e < E; ++e) {
        int r = model.add_row_ge(0.0);
        cols.add(r, layout.n(e), 1.0);
        cols.add(r, layout.x(t, e), -1.0);
      }
    }
  } else {
    for (int e = 0; e < E; ++e) {
      int r = model.add_row_eq(0.0);
      cols.add(r, layout.n(e), 1.0);
      for (int t = 0; t < T; ++t) cols.add(r, layout.x(t, e), -1.0);
    }
  }

  // (4,7) edge occupation; (5,8) in-ports; (6,9) out-ports.
  for (int e = 0; e < E; ++e) {
    int r = model.add_row_ge(0.0);
    cols.add(r, layout.period(), 1.0);
    cols.add(r, layout.n(e), -g.edge(e).cost);
  }
  for (NodeId j = 0; j < g.node_count(); ++j) {
    int rin = model.add_row_ge(0.0);
    cols.add(rin, layout.period(), 1.0);
    for (EdgeId e : g.in_edges(j)) {
      cols.add(rin, layout.n(e), -g.edge(e).cost);
    }
    int rout = model.add_row_ge(0.0);
    cols.add(rout, layout.period(), 1.0);
    for (EdgeId e : g.out_edges(j)) {
      cols.add(rout, layout.n(e), -g.edge(e).cost);
    }
  }

  // x columns, then n columns, then T*. Flow into the source and flow
  // out of a commodity's own target is pinned to zero: the constraints
  // (1,2,3) alone would admit "bounce" solutions (one unit shipped to a
  // neighbour and straight back satisfies the emission row; a target can
  // likewise feed its own inflow through a local 2-cycle) that skip the
  // intermediate path entirely and underestimate the period.
  for (int t = 0; t < T; ++t) {
    NodeId tv = problem.targets[static_cast<size_t>(t)];
    for (int e = 0; e < E; ++e) {
      const Edge& edge = g.edge(e);
      bool banned = edge.to == problem.source || edge.from == tv;
      cols.flush(model, layout.x(t, e), 0.0, banned ? 0.0 : lp::kInf, 0.0);
    }
  }
  for (int e = 0; e < E; ++e) {
    cols.flush(model, layout.n(e), 0.0, lp::kInf, 0.0);
  }
  cols.flush(model, layout.period(), 0.0, lp::kInf, 1.0, "T");

  lp::Solution sol = lp::solve(model, options.solver);
  out.status = sol.status;
  out.iterations = sol.iterations;
  if (!sol.optimal()) return out;
  out.period = sol.objective;
  out.x.assign(static_cast<size_t>(T),
               std::vector<double>(static_cast<size_t>(E), 0.0));
  out.edge_load.assign(static_cast<size_t>(E), 0.0);
  for (int t = 0; t < T; ++t) {
    for (int e = 0; e < E; ++e) {
      out.x[static_cast<size_t>(t)][static_cast<size_t>(e)] =
          sol.x[static_cast<size_t>(layout.x(t, e))];
    }
  }
  for (int e = 0; e < E; ++e) {
    out.edge_load[static_cast<size_t>(e)] =
        sol.x[static_cast<size_t>(layout.n(e))];
  }
  return out;
}

}  // namespace

double FlowSolution::node_inflow(const Digraph& g, NodeId m) const {
  double total = 0.0;
  for (const auto& xt : x) {
    for (EdgeId e : g.in_edges(m)) total += xt[static_cast<size_t>(e)];
  }
  return total;
}

FlowSolution solve_multicast_lb(const MulticastProblem& problem,
                                const FormulationOptions& options) {
  return solve_single_source(problem, EdgeAggregation::Max, options);
}

FlowSolution solve_multicast_ub(const MulticastProblem& problem,
                                const FormulationOptions& options) {
  return solve_single_source(problem, EdgeAggregation::Sum, options);
}

FlowSolution solve_broadcast_eb(const Digraph& graph, NodeId source,
                                const FormulationOptions& options) {
  MulticastProblem broadcast(graph, source, {});
  return solve_single_source(broadcast.as_broadcast(), EdgeAggregation::Max,
                             options);
}

std::optional<double> broadcast_eb_period(const Digraph& graph, NodeId source,
                                          std::span<const char> keep,
                                          const FormulationOptions& options) {
  assert(keep[static_cast<size_t>(source)]);
  SubgraphResult sub = graph.induced_subgraph(keep);
  NodeId sub_source = sub.old_to_new[static_cast<size_t>(source)];
  // Paper convention: if some kept node is unreachable, EB = +infinity.
  std::vector<char> all(static_cast<size_t>(sub.graph.node_count()), 1);
  if (!sub.graph.reaches_all(sub_source, all)) return std::nullopt;
  FlowSolution sol = solve_broadcast_eb(sub.graph, sub_source, options);
  if (!sol.ok()) return std::nullopt;
  return sol.period;
}

double MultiSourceSolution::node_inflow(const Digraph& g, NodeId m) const {
  double total = 0.0;
  for (const auto& flow : flows) {
    for (EdgeId e : g.in_edges(m)) total += flow[static_cast<size_t>(e)];
  }
  return total;
}

MultiSourceSolution solve_multisource_ub(const MulticastProblem& problem,
                                         std::span<const NodeId> sources,
                                         const FormulationOptions& options) {
  MultiSourceSolution out;
  const Digraph& g = problem.graph;
  const int E = g.edge_count();
  assert(!sources.empty() && sources[0] == problem.source);

  std::vector<char> is_source(static_cast<size_t>(g.node_count()), 0);
  for (NodeId s : sources) is_source[static_cast<size_t>(s)] = 1;

  // Commodities: (origin o, dest s_i) for o < i — intermediate sources must
  // acquire the message from strictly earlier sources — and (o, t) for every
  // origin o and every target t that is not itself a source.
  for (size_t i = 1; i < sources.size(); ++i) {
    for (size_t o = 0; o < i; ++o) {
      out.commodities.push_back({static_cast<int>(o), sources[i]});
    }
  }
  for (NodeId t : problem.targets) {
    if (is_source[static_cast<size_t>(t)]) continue;
    for (size_t o = 0; o < sources.size(); ++o) {
      out.commodities.push_back({static_cast<int>(o), t});
    }
  }
  const int K = static_cast<int>(out.commodities.size());
  if (K == 0) {
    out.status = lp::SolveStatus::Optimal;
    out.period = 0.0;
    return out;
  }

  lp::Model model(lp::Sense::Minimize);
  auto xvar = [&](int k, int e) { return k * E + e; };
  const int nvar0 = K * E;
  const int period_var = nvar0 + E;
  ColumnBuffer cols(period_var + 1);

  // (1)/(1b) and (2)/(2b): for each destination, one full unit is emitted
  // by its allowed origins and one full unit arrives. Both row families are
  // needed: dropping the emission rows would let a destination satisfy its
  // inflow with a local cycle it feeds itself.
  {
    std::vector<std::vector<int>> by_dest;
    std::vector<NodeId> dests;
    for (int k = 0; k < K; ++k) {
      NodeId d = out.commodities[static_cast<size_t>(k)].dest;
      size_t idx = 0;
      for (; idx < dests.size(); ++idx) {
        if (dests[idx] == d) break;
      }
      if (idx == dests.size()) {
        dests.push_back(d);
        by_dest.emplace_back();
      }
      by_dest[idx].push_back(k);
    }
    for (size_t di = 0; di < dests.size(); ++di) {
      int remit = model.add_row_eq(1.0);
      int rrecv = model.add_row_eq(1.0);
      for (int k : by_dest[di]) {
        NodeId origin = sources[static_cast<size_t>(
            out.commodities[static_cast<size_t>(k)].origin)];
        for (EdgeId e : g.out_edges(origin)) {
          cols.add(remit, xvar(k, e), 1.0);
        }
        for (EdgeId e : g.in_edges(dests[di])) {
          cols.add(rrecv, xvar(k, e), 1.0);
        }
      }
    }
  }

  // (3)/(3b): per-commodity conservation away from origin and destination.
  for (int k = 0; k < K; ++k) {
    const auto& commodity = out.commodities[static_cast<size_t>(k)];
    NodeId origin = sources[static_cast<size_t>(commodity.origin)];
    for (NodeId j = 0; j < g.node_count(); ++j) {
      if (j == origin || j == commodity.dest) continue;
      int r = model.add_row_eq(0.0);
      for (EdgeId e : g.out_edges(j)) cols.add(r, xvar(k, e), 1.0);
      for (EdgeId e : g.in_edges(j)) cols.add(r, xvar(k, e), -1.0);
    }
  }

  // (10): scatter aggregation n_e = sum over commodities.
  for (int e = 0; e < E; ++e) {
    int r = model.add_row_eq(0.0);
    cols.add(r, nvar0 + e, 1.0);
    for (int k = 0; k < K; ++k) cols.add(r, xvar(k, e), -1.0);
  }
  // (7,8,9): edge and port occupation under T*.
  for (int e = 0; e < E; ++e) {
    int r = model.add_row_ge(0.0);
    cols.add(r, period_var, 1.0);
    cols.add(r, nvar0 + e, -g.edge(e).cost);
  }
  for (NodeId j = 0; j < g.node_count(); ++j) {
    int rin = model.add_row_ge(0.0);
    cols.add(rin, period_var, 1.0);
    for (EdgeId e : g.in_edges(j)) {
      cols.add(rin, nvar0 + e, -g.edge(e).cost);
    }
    int rout = model.add_row_ge(0.0);
    cols.add(rout, period_var, 1.0);
    for (EdgeId e : g.out_edges(j)) {
      cols.add(rout, nvar0 + e, -g.edge(e).cost);
    }
  }

  // x columns k-major, then n, then T*. As in the single-source programs,
  // pin flow into a commodity's origin and out of its destination to zero
  // to exclude "bounce" pseudo-flows.
  for (int k = 0; k < K; ++k) {
    NodeId origin = sources[static_cast<size_t>(
        out.commodities[static_cast<size_t>(k)].origin)];
    NodeId dest = out.commodities[static_cast<size_t>(k)].dest;
    for (int e = 0; e < E; ++e) {
      const Edge& edge = g.edge(e);
      bool banned = edge.to == origin || edge.from == dest;
      cols.flush(model, xvar(k, e), 0.0, banned ? 0.0 : lp::kInf, 0.0);
    }
  }
  for (int e = 0; e < E; ++e) {
    cols.flush(model, nvar0 + e, 0.0, lp::kInf, 0.0);
  }
  cols.flush(model, period_var, 0.0, lp::kInf, 1.0, "T");

  lp::Solution sol = lp::solve(model, options.solver);
  out.status = sol.status;
  out.iterations = sol.iterations;
  if (!sol.optimal()) return out;
  out.period = sol.objective;
  out.flows.assign(static_cast<size_t>(K),
                   std::vector<double>(static_cast<size_t>(E), 0.0));
  for (int k = 0; k < K; ++k) {
    for (int e = 0; e < E; ++e) {
      out.flows[static_cast<size_t>(k)][static_cast<size_t>(e)] =
          sol.x[static_cast<size_t>(xvar(k, e))];
    }
  }
  return out;
}

LpValue multisource_ub_value(const MulticastProblem& problem,
                             std::span<const NodeId> sources,
                             const FormulationOptions& options) {
  LpValue out;
  const Digraph& g = problem.graph;
  const int N = g.node_count();
  const int E = g.edge_count();
  const int S = static_cast<int>(sources.size());
  assert(!sources.empty() && sources[0] == problem.source);

  // Destination d may be served by origins 0..limit[d]-1: s_i by the
  // sources before it, a target outside S by every source. 0 = not a
  // destination.
  std::vector<int> limit(static_cast<size_t>(N), 0);
  for (NodeId t : problem.targets) limit[static_cast<size_t>(t)] = S;
  for (int i = 0; i < S; ++i) {
    limit[static_cast<size_t>(sources[static_cast<size_t>(i)])] = i;
  }
  // Variables: F_{o,e} o-major, then y_{o,d} per destination, then T*.
  std::vector<int> split0(static_cast<size_t>(N), -1);  // y_{0,d}
  int vars = S * E;
  for (NodeId d = 0; d < N; ++d) {
    if (limit[static_cast<size_t>(d)] == 0) continue;
    split0[static_cast<size_t>(d)] = vars;
    vars += limit[static_cast<size_t>(d)];
  }
  if (vars == S * E) {  // no destination: nothing to ship
    out.status = lp::SolveStatus::Optimal;
    return out;
  }
  auto fvar = [&](int o, int e) { return o * E + e; };
  const int period_var = vars;
  lp::Model model(lp::Sense::Minimize);
  ColumnBuffer cols(period_var + 1);

  // Every destination receives one full unit, split over its origins.
  for (NodeId d = 0; d < N; ++d) {
    const int y0 = split0[static_cast<size_t>(d)];
    if (y0 < 0) continue;
    int r = model.add_row_eq(1.0);
    for (int o = 0; o < limit[static_cast<size_t>(d)]; ++o) {
      cols.add(r, y0 + o, 1.0);
    }
  }
  // Net-flow conservation of F_o away from s_o: what stays at j is y_{o,j}.
  for (int o = 0; o < S; ++o) {
    const NodeId origin = sources[static_cast<size_t>(o)];
    for (NodeId j = 0; j < N; ++j) {
      if (j == origin) continue;
      int r = model.add_row_eq(0.0);
      for (EdgeId e : g.in_edges(j)) cols.add(r, fvar(o, e), 1.0);
      for (EdgeId e : g.out_edges(j)) cols.add(r, fvar(o, e), -1.0);
      if (o < limit[static_cast<size_t>(j)]) {
        cols.add(r, split0[static_cast<size_t>(j)] + o, -1.0);
      }
    }
  }
  // (7,8,9) on the scatter load sum_o F_{o,e}.
  for (int e = 0; e < E; ++e) {
    int r = model.add_row_ge(0.0);
    cols.add(r, period_var, 1.0);
    for (int o = 0; o < S; ++o) cols.add(r, fvar(o, e), -g.edge(e).cost);
  }
  for (NodeId j = 0; j < N; ++j) {
    int rin = model.add_row_ge(0.0);
    cols.add(rin, period_var, 1.0);
    for (EdgeId e : g.in_edges(j)) {
      for (int o = 0; o < S; ++o) cols.add(rin, fvar(o, e), -g.edge(e).cost);
    }
    int rout = model.add_row_ge(0.0);
    cols.add(rout, period_var, 1.0);
    for (EdgeId e : g.out_edges(j)) {
      for (int o = 0; o < S; ++o) cols.add(rout, fvar(o, e), -g.edge(e).cost);
    }
  }

  for (int o = 0; o < S; ++o) {
    const NodeId origin = sources[static_cast<size_t>(o)];
    for (int e = 0; e < E; ++e) {
      const bool into_origin = g.edge(e).to == origin;
      cols.flush(model, fvar(o, e), 0.0, into_origin ? 0.0 : lp::kInf, 0.0);
    }
  }
  for (int v = S * E; v < period_var; ++v) {
    cols.flush(model, v, 0.0, lp::kInf, 0.0);
  }
  cols.flush(model, period_var, 0.0, lp::kInf, 1.0, "T");

  lp::Solution sol = lp::solve(model, options.solver);
  out.status = sol.status;
  out.iterations = sol.iterations;
  if (sol.optimal()) out.period = sol.objective;
  return out;
}

// ------------------------------------------------------ MaskedBroadcastEb --

// Only options.solver is consumed: the masked program is built here once
// and every later solve() is a bound-level mutation of it.
MaskedBroadcastEb::MaskedBroadcastEb(const Digraph& graph, NodeId source,
                                     const FormulationOptions& options)
    : graph_(&graph),
      source_(source),
      solver_(options.solver),
      inflow_(static_cast<size_t>(graph.node_count()), 0.0) {
  const Digraph& g = *graph_;
  const int E = g.edge_count();
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (v != source_) targets_.push_back(v);
  }
  const int T = static_cast<int>(targets_.size());

  // Layout mirrors solve_single_source with EdgeAggregation::Max:
  // x[t][e] blocks, then n[e], then T*. Static bans (flow back into the
  // source / out of a commodity's own target) are remembered so mask
  // updates never accidentally re-open them.
  lp::Model model(lp::Sense::Minimize);
  const int nvar0 = T * E;
  const int period_var = nvar0 + E;
  ColumnBuffer cols(period_var + 1);

  // (1) emission, (2) arrival, (3) conservation — per commodity.
  for (int t = 0; t < T; ++t) {
    NodeId tv = targets_[static_cast<size_t>(t)];
    int r1 = model.add_row_eq(1.0);
    for (EdgeId e : g.out_edges(source_)) {
      cols.add(r1, t * E + e, 1.0);
    }
    int r2 = model.add_row_eq(1.0);
    for (EdgeId e : g.in_edges(tv)) {
      cols.add(r2, t * E + e, 1.0);
    }
    emission_row_.push_back(r1);
    arrival_row_.push_back(r2);
    for (NodeId j = 0; j < g.node_count(); ++j) {
      if (j == source_ || j == tv) continue;
      int r = model.add_row_eq(0.0);
      for (EdgeId e : g.out_edges(j)) cols.add(r, t * E + e, 1.0);
      for (EdgeId e : g.in_edges(j)) cols.add(r, t * E + e, -1.0);
    }
  }
  // (10') max aggregation: n_e >= x_{t,e}.
  for (int t = 0; t < T; ++t) {
    for (int e = 0; e < E; ++e) {
      int r = model.add_row_ge(0.0);
      cols.add(r, nvar0 + e, 1.0);
      cols.add(r, t * E + e, -1.0);
    }
  }
  // (4,7) edge occupation; (5,8) in-ports; (6,9) out-ports.
  for (int e = 0; e < E; ++e) {
    int r = model.add_row_ge(0.0);
    cols.add(r, period_var, 1.0);
    cols.add(r, nvar0 + e, -g.edge(e).cost);
  }
  for (NodeId j = 0; j < g.node_count(); ++j) {
    int rin = model.add_row_ge(0.0);
    cols.add(rin, period_var, 1.0);
    for (EdgeId e : g.in_edges(j)) {
      cols.add(rin, nvar0 + e, -g.edge(e).cost);
    }
    int rout = model.add_row_ge(0.0);
    cols.add(rout, period_var, 1.0);
    for (EdgeId e : g.out_edges(j)) {
      cols.add(rout, nvar0 + e, -g.edge(e).cost);
    }
  }

  banned_.assign(static_cast<size_t>(T) * static_cast<size_t>(E), 0);
  for (int t = 0; t < T; ++t) {
    NodeId tv = targets_[static_cast<size_t>(t)];
    for (int e = 0; e < E; ++e) {
      const Edge& edge = g.edge(e);
      bool banned = edge.to == source_ || edge.from == tv;
      banned_[static_cast<size_t>(t) * static_cast<size_t>(E) +
              static_cast<size_t>(e)] = banned ? 1 : 0;
      cols.flush(model, t * E + e, 0.0, banned ? 0.0 : lp::kInf, 0.0);
    }
  }
  for (int e = 0; e < E; ++e) {
    cols.flush(model, nvar0 + e, 0.0, lp::kInf, 0.0);
  }
  cols.flush(model, period_var, 0.0, lp::kInf, 1.0, "T");
  model_ = lp::ResolvableModel(std::move(model));
}

std::optional<double> MaskedBroadcastEb::solve(std::span<const char> keep) {
  const Digraph& g = *graph_;
  const int E = g.edge_count();
  const int T = static_cast<int>(targets_.size());
  assert(static_cast<int>(keep.size()) == g.node_count());
  assert(keep[static_cast<size_t>(source_)]);

  // Paper convention: a kept node unreachable inside the mask means the
  // broadcast period is +infinity — no LP is solved.
  if (!g.reaches_all(source_, keep, keep)) {
    last_status_ = lp::SolveStatus::Optimal;
    return std::nullopt;
  }

  // Data edits only: masked commodities become 0-rows with a pinned
  // variable block; masked edges pin their x and n variables.
  const int nvar0 = T * E;
  std::vector<char> edge_kept(static_cast<size_t>(E));
  for (int e = 0; e < E; ++e) {
    const Edge& edge = g.edge(e);
    edge_kept[static_cast<size_t>(e)] =
        keep[static_cast<size_t>(edge.from)] &&
        keep[static_cast<size_t>(edge.to)];
    model_.set_var_bounds(nvar0 + e, 0.0,
                          edge_kept[static_cast<size_t>(e)] ? lp::kInf : 0.0);
  }
  for (int t = 0; t < T; ++t) {
    NodeId tv = targets_[static_cast<size_t>(t)];
    const bool t_kept = keep[static_cast<size_t>(tv)] != 0;
    for (int e = 0; e < E; ++e) {
      auto be = static_cast<size_t>(t) * static_cast<size_t>(E) +
                static_cast<size_t>(e);
      bool open = t_kept && edge_kept[static_cast<size_t>(e)] && !banned_[be];
      model_.set_var_bounds(t * E + e, 0.0, open ? lp::kInf : 0.0);
    }
    double rhs = t_kept ? 1.0 : 0.0;
    model_.set_row_bounds(emission_row_[static_cast<size_t>(t)], rhs, rhs);
    model_.set_row_bounds(arrival_row_[static_cast<size_t>(t)], rhs, rhs);
  }

  if (!warm_) solver_.reset();
  lp::Solution sol = solver_.solve(model_);
  last_status_ = sol.status;
  if (!sol.optimal()) return std::nullopt;

  std::fill(inflow_.begin(), inflow_.end(), 0.0);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (!keep[static_cast<size_t>(v)]) continue;
    double total = 0.0;
    for (int t = 0; t < T; ++t) {
      for (EdgeId e : g.in_edges(v)) {
        total += sol.x[static_cast<size_t>(t * E + e)];
      }
    }
    inflow_[static_cast<size_t>(v)] = total;
  }
  return sol.objective;
}

}  // namespace pmcast::core

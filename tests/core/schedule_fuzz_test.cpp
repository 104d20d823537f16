/// Fuzz-style property tests of the realisation pipeline: random platforms,
/// random multicast trees and random rates must always produce schedules
/// that pass static one-port validation and replay in the simulator at the
/// predicted throughput. This closes the loop between the combinatorial
/// layer (trees), the orchestration layer (colouring) and the verification
/// layer (simulator) under inputs none of them were hand-tuned for.

#include <gtest/gtest.h>

#include "graph/rng.hpp"
#include "pmcast/core.hpp"

namespace pmcast::core {
namespace {

struct FuzzCase {
  MulticastProblem problem;
  WeightedTreeSet set;
};

/// Random strongly-ish connected platform plus 1..3 random arborescences
/// spanning a random target set, with rates scaled to a feasible load.
FuzzCase make_case(std::uint64_t seed) {
  Rng rng(seed * 48271 + 3);
  int n = static_cast<int>(rng.uniform_int(4, 9));
  Digraph g(n);
  // Random ring + chords guarantees reachability from node 0.
  for (int v = 0; v < n; ++v) {
    g.add_edge(v, (v + 1) % n, rng.uniform_real(0.5, 2.0));
  }
  int chords = static_cast<int>(rng.uniform_int(1, 2 * n));
  for (int c = 0; c < chords; ++c) {
    auto u = static_cast<NodeId>(rng.uniform(static_cast<uint64_t>(n)));
    auto v = static_cast<NodeId>(rng.uniform(static_cast<uint64_t>(n)));
    if (u != v) g.add_edge(u, v, rng.uniform_real(0.5, 2.0));
  }
  std::vector<NodeId> targets;
  for (int v = 1; v < n; ++v) {
    if (rng.bernoulli(0.6)) targets.push_back(v);
  }
  if (targets.empty()) targets.push_back(1);
  FuzzCase fc{MulticastProblem(g, 0, targets), {}};

  int trees = static_cast<int>(rng.uniform_int(1, 3));
  for (int k = 0; k < trees; ++k) {
    // Random spanning arborescence from node 0 by random incremental
    // attachment, then pruned to target-serving branches.
    MulticastTree tree;
    tree.source = 0;
    std::vector<char> reached(static_cast<size_t>(n), 0);
    reached[0] = 1;
    std::vector<EdgeId> parent(static_cast<size_t>(n), kInvalidEdge);
    bool progress = true;
    while (progress) {
      progress = false;
      std::vector<EdgeId> frontier;
      for (EdgeId e = 0; e < fc.problem.graph.edge_count(); ++e) {
        const Edge& edge = fc.problem.graph.edge(e);
        if (reached[static_cast<size_t>(edge.from)] &&
            !reached[static_cast<size_t>(edge.to)]) {
          frontier.push_back(e);
        }
      }
      if (!frontier.empty()) {
        EdgeId pick = frontier[rng.uniform(frontier.size())];
        parent[static_cast<size_t>(fc.problem.graph.edge(pick).to)] = pick;
        reached[static_cast<size_t>(fc.problem.graph.edge(pick).to)] = 1;
        progress = true;
      }
    }
    // Keep only edges on paths from the source to targets.
    std::vector<char> needed(static_cast<size_t>(n), 0);
    for (NodeId t : fc.problem.targets) {
      NodeId cur = t;
      while (cur != 0 && !needed[static_cast<size_t>(cur)]) {
        needed[static_cast<size_t>(cur)] = 1;
        cur = fc.problem.graph.edge(parent[static_cast<size_t>(cur)]).from;
      }
    }
    for (NodeId v = 1; v < n; ++v) {
      if (needed[static_cast<size_t>(v)]) {
        tree.edges.push_back(parent[static_cast<size_t>(v)]);
      }
    }
    fc.set.trees.push_back(std::move(tree));
  }
  // Random positive rates, then scale so the port load is comfortably <= 1.
  for (size_t k = 0; k < fc.set.trees.size(); ++k) {
    fc.set.rates.push_back(rng.uniform_real(0.1, 1.0));
  }
  double load = tree_set_port_load(fc.problem.graph, fc.set);
  for (double& r : fc.set.rates) r *= 0.9 / load;
  return fc;
}

class ScheduleFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScheduleFuzz, RandomTreeSetsRealiseAndSimulate) {
  FuzzCase fc = make_case(GetParam());
  for (const MulticastTree& tree : fc.set.trees) {
    ASSERT_TRUE(validate_tree(fc.problem.graph, tree).empty())
        << "seed " << GetParam();
    ASSERT_TRUE(tree_spans(fc.problem.graph, tree, fc.problem.targets))
        << "seed " << GetParam();
  }
  ASSERT_LE(tree_set_port_load(fc.problem.graph, fc.set), 1.0 + 1e-9);

  TreeSchedule ts = build_tree_schedule(fc.problem.graph, fc.set,
                                        fc.problem.targets);
  ASSERT_TRUE(ts.schedule.ok) << "seed " << GetParam();
  EXPECT_TRUE(sched::validate_schedule(ts.schedule,
                                       fc.problem.graph.node_count())
                  .empty())
      << "seed " << GetParam();
  auto report = sched::simulate(ts.schedule, ts.streams,
                                fc.problem.graph.node_count(), 24);
  ASSERT_TRUE(report.ok) << report.error << " seed " << GetParam();
  EXPECT_NEAR(report.measured_throughput, ts.throughput,
              1e-6 * std::max(1.0, ts.throughput))
      << "seed " << GetParam();
  // Rationalisation error bound from the header.
  EXPECT_NEAR(ts.throughput, fc.set.throughput(),
              static_cast<double>(fc.set.trees.size()) / (2.0 * 2520.0) + 1e-9)
      << "seed " << GetParam();
}

TEST_P(ScheduleFuzz, CertificateVerifierAgrees) {
  FuzzCase fc = make_case(GetParam() + 1000);
  auto result = verify_certificate(fc.problem, fc.set, /*simulate=*/12);
  EXPECT_TRUE(result.valid) << result.reason << " seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleFuzz,
                         ::testing::Range<std::uint64_t>(1, 26));

}  // namespace
}  // namespace pmcast::core

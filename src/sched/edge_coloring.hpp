#pragma once
/// \file edge_coloring.hpp
/// Weighted bipartite edge colouring (the weighted König theorem).
///
/// The paper's feasibility argument (proofs of Theorems 1/3) is: the
/// communications of a period form a weighted bipartite multigraph between
/// "sender ports" and "receiver ports"; they can be orchestrated without
/// violating the one-port model within T = max port load, by decomposing the
/// weights into a polynomial number of matchings. This module implements
/// that decomposition constructively:
///   1. regularise the bipartite weighted graph (pad loads with dummy edges
///      so every port's total equals the maximum load M);
///   2. repeatedly extract a perfect matching on the support (Hopcroft–Karp)
///      and peel off the minimum matched weight.
/// Every step zeroes at least one edge, so at most |E| + 2·|V| matchings are
/// produced and the total peeled duration is exactly M.
///
/// The input may be a multigraph, but build_schedule hands it a simple
/// graph: one communication per (sender, receiver) pair, whose duration is
/// the sum of the pair's transfers.

#include <cstddef>
#include <span>
#include <vector>

#include "graph/digraph.hpp"

namespace pmcast::sched {

/// One communication to orchestrate: \p sender busy-sends to \p receiver for
/// \p duration time units within the period.
struct Communication {
  NodeId sender = kInvalidNode;
  NodeId receiver = kInvalidNode;
  double duration = 0.0;
};

/// A parallel communication step: all listed communications run
/// simultaneously for \p length time units starting at \p start.
/// No two communications in a slot share a sender or a receiver.
struct ColorSlot {
  double start = 0.0;
  double length = 0.0;
  std::vector<int> comm_indices;  ///< indices into the input communications
};

struct ColoringResult {
  bool ok = false;
  /// Total schedule length: the max port load on success, plus at most a
  /// floating-point-dust overshoot when input weights break exact port
  /// regularity (see color_communications).
  double makespan = 0.0;
  std::vector<ColorSlot> slots;
};

/// Maximum over all nodes of total send time and total receive time — the
/// paper's period bound T = max_i max(send_i, recv_i).
double max_port_load(std::span<const Communication> comms, int node_count);

/// Decompose \p comms into slots of simultaneous one-port-safe transfers.
/// On success, sum of slot lengths == max_port_load(comms) (within fp noise)
/// and every communication's slot time adds up to its duration. Slots come
/// out in increasing start order.
ColoringResult color_communications(std::span<const Communication> comms,
                                    int node_count);

/// The decomposition's legitimate dust on one communication's assigned
/// time: weights within a relative 1e-12 of \p makespan are snapped or
/// skipped, at most once per peeling round, over at most
/// \p communications + 2 * \p node_count + 8 rounds. Validators add it to
/// their per-communication tolerance.
double coloring_dust_floor(double makespan, std::size_t communications,
                           int node_count);

/// Check the one-port validity of a coloring against its communications
/// (used by tests and by the simulator's static verification pass).
/// \p tol scales with the magnitude of what it checks: slot positions use
/// tol * max(1, makespan); each communication's total assigned time uses
/// tol * max(1, its own duration) plus a makespan-relative dust floor, so
/// heterogeneous platforms whose rates span orders of magnitude validate
/// with magnitude-appropriate slack and a dropped small communication in
/// a large schedule still fails.
bool validate_coloring(const ColoringResult& result,
                       std::span<const Communication> comms, int node_count,
                       double tol = 1e-6);

}  // namespace pmcast::sched

#include "sched/edge_coloring.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>

namespace pmcast::sched {
namespace {

/// Relative dust tolerance: comparisons inside the decomposition use
/// kRelEps * M, where M is the max port load of the instance. A fixed
/// absolute epsilon mis-classifies on strongly heterogeneous platforms —
/// with rates around 1e-9 it swallows real communications whole, with
/// rates around 1e+9 it treats accumulated fp dust as real residual load.
constexpr double kRelEps = 1e-12;

}  // namespace

double max_port_load(std::span<const Communication> comms, int node_count) {
  std::vector<double> send(static_cast<size_t>(node_count), 0.0);
  std::vector<double> recv(static_cast<size_t>(node_count), 0.0);
  for (const Communication& c : comms) {
    send[static_cast<size_t>(c.sender)] += c.duration;
    recv[static_cast<size_t>(c.receiver)] += c.duration;
  }
  double load = 0.0;
  for (int v = 0; v < node_count; ++v) {
    load = std::max(load, send[static_cast<size_t>(v)]);
    load = std::max(load, recv[static_cast<size_t>(v)]);
  }
  return load;
}

ColoringResult color_communications(std::span<const Communication> comms,
                                    int node_count) {
  ColoringResult result;
  const double M = max_port_load(comms, node_count);
  result.makespan = M;
  if (!(M > 0.0)) {
    result.ok = true;
    return result;
  }
  // All dust thresholds below scale with the instance's own magnitude.
  const double kEps = kRelEps * M;

  // Working edge list: real communications first, then dummy padding edges
  // (payload -1) that regularise every port load to exactly M.
  struct WorkEdge {
    int sender;
    int receiver;
    double weight;
    int payload;  // index into comms, or -1 for dummy
  };
  std::vector<WorkEdge> edges;
  edges.reserve(comms.size() + 2 * static_cast<size_t>(node_count));
  std::vector<double> send(static_cast<size_t>(node_count), 0.0);
  std::vector<double> recv(static_cast<size_t>(node_count), 0.0);
  for (size_t i = 0; i < comms.size(); ++i) {
    const Communication& c = comms[i];
    if (c.duration <= kEps) continue;
    edges.push_back({c.sender, c.receiver, c.duration, static_cast<int>(i)});
    send[static_cast<size_t>(c.sender)] += c.duration;
    recv[static_cast<size_t>(c.receiver)] += c.duration;
  }

  // Regularise: greedily connect sender deficits to receiver deficits.
  // Total sender deficit may differ from total receiver deficit, so pad with
  // virtual ports (ids >= node_count) until both sides sum to the same value.
  std::vector<std::pair<int, double>> sdef, rdef;
  double total_sdef = 0.0, total_rdef = 0.0;
  for (int v = 0; v < node_count; ++v) {
    double ds = M - send[static_cast<size_t>(v)];
    double dr = M - recv[static_cast<size_t>(v)];
    if (ds > kEps) {
      sdef.push_back({v, ds});
      total_sdef += ds;
    }
    if (dr > kEps) {
      rdef.push_back({v, dr});
      total_rdef += dr;
    }
  }
  int virtual_ports = node_count;
  while (total_sdef + kEps < total_rdef) {
    double d = std::min(M, total_rdef - total_sdef);
    sdef.push_back({virtual_ports++, d});
    total_sdef += d;
  }
  while (total_rdef + kEps < total_sdef) {
    double d = std::min(M, total_sdef - total_rdef);
    rdef.push_back({virtual_ports++, d});
    total_rdef += d;
  }
  {
    size_t si = 0, ri = 0;
    while (si < sdef.size() && ri < rdef.size()) {
      double d = std::min(sdef[si].second, rdef[ri].second);
      if (d > kEps) {
        edges.push_back({sdef[si].first, rdef[ri].first, d, -1});
      }
      sdef[si].second -= d;
      rdef[ri].second -= d;
      if (sdef[si].second <= kEps) ++si;
      if (rdef[ri].second <= kEps) ++ri;
    }
  }

  // Compact port ids to the ports that carry load (every compacted port has
  // total load exactly M throughout the peeling).
  std::vector<int> sender_id(static_cast<size_t>(virtual_ports), -1);
  std::vector<int> receiver_id(static_cast<size_t>(virtual_ports), -1);
  int n_send = 0, n_recv = 0;
  for (const WorkEdge& e : edges) {
    if (sender_id[static_cast<size_t>(e.sender)] < 0) {
      sender_id[static_cast<size_t>(e.sender)] = n_send++;
    }
    if (receiver_id[static_cast<size_t>(e.receiver)] < 0) {
      receiver_id[static_cast<size_t>(e.receiver)] = n_recv++;
    }
  }

  // Peel perfect matchings, maintaining ONE maximum matching incrementally
  // across rounds instead of re-running Kuhn from scratch each time. A
  // round only zeroes the edges it peeled to dust, so re-augmenting from
  // the left ports those edges freed restores maximality (Kuhn's lemma: a
  // left vertex with no augmenting path now never gains one later). The
  // from-scratch rebuild made the decomposition O(rounds * V * E) — hours
  // on the ~20k-communication certificates column generation emits at
  // n = 1000; this is O(rounds * E) in the same worst case and seconds in
  // practice.
  std::vector<std::vector<int>> adj(static_cast<size_t>(n_send));
  for (size_t i = 0; i < edges.size(); ++i) {
    adj[static_cast<size_t>(sender_id[static_cast<size_t>(
        edges[i].sender)])].push_back(static_cast<int>(i));
  }
  std::vector<int> match_left_edge(static_cast<size_t>(n_send), -1);
  std::vector<int> match_right(static_cast<size_t>(n_recv), -1);
  // visited[r] == epoch marks r as seen by the current augmentation; bumping
  // the epoch clears every mark at once instead of refilling the array.
  std::vector<std::size_t> visited(static_cast<size_t>(n_recv), 0);
  std::size_t epoch = 0;
  std::size_t live_real = 0;
  for (const WorkEdge& e : edges) {
    if (e.payload >= 0 && e.weight > kEps) ++live_real;
  }

  // Iterative augmenting-path search (the recursive form overflows the
  // stack on thousand-port instances): classic Kuhn over live edges.
  // via_edge[d] is the edge through which stack[d-1] descended into
  // stack[d]'s subtree; on success every ancestor re-matches along it.
  std::vector<int> stack, arc_pos, via_edge;
  auto try_augment = [&](int root) -> bool {
    stack.assign(1, root);
    arc_pos.assign(1, 0);
    via_edge.assign(1, -1);
    while (!stack.empty()) {
      const size_t d = stack.size() - 1;
      const int l = stack[d];
      bool descended = false;
      const auto& arcs = adj[static_cast<size_t>(l)];
      while (arc_pos[d] < static_cast<int>(arcs.size())) {
        const int ei = arcs[static_cast<size_t>(arc_pos[d]++)];
        const WorkEdge& e = edges[static_cast<size_t>(ei)];
        if (e.weight <= kEps) continue;
        const int r = receiver_id[static_cast<size_t>(e.receiver)];
        if (visited[static_cast<size_t>(r)] == epoch) continue;
        visited[static_cast<size_t>(r)] = epoch;
        if (match_right[static_cast<size_t>(r)] < 0) {
          match_right[static_cast<size_t>(r)] = l;
          match_left_edge[static_cast<size_t>(l)] = ei;
          for (size_t a = d; a > 0; --a) {
            const int ae = via_edge[a];
            const int ar = receiver_id[static_cast<size_t>(
                edges[static_cast<size_t>(ae)].receiver)];
            match_right[static_cast<size_t>(ar)] = stack[a - 1];
            match_left_edge[static_cast<size_t>(stack[a - 1])] = ae;
          }
          return true;
        }
        stack.push_back(match_right[static_cast<size_t>(r)]);
        arc_pos.push_back(0);
        via_edge.push_back(ei);
        descended = true;
        break;
      }
      if (descended) continue;
      stack.pop_back();
      arc_pos.pop_back();
      via_edge.pop_back();
    }
    return false;
  };

  double time_cursor = 0.0;
  double realised = M;  // grows past M only when dust strands weight
  const size_t max_rounds = edges.size() + 8;
  for (size_t round = 0; round < max_rounds; ++round) {
    if (live_real == 0) {
      result.ok = true;
      result.makespan = realised;
      return result;
    }
    // Restore maximality: one augmentation attempt per unmatched left.
    for (int l = 0; l < n_send; ++l) {
      if (match_left_edge[static_cast<size_t>(l)] >= 0) continue;
      bool has_live = false;
      for (int ei : adj[static_cast<size_t>(l)]) {
        if (edges[static_cast<size_t>(ei)].weight > kEps) {
          has_live = true;
          break;
        }
      }
      if (!has_live) continue;
      ++epoch;
      try_augment(l);
    }

    // Peel the minimum matched weight. On an exactly-regular weighted
    // graph the matching is perfect; floating-point dust can break
    // regularity and strand residual weight on a few ports, but a
    // *maximum* matching still zeroes at least one edge per round, so the
    // makespan overshoots M by at most the stranded dust (absorbed by the
    // schedule validators' tolerance).
    double delta = kInfinity;
    for (int l = 0; l < n_send; ++l) {
      const int ei = match_left_edge[static_cast<size_t>(l)];
      if (ei < 0) continue;
      delta = std::min(delta, edges[static_cast<size_t>(ei)].weight);
    }
    if (delta == kInfinity || delta <= kEps) {
      result.ok = false;
      return result;
    }
    ColorSlot slot;
    slot.start = time_cursor;
    slot.length = delta;
    for (int l = 0; l < n_send; ++l) {
      const int ei = match_left_edge[static_cast<size_t>(l)];
      if (ei < 0) continue;
      WorkEdge& e = edges[static_cast<size_t>(ei)];
      e.weight -= delta;
      if (e.payload >= 0) slot.comm_indices.push_back(e.payload);
      if (e.weight < kEps) {
        e.weight = 0.0;
        if (e.payload >= 0) --live_real;
        // Free both endpoints; the next round re-augments from here.
        match_left_edge[static_cast<size_t>(l)] = -1;
        match_right[static_cast<size_t>(
            receiver_id[static_cast<size_t>(e.receiver)])] = -1;
      }
    }
    if (!slot.comm_indices.empty()) {
      realised = std::max(realised, slot.start + slot.length);
      result.slots.push_back(std::move(slot));
    }
    time_cursor += delta;
  }
  result.ok = false;  // should be unreachable
  return result;
}

double coloring_dust_floor(double makespan, std::size_t communications,
                           int node_count) {
  return kRelEps * makespan *
         static_cast<double>(communications +
                             2 * static_cast<size_t>(node_count) + 8);
}

bool validate_coloring(const ColoringResult& result,
                       std::span<const Communication> comms, int node_count,
                       double tol) {
  if (!result.ok) return false;
  // Slot positions live on the makespan's scale, so their tolerance grows
  // with it (never below the caller's absolute floor, keeping O(1)-scale
  // behaviour unchanged): a fixed absolute tol wrongly rejects valid
  // colorings of fast-rate platforms whose makespans dwarf it, and proves
  // nothing on tiny-rate ones.
  const double slot_tol = tol * std::max(1.0, result.makespan);
  std::vector<double> assigned(comms.size(), 0.0);
  double cursor = 0.0;
  std::vector<char> sender_busy(static_cast<size_t>(node_count), 0);
  std::vector<char> receiver_busy(static_cast<size_t>(node_count), 0);
  for (const ColorSlot& slot : result.slots) {
    if (slot.start < cursor - slot_tol) return false;  // no slot overlap
    cursor = slot.start + slot.length;
    if (cursor > result.makespan + slot_tol) return false;
    for (int ci : slot.comm_indices) {
      const Communication& c = comms[static_cast<size_t>(ci)];
      if (sender_busy[static_cast<size_t>(c.sender)]) return false;
      if (receiver_busy[static_cast<size_t>(c.receiver)]) return false;
      sender_busy[static_cast<size_t>(c.sender)] = 1;
      receiver_busy[static_cast<size_t>(c.receiver)] = 1;
      assigned[static_cast<size_t>(ci)] += slot.length;
    }
    for (int ci : slot.comm_indices) {
      const Communication& c = comms[static_cast<size_t>(ci)];
      sender_busy[static_cast<size_t>(c.sender)] = 0;
      receiver_busy[static_cast<size_t>(c.receiver)] = 0;
    }
  }
  // Each communication's assigned time is checked on its *own* scale — a
  // makespan-scaled tolerance would let a whole small communication vanish
  // from a large schedule unnoticed. The additive floor covers the
  // decomposition's legitimate dust handling.
  const double dust_floor =
      coloring_dust_floor(result.makespan, comms.size(), node_count);
  for (size_t i = 0; i < comms.size(); ++i) {
    double comm_tol =
        tol * std::max(1.0, comms[i].duration) + dust_floor;
    if (std::fabs(assigned[i] - comms[i].duration) > comm_tol) return false;
  }
  return true;
}

}  // namespace pmcast::sched

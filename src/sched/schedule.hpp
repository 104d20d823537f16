#pragma once
/// \file schedule.hpp
/// Periodic steady-state schedules. A schedule is a period T plus a set of
/// per-period transfers; each transfer belongs to a *stream* (one multicast
/// tree or one flow path) and carries a *generation offset*: the transfer at
/// depth d of its stream ships, during period r, the messages of
/// generation r - offset (offset = d - 1). This convention makes causality
/// hold for any intra-period ordering, because the upstream hop finishes a
/// generation one full period earlier (see DESIGN.md §5); the simulator
/// re-verifies it dynamically anyway.

#include <span>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "sched/edge_coloring.hpp"

namespace pmcast::sched {

/// One per-period communication of a periodic schedule.
struct Transfer {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  double duration = 0.0;  ///< busy time per period on this hop
  int stream = 0;         ///< which tree / flow path this hop belongs to
  int offset = 0;         ///< generation offset (depth - 1 along the stream)
};

/// A timed occurrence of (part of) a transfer within the period. A transfer
/// may be split across several slots — messages are divisible in this
/// model.
struct TimedSlot {
  double start = 0.0;
  double length = 0.0;
  int transfer = -1;  ///< index into Schedule::transfers
};

struct Schedule {
  bool ok = false;
  double period = 0.0;
  std::vector<Transfer> transfers;
  std::vector<TimedSlot> slots;
};

/// Orchestrate \p transfers into a period via weighted edge colouring.
/// Only ports constrain the schedule, so the colouring sees one
/// communication per (from, to) pair, whose duration is the sum of the
/// pair's transfers; the pair's transfers are then laid back to back through
/// its colour slots in transfer-index order, a transfer split across
/// consecutive slots where it does not fit. A column-generation certificate
/// whose trees reuse the same hops thus costs its port graph, not its
/// transfer count. The period is the colouring's makespan: the max port
/// load (the paper's bound T), as if every transfer were coloured alone.
/// Slots come out in nondecreasing start order.
Schedule build_schedule(std::vector<Transfer> transfers, int node_count);

/// Static verification: slots lie in [0, period], no two simultaneous slots
/// share a sender or receiver port, and every transfer's slot time sums to
/// its duration. Accepts slots in any order. Returns an empty string on
/// success, else a diagnostic. \p tol is relative: slot positions and
/// overlaps use tol * period, and each transfer's summed time uses
/// tol * its duration plus coloring_dust_floor(period, transfers, nodes),
/// so a schedule is checked on its own scale.
std::string validate_schedule(const Schedule& schedule, int node_count,
                              double tol = 1e-6);

}  // namespace pmcast::sched

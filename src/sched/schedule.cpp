#include "sched/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace pmcast::sched {
namespace {

/// The transfers grouped by (from, to) port pair. Pairs are numbered in
/// order of first appearance, so when no pair repeats, comms is exactly the
/// transfer list.
struct PortPairs {
  std::vector<Communication> comms;  ///< duration: the pair's transfers'
                                     ///< sum, in transfer-index order
  std::vector<int> begin;    ///< pair p owns members[begin[p], begin[p + 1])
  std::vector<int> members;  ///< transfer indices, each pair's in index order
};

/// Counting sort by sender, then a stamp per receiver finds each pair's
/// lowest transfer index: O(transfers + nodes), no hashing.
PortPairs group_port_pairs(const std::vector<Transfer>& ts, int node_count) {
  const size_t n = static_cast<size_t>(node_count);
  const size_t m = ts.size();
  PortPairs pp;
  std::vector<int> sender_begin(n + 2, 0);
  for (const Transfer& t : ts) ++sender_begin[static_cast<size_t>(t.from) + 2];
  for (size_t u = 2; u < n + 2; ++u) sender_begin[u] += sender_begin[u - 1];
  pp.members.resize(m);
  for (size_t t = 0; t < m; ++t) {
    pp.members[static_cast<size_t>(
        sender_begin[static_cast<size_t>(ts[t].from) + 1]++)] =
        static_cast<int>(t);
  }
  // pair_of[t]: first the lowest transfer index of t's pair, then, in one
  // pass in index order, the pair's number.
  std::vector<int> pair_of(m);
  {
    std::vector<int> stamp(n, -1), lowest(n);
    for (size_t u = 0; u < n; ++u) {
      for (int k = sender_begin[u]; k < sender_begin[u + 1]; ++k) {
        const int t = pp.members[static_cast<size_t>(k)];
        const auto v = static_cast<size_t>(ts[static_cast<size_t>(t)].to);
        if (stamp[v] != static_cast<int>(u)) {
          stamp[v] = static_cast<int>(u);
          lowest[v] = t;
        }
        pair_of[static_cast<size_t>(t)] = lowest[v];
      }
    }
  }
  for (size_t t = 0; t < m; ++t) {
    const int lead = pair_of[t];
    if (lead == static_cast<int>(t)) {
      pair_of[t] = static_cast<int>(pp.comms.size());
      pp.comms.push_back({ts[t].from, ts[t].to, 0.0});
    } else {
      pair_of[t] = pair_of[static_cast<size_t>(lead)];
    }
    pp.comms[static_cast<size_t>(pair_of[t])].duration += ts[t].duration;
  }
  const size_t pairs = pp.comms.size();
  pp.begin.assign(pairs + 2, 0);
  for (int p : pair_of) ++pp.begin[static_cast<size_t>(p) + 2];
  for (size_t p = 2; p < pairs + 2; ++p) pp.begin[p] += pp.begin[p - 1];
  for (size_t t = 0; t < m; ++t) {
    pp.members[static_cast<size_t>(
        pp.begin[static_cast<size_t>(pair_of[t]) + 1]++)] =
        static_cast<int>(t);
  }
  pp.begin.pop_back();
  return pp;
}

}  // namespace

Schedule build_schedule(std::vector<Transfer> transfers, int node_count) {
  Schedule schedule;
  schedule.transfers = std::move(transfers);
  const std::vector<Transfer>& ts = schedule.transfers;

  // Only ports constrain the schedule, so the colouring sees one
  // communication per (from, to) pair.
  const PortPairs pp = group_port_pairs(ts, node_count);
  ColoringResult coloring = color_communications(pp.comms, node_count);
  if (!coloring.ok) return schedule;
  schedule.period = coloring.makespan;

  // Lay each pair's transfers back to back through the pair's slots, in
  // start order, splitting a transfer where a slot ends (McNaughton's
  // wrap-around rule inside one pair). Transfers of a pair share both
  // ports, so any layout inside the pair's slots is one-port safe. The
  // pair's last transfer takes whatever remains of each slot, which absorbs
  // the colouring's dust and gives a one-transfer pair exactly its slots.
  // Every piece ends a slot or a transfer, so there are at most
  // P + transfers pieces, P being the colouring's (slot, pair) count.
  size_t bound = ts.size();
  for (const ColorSlot& slot : coloring.slots) {
    bound += slot.comm_indices.size();
  }
  schedule.slots.reserve(bound);
  const size_t pairs = pp.comms.size();
  std::vector<int> next(pairs);     // position in members of the pair's cursor
  std::vector<double> left(pairs);  // unlaid time of that transfer
  for (size_t p = 0; p < pairs; ++p) {
    next[p] = pp.begin[p];
    left[p] = ts[static_cast<size_t>(pp.members[static_cast<size_t>(next[p])])]
                  .duration;
  }
  // A slot's first pieces all start with it; the later ones are sorted in
  // this reused buffer, so the output stays in start order without an
  // allocation per slot. A later piece's start is clamped to the slot's
  // end, which is where color_communications starts the next slot, so
  // rounding in the running sum cannot cross into it.
  std::vector<TimedSlot> later;
  for (const ColorSlot& slot : coloring.slots) {
    const double slot_end = slot.start + slot.length;
    later.clear();
    for (int pi : slot.comm_indices) {
      const auto p = static_cast<size_t>(pi);
      double at = slot.start;
      double room = slot.length;
      bool first_piece = true;
      for (;;) {
        const int k = next[p];
        const int t = pp.members[static_cast<size_t>(k)];
        const bool last = k + 1 == pp.begin[p + 1];
        const double piece = last ? room : std::min(left[p], room);
        if (piece > 0.0) {
          const TimedSlot timed{std::min(at, slot_end), piece, t};
          (first_piece ? schedule.slots : later).push_back(timed);
          first_piece = false;
        }
        if (last) break;
        // min() returned one of the two exactly, so that one hits 0.0.
        left[p] -= piece;
        room -= piece;
        at += piece;
        if (left[p] == 0.0) {
          next[p] = k + 1;
          left[p] =
              ts[static_cast<size_t>(pp.members[static_cast<size_t>(k + 1)])]
                  .duration;
        }
        if (room == 0.0) break;
      }
    }
    std::sort(later.begin(), later.end(),
              [](const TimedSlot& a, const TimedSlot& b) {
                return a.start != b.start ? a.start < b.start
                                          : a.transfer < b.transfer;
              });
    schedule.slots.insert(schedule.slots.end(), later.begin(), later.end());
  }
  schedule.ok = true;
  return schedule;
}

std::string validate_schedule(const Schedule& schedule, int node_count,
                              double tol) {
  if (!schedule.ok) return "schedule not built";
  // Every tolerance scales with what it checks, as in validate_coloring but
  // with no absolute floor, so a nanosecond schedule is held to the same
  // relative standard as a 1e8-unit tree certificate. Slot positions and
  // overlaps live on the period's scale. Each transfer's summed time lives
  // on its own duration's, plus the decomposition's dust floor; the
  // colouring ran on at most one communication per transfer.
  const double slot_tol = tol * schedule.period;
  const double dust_floor = coloring_dust_floor(
      schedule.period, schedule.transfers.size(), node_count);
  std::ostringstream err;
  std::vector<double> assigned(schedule.transfers.size(), 0.0);
  for (size_t i = 0; i < schedule.slots.size(); ++i) {
    const TimedSlot& s = schedule.slots[i];
    if (s.start < -slot_tol ||
        s.start + s.length > schedule.period + slot_tol) {
      err << "slot " << i << " outside period";
      return err.str();
    }
    assigned[static_cast<size_t>(s.transfer)] += s.length;
  }
  // One-port overlap check, bucketed by port. Two slots conflict only when
  // they share a sender or a receiver, so sort each port's slots by start
  // and sweep with the furthest end seen so far: slot k overlaps some
  // earlier slot by more than slot_tol iff it overlaps the max-end one by
  // more than slot_tol, making the sweep exactly equivalent to comparing
  // all pairs. The former all-pairs scan was quadratic in slot count, which
  // column generation's large certificates turned into the verification
  // bottleneck.
  std::vector<std::vector<int>> by_sender(static_cast<size_t>(node_count));
  std::vector<std::vector<int>> by_receiver(static_cast<size_t>(node_count));
  for (size_t i = 0; i < schedule.slots.size(); ++i) {
    const Transfer& t =
        schedule.transfers[static_cast<size_t>(schedule.slots[i].transfer)];
    by_sender[static_cast<size_t>(t.from)].push_back(static_cast<int>(i));
    by_receiver[static_cast<size_t>(t.to)].push_back(static_cast<int>(i));
  }
  // Buckets of a build_schedule() schedule are already in start order (the
  // slots are), so the sort only runs for hand-built or reordered ones.
  auto check_bucket = [&](std::vector<int>& bucket) -> bool {
    auto by_start = [&](int a, int b) {
      return schedule.slots[static_cast<size_t>(a)].start <
             schedule.slots[static_cast<size_t>(b)].start;
    };
    if (!std::is_sorted(bucket.begin(), bucket.end(), by_start)) {
      std::sort(bucket.begin(), bucket.end(), by_start);
    }
    double max_end = -kInfinity;
    int max_end_slot = -1;
    for (int idx : bucket) {
      const TimedSlot& s = schedule.slots[static_cast<size_t>(idx)];
      double overlap = std::min(max_end, s.start + s.length) - s.start;
      if (overlap > slot_tol) {
        err << "one-port violation: slots " << max_end_slot << " and " << idx
            << " overlap by " << overlap;
        return false;
      }
      if (s.start + s.length > max_end) {
        max_end = s.start + s.length;
        max_end_slot = idx;
      }
    }
    return true;
  };
  for (int v = 0; v < node_count; ++v) {
    if (!check_bucket(by_sender[static_cast<size_t>(v)]) ||
        !check_bucket(by_receiver[static_cast<size_t>(v)])) {
      return err.str();
    }
  }
  for (size_t t = 0; t < schedule.transfers.size(); ++t) {
    const double duration = schedule.transfers[t].duration;
    if (std::fabs(assigned[t] - duration) > tol * duration + dust_floor) {
      err << "transfer " << t << " scheduled for " << assigned[t]
          << " != duration " << duration;
      return err.str();
    }
  }
  return {};
}

}  // namespace pmcast::sched

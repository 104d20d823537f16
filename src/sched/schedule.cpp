#include "sched/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace pmcast::sched {

Schedule build_schedule(std::vector<Transfer> transfers, int node_count) {
  Schedule schedule;
  schedule.transfers = std::move(transfers);

  std::vector<Communication> comms;
  comms.reserve(schedule.transfers.size());
  for (const Transfer& t : schedule.transfers) {
    comms.push_back({t.from, t.to, t.duration});
  }
  ColoringResult coloring = color_communications(comms, node_count);
  if (!coloring.ok) return schedule;

  // color_communications emits its slots in nondecreasing start order, so
  // the flattened list comes out sorted by start without a sort.
  schedule.period = coloring.makespan;
  for (const ColorSlot& slot : coloring.slots) {
    for (int ci : slot.comm_indices) {
      schedule.slots.push_back({slot.start, slot.length, ci});
    }
  }
  schedule.ok = true;
  return schedule;
}

std::string validate_schedule(const Schedule& schedule, int node_count,
                              double tol) {
  if (!schedule.ok) return "schedule not built";
  std::ostringstream err;
  std::vector<double> assigned(schedule.transfers.size(), 0.0);
  for (size_t i = 0; i < schedule.slots.size(); ++i) {
    const TimedSlot& s = schedule.slots[i];
    if (s.start < -tol || s.start + s.length > schedule.period + tol) {
      err << "slot " << i << " outside period";
      return err.str();
    }
    assigned[static_cast<size_t>(s.transfer)] += s.length;
  }
  // One-port overlap check, bucketed by port. Two slots conflict only when
  // they share a sender or a receiver, so sort each port's slots by start
  // and sweep with the furthest end seen so far: slot k overlaps some
  // earlier slot by more than tol iff it overlaps the max-end one by more
  // than tol, making the sweep exactly equivalent to comparing all pairs.
  // The former all-pairs scan was quadratic in slot count, which column
  // generation's large certificates (millions of slots at n = 1000) turn
  // into the verification bottleneck.
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
      if (overlap > tol) {
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
    if (std::fabs(assigned[t] - schedule.transfers[t].duration) > tol) {
      err << "transfer " << t << " scheduled for " << assigned[t]
          << " != duration " << schedule.transfers[t].duration;
      return err.str();
    }
  }
  return {};
}

}  // namespace pmcast::sched

#include "sched/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "graph/rng.hpp"

namespace pmcast::sched {
namespace {

/// Reference for build_schedule's period: every transfer coloured as its
/// own communication.
double per_transfer_period(const std::vector<Transfer>& transfers,
                           int node_count) {
  std::vector<Communication> comms;
  for (const Transfer& t : transfers) {
    comms.push_back({t.from, t.to, t.duration});
  }
  ColoringResult coloring = color_communications(comms, node_count);
  EXPECT_TRUE(coloring.ok);
  return coloring.makespan;
}

/// One communication per (from, to) pair in order of first appearance, its
/// duration summed in transfer-index order.
std::vector<Communication> merge_port_pairs(
    const std::vector<Transfer>& transfers) {
  std::vector<Communication> comms;
  std::map<std::pair<NodeId, NodeId>, size_t> index;
  for (const Transfer& t : transfers) {
    auto [it, fresh] = index.try_emplace({t.from, t.to}, comms.size());
    if (fresh) comms.push_back({t.from, t.to, 0.0});
    comms[it->second].duration += t.duration;
  }
  return comms;
}

/// K streams over one shared set of hops at distinct rates: the shape of a
/// column-generation certificate whose trees reuse the same edges.
std::vector<Transfer> shared_hop_streams(int streams, int nodes, int hops,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::vector<double> costs;
  while (static_cast<int>(pairs.size()) < hops) {
    const auto from = static_cast<NodeId>(rng.uniform_int(0, nodes - 1));
    auto to = static_cast<NodeId>(rng.uniform_int(0, nodes - 2));
    if (to >= from) ++to;
    if (std::find(pairs.begin(), pairs.end(), std::pair{from, to}) !=
        pairs.end()) {
      continue;
    }
    pairs.push_back({from, to});
    costs.push_back(rng.uniform_real(0.5, 3.0));
  }
  std::vector<Transfer> transfers;
  for (int k = 0; k < streams; ++k) {
    const double rate = rng.uniform_real(0.01, 1.0) / streams;
    for (size_t h = 0; h < pairs.size(); ++h) {
      transfers.push_back({pairs[h].first, pairs[h].second, rate * costs[h],
                           k, static_cast<int>(h % 4)});
    }
  }
  return transfers;
}

/// A random multigraph: 1-8 transfers on each port pair, interleaved.
std::vector<Transfer> random_multigraph(int nodes, double magnitude,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Transfer> transfers;
  const int pairs = static_cast<int>(rng.uniform_int(1, 3 * nodes));
  for (int p = 0; p < pairs; ++p) {
    const auto from = static_cast<NodeId>(rng.uniform_int(0, nodes - 1));
    auto to = static_cast<NodeId>(rng.uniform_int(0, nodes - 2));
    if (to >= from) ++to;
    const int copies = static_cast<int>(rng.uniform_int(1, 8));
    for (int c = 0; c < copies; ++c) {
      transfers.push_back({from, to, magnitude * rng.uniform_real(0.01, 2.0),
                           static_cast<int>(transfers.size()), 0});
    }
  }
  rng.shuffle(transfers);
  return transfers;
}

bool starts_sorted(const Schedule& s) {
  return std::is_sorted(s.slots.begin(), s.slots.end(),
                        [](const TimedSlot& a, const TimedSlot& b) {
                          return a.start < b.start;
                        });
}

TEST(Schedule, BuildTrivial) {
  std::vector<Transfer> transfers{{0, 1, 1.0, 0, 0}};
  auto s = build_schedule(transfers, 2);
  ASSERT_TRUE(s.ok);
  EXPECT_DOUBLE_EQ(s.period, 1.0);
  EXPECT_TRUE(validate_schedule(s, 2).empty());
}

TEST(Schedule, ChainHasDepthOffsets) {
  // 0 -> 1 -> 2 pipeline, both hops full period.
  std::vector<Transfer> transfers{{0, 1, 1.0, 0, 0}, {1, 2, 1.0, 0, 1}};
  auto s = build_schedule(transfers, 3);
  ASSERT_TRUE(s.ok);
  EXPECT_NEAR(s.period, 1.0, 1e-9);
  EXPECT_TRUE(validate_schedule(s, 3).empty());
  // Both hops run in parallel within the period (different ports).
  EXPECT_EQ(s.slots.size(), 2u);
}

TEST(Schedule, SharedPortSplitsSlots) {
  std::vector<Transfer> transfers{{0, 1, 0.6, 0, 0}, {0, 2, 0.4, 1, 0}};
  auto s = build_schedule(transfers, 3);
  ASSERT_TRUE(s.ok);
  EXPECT_NEAR(s.period, 1.0, 1e-9);
  EXPECT_TRUE(validate_schedule(s, 3).empty());
}

TEST(Schedule, SlotsComeOutInStartOrderAndValidateInAnyOrder) {
  // build_schedule relies on color_communications emitting slots in
  // nondecreasing start order instead of sorting them; the validator must
  // reach the same verdict whatever order the slots arrive in.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const int nodes = static_cast<int>(rng.uniform_int(3, 12));
    std::vector<Transfer> transfers;
    const int count = static_cast<int>(rng.uniform_int(1, 60));
    for (int t = 0; t < count; ++t) {
      const auto from = static_cast<NodeId>(rng.uniform_int(0, nodes - 1));
      auto to = static_cast<NodeId>(rng.uniform_int(0, nodes - 2));
      if (to >= from) ++to;
      transfers.push_back({from, to, rng.uniform_real(0.01, 2.0), t, 0});
    }
    Schedule s = build_schedule(transfers, nodes);
    ASSERT_TRUE(s.ok) << "seed " << seed;
    auto by_start = [](const TimedSlot& a, const TimedSlot& b) {
      return a.start < b.start;
    };
    EXPECT_TRUE(std::is_sorted(s.slots.begin(), s.slots.end(), by_start))
        << "seed " << seed;
    EXPECT_EQ(validate_schedule(s, nodes), "") << "seed " << seed;
    rng.shuffle(s.slots);
    EXPECT_EQ(validate_schedule(s, nodes), "") << "seed " << seed;
  }
}

TEST(Schedule, ValidatorCatchesOnePortViolation) {
  Schedule s;
  s.ok = true;
  s.period = 1.0;
  s.transfers = {{0, 1, 1.0, 0, 0}, {0, 2, 1.0, 0, 0}};
  // Hand-build overlapping slots sharing sender 0.
  s.slots = {{0.0, 1.0, 0}, {0.5, 1.0, 1}};
  s.period = 2.0;
  EXPECT_FALSE(validate_schedule(s, 3).empty());
  // Out of start order: the validator sorts the port bucket itself.
  std::swap(s.slots[0], s.slots[1]);
  EXPECT_FALSE(validate_schedule(s, 3).empty());
}

TEST(Schedule, ValidatorCatchesShortfall) {
  Schedule s;
  s.ok = true;
  s.period = 1.0;
  s.transfers = {{0, 1, 1.0, 0, 0}};
  s.slots = {{0.0, 0.5, 0}};  // only half the duration scheduled
  EXPECT_FALSE(validate_schedule(s, 2).empty());
}

TEST(Schedule, ValidatorAcceptsPreemptedTransfer) {
  Schedule s;
  s.ok = true;
  s.period = 1.0;
  s.transfers = {{0, 1, 1.0, 0, 0}};
  s.slots = {{0.0, 0.5, 0}, {0.5, 0.5, 0}};
  EXPECT_TRUE(validate_schedule(s, 2).empty());
}

TEST(Schedule, SlotOutsidePeriodRejected) {
  Schedule s;
  s.ok = true;
  s.period = 1.0;
  s.transfers = {{0, 1, 1.5, 0, 0}};
  s.slots = {{0.0, 1.5, 0}};
  EXPECT_FALSE(validate_schedule(s, 2).empty());
}

TEST(Schedule, PortPairsAreColouredOnce) {
  struct Input {
    std::string label;
    int nodes;
    std::vector<Transfer> transfers;
  };
  std::vector<Input> inputs;
  for (int k = 2; k <= 20; ++k) {
    inputs.push_back({"K=" + std::to_string(k), 16,
                      shared_hop_streams(k, 16, 40,
                                         static_cast<std::uint64_t>(k))});
  }
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const int nodes = static_cast<int>(Rng(seed).uniform_int(3, 12));
    inputs.push_back({"seed " + std::to_string(seed), nodes,
                      random_multigraph(nodes, 1.0, seed)});
  }
  for (const auto& [label, nodes, transfers] : inputs) {
    Schedule s = build_schedule(transfers, nodes);
    ASSERT_TRUE(s.ok) << label;
    EXPECT_EQ(validate_schedule(s, nodes), "") << label;
    EXPECT_TRUE(starts_sorted(s)) << label;
    const double reference = per_transfer_period(transfers, nodes);
    EXPECT_LE(std::fabs(s.period - reference), 1e-15 * reference) << label;
    // Each piece ends a colour slot of its pair or one of the pair's
    // transfers; a transfer-by-transfer colouring has no such bound.
    ColoringResult pairs =
        color_communications(merge_port_pairs(transfers), nodes);
    ASSERT_TRUE(pairs.ok) << label;
    size_t bound = transfers.size();
    for (const ColorSlot& slot : pairs.slots) {
      bound += slot.comm_indices.size();
    }
    EXPECT_LE(s.slots.size(), bound) << label;
  }
}

TEST(Schedule, ValidatorScalesWithMagnitude) {
  // Every violation is sized against the period: a check relative to the
  // slot itself cannot tell a sliver's violation from rounding dust.
  for (int e = -9; e <= 9; ++e) {
    const double magnitude = std::pow(10.0, e);
    const auto seed = static_cast<std::uint64_t>(e + 100);
    const int nodes = 8;
    const std::string label = "magnitude 1e" + std::to_string(e);
    Schedule s = build_schedule(random_multigraph(nodes, magnitude, seed),
                                nodes);
    ASSERT_TRUE(s.ok) << label;
    ASSERT_EQ(validate_schedule(s, nodes), "") << label;
    const double shift = 1e-4 * s.period;

    Schedule dropped = s;
    const int victim = dropped.slots.front().transfer;
    std::erase_if(dropped.slots,
                  [&](const TimedSlot& t) { return t.transfer == victim; });
    EXPECT_NE(validate_schedule(dropped, nodes), "") << label;

    // A slot pushed into the next slot on one of its ports, which stays
    // inside the period. The neighbour is at least as long as the shift, so
    // the overlap is the full shift.
    Schedule overlapped = s;
    bool moved = false;
    for (size_t a = 0; a < s.slots.size() && !moved; ++a) {
      const Transfer& ta =
          s.transfers[static_cast<size_t>(s.slots[a].transfer)];
      const double end = s.slots[a].start + s.slots[a].length;
      for (size_t b = 0; b < s.slots.size() && !moved; ++b) {
        const Transfer& tb =
            s.transfers[static_cast<size_t>(s.slots[b].transfer)];
        const bool shares = ta.from == tb.from || ta.to == tb.to;
        if (a == b || !shares || s.slots[b].length < shift ||
            std::fabs(s.slots[b].start - end) > 1e-9 * s.period) {
          continue;
        }
        overlapped.slots[a].start += shift;
        moved = true;
      }
    }
    ASSERT_TRUE(moved) << label;
    EXPECT_NE(validate_schedule(overlapped, nodes).find("one-port"),
              std::string::npos)
        << label;

    Schedule late = s;
    auto last = std::max_element(
        late.slots.begin(), late.slots.end(),
        [](const TimedSlot& x, const TimedSlot& y) {
          return x.start + x.length < y.start + y.length;
        });
    last->start = late.period + shift - last->length;
    EXPECT_NE(validate_schedule(late, nodes).find("outside period"),
              std::string::npos)
        << label;
  }
}

}  // namespace
}  // namespace pmcast::sched

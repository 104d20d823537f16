#include "sched/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/rng.hpp"

namespace pmcast::sched {
namespace {

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

}  // namespace
}  // namespace pmcast::sched

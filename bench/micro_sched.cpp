/// \file micro_sched.cpp
/// Experiment E10 (part 2) — micro-benchmarks of the orchestration
/// substrate: weighted König edge colouring and schedule validation. The
/// colouring is the certificate-checking step of Theorems 1/3, so its
/// polynomial cost matters for the "COMPACT-MULTICAST is in NP" argument.

#include <benchmark/benchmark.h>

#include "pmcast/graph.hpp"
#include "pmcast/sched.hpp"

using namespace pmcast;
using namespace pmcast::sched;

namespace {

std::vector<Communication> random_comms(int nodes, int count,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Communication> comms;
  while (static_cast<int>(comms.size()) < count) {
    auto a = static_cast<NodeId>(rng.uniform(static_cast<uint64_t>(nodes)));
    auto b = static_cast<NodeId>(rng.uniform(static_cast<uint64_t>(nodes)));
    if (a == b) continue;
    comms.push_back({a, b, rng.uniform_real(0.1, 3.0)});
  }
  return comms;
}

/// K streams over one shared 40-hop set at distinct rates: the shape of a
/// column-generation certificate, whose trees reuse the same edges.
std::vector<Transfer> shared_hop_transfers(int streams) {
  constexpr int kNodes = 30;
  constexpr int kHops = 40;
  auto hops = random_comms(kNodes, kHops, 11);
  std::vector<Transfer> transfers;
  for (int k = 0; k < streams; ++k) {
    const double rate = (1.0 + 0.1 * k) / streams;
    for (int h = 0; h < kHops; ++h) {
      const Communication& c = hops[static_cast<size_t>(h)];
      transfers.push_back({c.sender, c.receiver, rate * c.duration, k, h % 4});
    }
  }
  return transfers;
}

void BM_EdgeColoring(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  auto comms = random_comms(nodes, nodes * 4, 3);
  for (auto _ : state) {
    auto result = color_communications(comms, nodes);
    benchmark::DoNotOptimize(result.slots.size());
  }
}
BENCHMARK(BM_EdgeColoring)->Arg(8)->Arg(30)->Arg(65)->Arg(128)->Unit(
    benchmark::kMicrosecond);

void BM_BuildSchedule(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  auto comms = random_comms(nodes, nodes * 4, 5);
  std::vector<Transfer> transfers;
  for (const auto& c : comms) {
    transfers.push_back({c.sender, c.receiver, c.duration, 0, 0});
  }
  for (auto _ : state) {
    auto schedule = build_schedule(transfers, nodes);
    benchmark::DoNotOptimize(schedule.slots.size());
  }
}
BENCHMARK(BM_BuildSchedule)->Arg(30)->Arg(65)->Unit(benchmark::kMicrosecond);

void BM_BuildScheduleSharedHops(benchmark::State& state) {
  auto transfers = shared_hop_transfers(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto schedule = build_schedule(transfers, 30);
    benchmark::DoNotOptimize(schedule.slots.size());
  }
}
BENCHMARK(BM_BuildScheduleSharedHops)->Arg(1)->Arg(8)->Arg(32)->Unit(
    benchmark::kMicrosecond);

/// Arg 0: 260 random transfers on 65 nodes. Arg 32: the K = 32 shared-hop
/// schedule of BM_BuildScheduleSharedHops.
void BM_ValidateSchedule(benchmark::State& state) {
  int nodes = 65;
  std::vector<Transfer> transfers;
  if (state.range(0) == 0) {
    for (const auto& c : random_comms(nodes, nodes * 4, 7)) {
      transfers.push_back({c.sender, c.receiver, c.duration, 0, 0});
    }
  } else {
    nodes = 30;
    transfers = shared_hop_transfers(static_cast<int>(state.range(0)));
  }
  auto schedule = build_schedule(transfers, nodes);
  for (auto _ : state) {
    auto err = validate_schedule(schedule, nodes);
    benchmark::DoNotOptimize(err.size());
  }
}
BENCHMARK(BM_ValidateSchedule)->Arg(0)->Arg(32)->Unit(
    benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();

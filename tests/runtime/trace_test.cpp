/// \file trace_test.cpp
/// The tracing/profiling layer's contract tests: deterministic event
/// sequences on a single-threaded race, exact counter accounting under an
/// 8-thread hammer (this file runs in the TSan lane), and the
/// zero-allocation guarantee when tracing is off — enforced with a
/// counting global operator new, not by inspection.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include "core/formulations.hpp"
#include "runtime/engine.hpp"
#include "runtime/trace.hpp"
#include "scenario/generator.hpp"
#include "test_requests.hpp"

// ------------------------------------------------------- allocation counter --
// Process-wide operator new/delete replacements that count every heap
// allocation. The zero-overhead test snapshots the counter around the
// traced region; everything else in the process just pays one relaxed
// atomic bump per allocation.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
// Out of line, so GCC does not inline the free() into a caller and then
// flag it against the caller's new-expression (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pmcast::runtime {
namespace {

core::MulticastProblem diamond_problem() {
  Digraph g(4);
  g.add_edge(0, 1, 2.0);
  g.add_edge(0, 2, 3.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(2, 3, 1.5);
  g.add_edge(1, 2, 0.5);
  return core::MulticastProblem(g, 0, {1, 3});
}

/// Race the diamond on an inline, uncached engine: every strategy runs on
/// this thread, in launch order.
PortfolioResult race_inline(ServiceOptions options) {
  options.threads = 0;
  options.cache_capacity = 0;
  return PortfolioEngine(std::move(options))
      .solve(request_for(diamond_problem()));
}

bool is_terminal(TraceEventKind kind) {
  return kind == TraceEventKind::Certified ||
         kind == TraceEventKind::Pruned ||
         kind == TraceEventKind::Skipped || kind == TraceEventKind::Failed;
}

// ------------------------------------------------- single-thread timeline --

TEST(Trace, SingleThreadTimelineIsAnOrderedLaunchToTerminalStory) {
  ServiceOptions options;
  options.trace = TraceDetail::Timeline;
  // No workers: every strategy runs inline on this thread, so the timeline
  // must be one thread id and strictly ordered.
  PortfolioResult result = race_inline(options);
  ASSERT_TRUE(result.ok);
  const SolveTrace& trace = result.trace;
  EXPECT_EQ(trace.detail, TraceDetail::Timeline);
  ASSERT_FALSE(trace.timeline.empty());

  // Globally sorted by timestamp, all on the calling thread.
  const std::uint32_t thread = trace.timeline.front().thread;
  double last_t = 0.0;
  std::set<int> slots_seen;
  for (const TraceTimelineEvent& e : trace.timeline) {
    EXPECT_EQ(e.thread, thread);
    EXPECT_GE(e.t_us, last_t);
    last_t = e.t_us;
    slots_seen.insert(e.slot);
  }
  EXPECT_EQ(slots_seen.size(), result.outcomes.size());

  // Per slot: Launch first, exactly one terminal event, terminal last.
  for (int slot : slots_seen) {
    std::vector<TraceTimelineEvent> events;
    for (const TraceTimelineEvent& e : trace.timeline) {
      if (e.slot == slot) events.push_back(e);
    }
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.front().kind, TraceEventKind::Launch) << "slot " << slot;
    EXPECT_TRUE(is_terminal(events.back().kind)) << "slot " << slot;
    int terminals = 0;
    for (const TraceTimelineEvent& e : events) {
      if (is_terminal(e.kind)) ++terminals;
    }
    EXPECT_EQ(terminals, 1) << "slot " << slot;
    // Every event of one slot names the same strategy.
    for (const TraceTimelineEvent& e : events) {
      EXPECT_EQ(e.strategy, events.front().strategy) << "slot " << slot;
    }
  }

  // The race evaluated the start-of-strategy cut predicates.
  EXPECT_GT(trace.early_win.evaluated, 0u);

  // Two inline runs produce the same event *sequence* (kinds, slots,
  // strategies — timestamps differ): determinism at 1 thread.
  PortfolioResult again = race_inline(options);
  ASSERT_TRUE(again.ok);
  ASSERT_EQ(again.trace.timeline.size(), trace.timeline.size());
  for (std::size_t i = 0; i < trace.timeline.size(); ++i) {
    EXPECT_EQ(again.trace.timeline[i].kind, trace.timeline[i].kind) << i;
    EXPECT_EQ(again.trace.timeline[i].slot, trace.timeline[i].slot) << i;
    EXPECT_EQ(again.trace.timeline[i].strategy, trace.timeline[i].strategy)
        << i;
  }
}

// ------------------------------------------------------ concurrent hammer --

TEST(Trace, EightThreadHammerLosesNothing) {
  constexpr int kThreads = 8;
  constexpr int kOps = 5000;
  Tracer tracer(TraceDetail::Timeline, kThreads);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kOps; ++i) {
        // Every 4th evaluation hits; misses carry a margin of 1+i so the
        // smallest recorded miss across all threads is exactly 2.0.
        const bool hit = (i % 4) == 0;
        tracer.predicate(CutPredicate::ProbePoll, hit,
                         hit ? 0.0 : 1.0 + static_cast<double>(i));
        tracer.checkpoint_gap(1.0 + static_cast<double>(i % 7));
      }
      // event() is single-writer per slot; each thread owns slot t.
      tracer.event(TraceEventKind::Launch, t, static_cast<StrategyId>(t),
                   0.0);
      tracer.event(TraceEventKind::Certified, t, static_cast<StrategyId>(t),
                   42.0);
    });
  }
  for (std::thread& thread : threads) thread.join();

  SolveTrace s = tracer.summary();
  const CutPredicateTrace& poll = s.probe_poll;
  EXPECT_EQ(poll.evaluated, static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_EQ(poll.hits, static_cast<std::uint64_t>(kThreads) * (kOps / 4));
  EXPECT_DOUBLE_EQ(poll.closest_miss, 2.0);

  EXPECT_EQ(s.checkpoint_polls, static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_DOUBLE_EQ(s.checkpoint_max_us, 7.0);
  std::uint64_t expected_total_ns = 0;
  for (int i = 0; i < kOps; ++i) expected_total_ns += (1 + i % 7) * 1000;
  EXPECT_DOUBLE_EQ(s.checkpoint_total_us,
                   static_cast<double>(expected_total_ns * kThreads) / 1e3);
  std::uint64_t hist_sum = 0;
  for (std::uint64_t b : s.checkpoint_hist) hist_sum += b;
  EXPECT_EQ(hist_sum, s.checkpoint_polls);

  ASSERT_EQ(s.timeline.size(), static_cast<std::size_t>(2 * kThreads));
  std::vector<int> launches(kThreads, 0);
  std::vector<int> certs(kThreads, 0);
  for (const TraceTimelineEvent& e : s.timeline) {
    ASSERT_GE(e.slot, 0);
    ASSERT_LT(e.slot, kThreads);
    if (e.kind == TraceEventKind::Launch) ++launches[e.slot];
    if (e.kind == TraceEventKind::Certified) {
      ++certs[e.slot];
      EXPECT_DOUBLE_EQ(e.value, 42.0);
    }
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(launches[t], 1) << t;
    EXPECT_EQ(certs[t], 1) << t;
  }
}

TEST(Trace, SlotOverflowDropsInsteadOfCorrupting) {
  Tracer tracer(TraceDetail::Timeline, 1);
  for (int i = 0; i < Tracer::kMaxEventsPerSlot + 3; ++i) {
    tracer.event(TraceEventKind::FirstLpCheckpoint, 0, StrategyId::Mcph,
                 static_cast<double>(i));
  }
  // Out-of-range slots are ignored, not UB.
  tracer.event(TraceEventKind::Launch, -1, StrategyId::Mcph, 0.0);
  tracer.event(TraceEventKind::Launch, 7, StrategyId::Mcph, 0.0);
  SolveTrace s = tracer.summary();
  ASSERT_EQ(s.timeline.size(),
            static_cast<std::size_t>(Tracer::kMaxEventsPerSlot));
  for (int i = 0; i < Tracer::kMaxEventsPerSlot; ++i) {
    EXPECT_DOUBLE_EQ(s.timeline[static_cast<std::size_t>(i)].value,
                     static_cast<double>(i));
  }
}

// ----------------------------------------------------- checkpoint latency --

TEST(Trace, CheckpointGapsNeverSpanTwoSolves) {
  // One hook serves a sequence of LP solves. The pause between two solves
  // is not checkpoint latency: the first poll of each solve restarts the
  // clock, and every later poll records its gap. The bounds are the two
  // solves' own wall times, measured here, so a loaded machine stretches
  // both sides alike; the pause outlasts the first solve twice over, so a
  // gap spanning it would push the total past t1 + t2.
  scenario::ScenarioSpec spec;
  spec.family = scenario::Family::Grid;
  spec.nodes = 12;
  const core::MulticastProblem problem =
      scenario::generate_scenario(spec).problem;

  Tracer tracer(TraceDetail::Counters, 1);
  const BudgetGuard guard;
  const lp::CheckpointHook hook =
      lp_checkpoint(guard, &tracer, 0, StrategyId::MulticastUb);
  int polls = 0;
  core::FormulationOptions options;
  options.solver.checkpoint_every = 1;
  options.solver.checkpoint = [&](int poll) {
    ++polls;
    return hook(poll);
  };
  using Clock = std::chrono::steady_clock;
  auto timed_solve = [&](core::FlowSolution& out) {
    const Clock::time_point start = Clock::now();
    out = core::solve_multicast_ub(problem, options);
    return std::chrono::duration<double, std::micro>(Clock::now() - start)
        .count();
  };
  core::FlowSolution first;
  core::FlowSolution second;
  const double t1_us = timed_solve(first);
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::micro>(std::max(20'000.0,
                                                         2.0 * t1_us)));
  const double t2_us = timed_solve(second);
  ASSERT_TRUE(first.ok() && second.ok());

  const SolveTrace s = tracer.summary();
  ASSERT_GT(polls, 4);
  EXPECT_EQ(s.checkpoint_polls, static_cast<std::uint64_t>(polls - 2))
      << "every poll but the first of each solve records a gap";
  EXPECT_LE(s.checkpoint_total_us, t1_us + t2_us);
  EXPECT_LE(s.checkpoint_max_us, std::max(t1_us, t2_us));
}

// --------------------------------------------------------- zero overhead --

TEST(Trace, DisabledTracerNeverTouchesTheHeap) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  {
    Tracer off;  // default = Off
    EXPECT_FALSE(off.enabled());
    for (int i = 0; i < 1000; ++i) {
      off.predicate(CutPredicate::EarlyWin, i % 2 == 0, 0.5);
      off.checkpoint_gap(3.0);
      off.event(TraceEventKind::Launch, 0, StrategyId::Mcph, 0.0);
    }
    EXPECT_EQ(off.now_us(), 0.0);
    SolveTrace s = off.summary();
    EXPECT_EQ(s.detail, TraceDetail::Off);
    EXPECT_EQ(s.checkpoint_polls, 0u);
    EXPECT_TRUE(s.timeline.empty());
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "a disabled tracer allocated";
}

TEST(Trace, CountersDetailIsHeapFreeToo) {
  // Counters is the always-on production default, so it must not allocate
  // either — construction, recording, and the summary all live on the
  // stack (the summary's timeline vector stays empty below Timeline).
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  {
    Tracer tracer(TraceDetail::Counters, 8);
    for (int i = 0; i < 1000; ++i) {
      tracer.predicate(CutPredicate::ProbePoll, i % 3 == 0, 1.0);
      tracer.checkpoint_gap(2.0);
      // No-op below Timeline.
      tracer.event(TraceEventKind::Launch, 0, StrategyId::Mcph, 0.0);
    }
    SolveTrace s = tracer.summary();
    EXPECT_EQ(s.probe_poll.evaluated, 1000u);
    EXPECT_TRUE(s.timeline.empty());
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "a Counters-level tracer allocated";
}

}  // namespace
}  // namespace pmcast::runtime

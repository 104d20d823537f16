#pragma once
/// \file runtime.hpp
/// Umbrella header for the pmcast::runtime subsystem — the concurrent
/// solver-portfolio engine.
///
///   ThreadPool       — work-stealing pool (thread_pool.hpp)
///   SolveBudget / CancellationToken — budget control (budget.hpp)
///   run_strategy     — run and certify one solver strategy (portfolio.hpp)
///   Incumbent        — shared bounds for cooperative pruning of
///                      provably-dominated work (incumbent.hpp)
///   ResultCache      — sharded LRU over canonical instance keys (cache.hpp)
///   PortfolioEngine  — the race: cache probe, request coalescing,
///                      staged strategy fan-out, streaming delivery
///                      (engine.hpp)
///   Tracer           — always-on tracing/profiling into SolveTrace:
///                      cut-predicate accounting, checkpoint latency,
///                      timelines (trace.hpp)
///
/// See DESIGN_RUNTIME.md for the architecture notes.

#include "runtime/budget.hpp"
#include "runtime/cache.hpp"
#include "runtime/engine.hpp"
#include "runtime/portfolio.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/trace.hpp"

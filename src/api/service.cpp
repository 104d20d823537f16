/// \file service.cpp
/// Implementation of the pmcast v1 Service facade (pmcast/service.hpp):
/// request validation, PortfolioResult -> Result<SolveResponse>
/// translation, and the batch state behind SolveFuture/SolveBatch — the
/// one place results are stored, waited on and serialised to user
/// callbacks. All engine mechanics (caching, coalescing, fan-out,
/// streaming) live in runtime/engine.cpp; this layer only adapts types and
/// classifies failures into Status codes.

#include "pmcast/service.hpp"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <utility>

#include "pmcast/problem.hpp"
#include "runtime/runtime.hpp"

namespace pmcast {
namespace {

using FacadeClock = std::chrono::steady_clock;

double ms_since(FacadeClock::time_point start) {
  return std::chrono::duration<double, std::milli>(FacadeClock::now() - start)
      .count();
}

/// Per-request context the classifier needs after the solve finished.
struct RequestMeta {
  double effective_deadline_ms = 0.0;
  CancelToken cancel;
};

}  // namespace

namespace detail {

struct BatchState {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::optional<Result<SolveResponse>>> slots;
  std::size_t delivered = 0;

  /// Serializes facade callbacks; never held together with `mutex`.
  std::mutex callback_mutex;
  ResultCallback on_result;

  // Written before the engine sees the batch, read-only afterwards.
  FacadeClock::time_point start;
  std::vector<RequestMeta> meta;
  std::vector<std::size_t> engine_to_facade;
  /// The batch's cancellation token, handed to the engine at submission;
  /// SolveBatch::cancel() stops it.
  CancelToken batch_cancel;

  void deliver(std::size_t index, Result<SolveResponse> result) {
    std::optional<Result<SolveResponse>> callback_copy;
    {
      std::lock_guard<std::mutex> lock(mutex);
      slots[index] = std::move(result);
      if (on_result) callback_copy = slots[index];
    }
    cv.notify_all();
    if (callback_copy) {
      std::lock_guard<std::mutex> lock(callback_mutex);
      on_result(index, *callback_copy);
    }
    ResultCallback retired;
    {
      std::lock_guard<std::mutex> lock(mutex);
      ++delivered;
      if (delivered == slots.size()) {
        // Last delivery: drop the user callback so anything it captured
        // (including, via this batch's handle, this very state) is
        // released — otherwise a handle-capturing callback would leak the
        // batch. Safe: every deliverer bumps `delivered` only after its
        // callback phase.
        retired = std::move(on_result);
        on_result = nullptr;
      }
    }
    cv.notify_all();
  }

  bool was_cancelled(std::size_t index) const {
    return batch_cancel.stop_requested() ||
           meta[index].cancel.stop_requested();
  }
};

}  // namespace detail

using detail::BatchState;

namespace {

/// Translate a finished portfolio run into the public result: a certified
/// response, or a classified Status when nothing certified.
Result<SolveResponse> to_response(const runtime::PortfolioResult& run,
                                  const RequestMeta& meta, bool cancelled,
                                  double total_ms) {
  if (!run.ok) {
    bool budget_starved = false;
    std::string first_failure;
    for (const StrategyOutcome& c : run.outcomes) {
      if (c.skip_reason == SkipReason::DeadlineExpired ||
          c.skip_reason == SkipReason::Cancelled) {
        budget_starved = true;
      }
      if (first_failure.empty() && c.state == OutcomeState::Failed) {
        first_failure =
            std::string(strategy_id_name(c.strategy)) + ": " + c.detail;
      }
    }
    if (cancelled) {
      return Status(StatusCode::kCancelled,
                    "request cancelled before any strategy certified");
    }
    if (budget_starved && meta.effective_deadline_ms > 0.0) {
      return Status(StatusCode::kDeadlineExceeded,
                    "deadline of " + std::to_string(meta.effective_deadline_ms) +
                        " ms expired before any strategy certified");
    }
    if (budget_starved) {
      // No deadline and not this request's own token: a coalesced group
      // runs under its leader's budget, so the leader was cancelled.
      return Status(StatusCode::kCancelled,
                    "request cancelled (via the coalesced leader's token) "
                    "before any strategy certified");
    }
    return Status(StatusCode::kInternal,
                  first_failure.empty()
                      ? "no strategy produced a certified result"
                      : "no strategy produced a certified result; first "
                        "failure — " + first_failure);
  }

  SolveResponse response;
  response.period = run.period;
  response.winner = run.winner;
  response.outcomes = run.outcomes;
  for (const StrategyOutcome& out : response.outcomes) {
    switch (out.state) {
      case OutcomeState::Certified:
        ++response.certificate.certified;
        if (out.strategy == run.winner) {
          response.certificate.winner_detail = out.detail;
        }
        break;
      case OutcomeState::Failed:
        ++response.certificate.failed;
        break;
      case OutcomeState::Skipped:
        ++response.certificate.skipped;
        break;
      case OutcomeState::Pruned:
        ++response.certificate.pruned;
        break;
    }
  }
  response.pruning = run.pruning;
  response.trace = run.trace;
  response.provenance.from_cache = run.from_cache;
  response.provenance.coalesced = run.coalesced;
  response.timing.solve_ms = run.from_cache ? 0.0 : run.elapsed_ms;
  response.timing.total_ms = total_ms;
  return response;
}

}  // namespace

// ------------------------------------------------------------ SolveFuture --

bool SolveFuture::ready() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->slots[index_].has_value();
}

void SolveFuture::wait() const {
  if (state_ == nullptr) return;
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->slots[index_].has_value(); });
}

bool SolveFuture::wait_for(double timeout_ms) const {
  if (state_ == nullptr) return false;
  std::unique_lock<std::mutex> lock(state_->mutex);
  return state_->cv.wait_for(
      lock, std::chrono::duration<double, std::milli>(timeout_ms),
      [&] { return state_->slots[index_].has_value(); });
}

Result<SolveResponse> SolveFuture::get() const {
  if (state_ == nullptr) {
    return Status(StatusCode::kInvalidArgument,
                  "get() on a default-constructed SolveFuture");
  }
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->slots[index_].has_value(); });
  return *state_->slots[index_];
}

void SolveFuture::cancel() {
  if (state_ == nullptr) return;
  CancelToken token;
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    token = state_->meta[index_].cancel;
  }
  token.request_stop();
}

// ------------------------------------------------------------- SolveBatch --

std::size_t SolveBatch::size() const {
  return state_ == nullptr ? 0 : state_->slots.size();
}

std::size_t SolveBatch::completed() const {
  if (state_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->delivered;
}

bool SolveBatch::done() const {
  if (state_ == nullptr) return true;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->delivered == state_->slots.size();
}

void SolveBatch::wait_all() {
  if (state_ == nullptr) return;
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock,
                  [&] { return state_->delivered == state_->slots.size(); });
}

bool SolveBatch::wait_all_for(double timeout_ms) {
  if (state_ == nullptr) return true;
  std::unique_lock<std::mutex> lock(state_->mutex);
  return state_->cv.wait_for(
      lock, std::chrono::duration<double, std::milli>(timeout_ms),
      [&] { return state_->delivered == state_->slots.size(); });
}

void SolveBatch::cancel() {
  if (state_ != nullptr) state_->batch_cancel.request_stop();
}

bool SolveBatch::ready(std::size_t index) const {
  if (state_ == nullptr || index >= state_->slots.size()) return false;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->slots[index].has_value();
}

Result<SolveResponse> SolveBatch::get(std::size_t index) const {
  if (state_ == nullptr || index >= state_->slots.size()) {
    return Status(StatusCode::kInvalidArgument,
                  "get(" + std::to_string(index) +
                      ") out of range for this batch");
  }
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->slots[index].has_value(); });
  return *state_->slots[index];
}

SolveFuture SolveBatch::future(std::size_t index) const {
  if (state_ == nullptr || index >= state_->slots.size()) {
    return SolveFuture();
  }
  return SolveFuture(state_, index);
}

// ---------------------------------------------------------------- Service --

struct Service::Impl {
  explicit Impl(ServiceOptions options) : engine(std::move(options)) {}

  runtime::PortfolioEngine engine;
};

Service::Service(ServiceOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Service::~Service() = default;
Service::Service(Service&&) noexcept = default;
Service& Service::operator=(Service&&) noexcept = default;

SolveBatch Service::submit_batch(std::vector<SolveRequest> requests,
                                 ResultCallback on_result) {
  auto state = std::make_shared<BatchState>();
  const std::size_t n = requests.size();
  state->slots.resize(n);
  // An empty batch never delivers, so it never drops the callback: storing
  // one that (indirectly) owns this batch's handle would leak the state.
  if (n > 0) state->on_result = std::move(on_result);
  state->start = FacadeClock::now();
  state->meta.resize(n);

  std::vector<SolveRequest> accepted;
  std::vector<std::pair<std::size_t, Status>> rejected;
  accepted.reserve(n);

  for (std::size_t i = 0; i < n; ++i) {
    SolveRequest& req = requests[i];
    RequestMeta& meta = state->meta[i];
    meta.effective_deadline_ms =
        runtime::resolve_race(impl_->engine.options(), req).budget.deadline_ms;
    meta.cancel = req.cancel;

    Status valid = validate_problem(req.problem);
    if (valid.ok() && std::isnan(req.deadline_ms)) {
      valid = Status(StatusCode::kInvalidArgument, "deadline_ms is NaN");
    }
    if (valid.ok() && !req.problem.feasible()) {
      valid = Status(StatusCode::kFailedPrecondition,
                     "infeasible instance: at least one target is "
                     "unreachable from the source");
    }
    if (!valid.ok()) {
      rejected.emplace_back(i, std::move(valid));
      continue;
    }
    state->engine_to_facade.push_back(i);
    accepted.push_back(std::move(req));
  }

  // Rejections resolve first, on the submitting thread, in index order —
  // before any engine work is dispatched.
  for (auto& [index, status] : rejected) {
    state->deliver(index, std::move(status));
  }

  // The engine calls back concurrently from its workers; to_response runs
  // outside every lock, and deliver() serialises the user callback.
  impl_->engine.submit_batch(
      std::move(accepted), state->batch_cancel,
      [state](std::size_t engine_index,
              const runtime::PortfolioResult& result) {
        std::size_t index = state->engine_to_facade[engine_index];
        state->deliver(index,
                       to_response(result, state->meta[index],
                                   state->was_cancelled(index),
                                   ms_since(state->start)));
      });
  return SolveBatch(state);
}

SolveFuture Service::submit(SolveRequest request) {
  std::vector<SolveRequest> batch;
  batch.push_back(std::move(request));
  return submit_batch(std::move(batch)).future(0);
}

Result<SolveResponse> Service::solve(const SolveRequest& request) {
  return submit(request).get();
}

std::vector<Result<SolveResponse>> Service::solve_batch(
    std::vector<SolveRequest> requests) {
  SolveBatch batch = submit_batch(std::move(requests));
  batch.wait_all();
  // The handle dies with this frame, so move the responses out instead
  // of copying per-strategy outcome vectors through get().
  std::vector<Result<SolveResponse>> results;
  results.reserve(batch.size());
  std::lock_guard<std::mutex> lock(batch.state_->mutex);
  for (auto& slot : batch.state_->slots) {
    results.push_back(std::move(*slot));
  }
  return results;
}

CacheMetrics Service::cache_metrics() const {
  return impl_->engine.cache_metrics();
}

SolveTrace Service::aggregate_trace() const {
  return impl_->engine.aggregate_trace();
}

void Service::clear_cache() { impl_->engine.clear_cache(); }

int Service::thread_count() const { return impl_->engine.thread_count(); }

}  // namespace pmcast

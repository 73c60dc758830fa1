#ifndef HORNSAFE_UTIL_DEADLINE_H_
#define HORNSAFE_UTIL_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/status.h"

namespace hornsafe {

/// A wall-clock budget for one request, carried by value through the
/// pipeline. The default-constructed deadline is infinite (never
/// expires), so existing call sites pay nothing for the plumbing.
///
/// Deadlines degrade verdicts, never correctness: a search that runs
/// out of time reports `Safety::kUndecided` (sound per Theorem 2 — the
/// subset condition is sufficient, not necessary, so "don't know" is
/// always an admissible answer), and an evaluator aborts with
/// `StatusCode::kDeadlineExceeded`. Expiry observed mid-search depends
/// on timing; only an already-expired deadline yields bit-identical
/// results on every run (see DESIGN.md, D13).
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Infinite: never expires.
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }

  /// Expires `ms` milliseconds from now. `After(0)` is already expired
  /// (used by tests that need deterministic expiry).
  static Deadline AfterMillis(int64_t ms) {
    Deadline d;
    d.infinite_ = false;
    d.at_ = Clock::now() + std::chrono::milliseconds(ms);
    return d;
  }

  static Deadline At(Clock::time_point tp) {
    Deadline d;
    d.infinite_ = false;
    d.at_ = tp;
    return d;
  }

  bool infinite() const { return infinite_; }

  bool expired() const { return !infinite_ && Clock::now() >= at_; }

  /// Milliseconds until expiry; 0 when expired, -1 when infinite.
  int64_t remaining_millis() const {
    if (infinite_) return -1;
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        at_ - Clock::now());
    return left.count() < 0 ? 0 : left.count();
  }

 private:
  bool infinite_ = true;
  Clock::time_point at_{};
};

/// Cooperative cancellation flag, shared between a requester and the
/// worker running its analysis. Thread-safe; `Cancel` is sticky.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Why a cooperative computation stopped early. Ordered by precedence:
/// cancellation is checked before the deadline, the deadline before the
/// step budget, so concurrent workers report the same reason for the
/// same stimulus.
enum class StopReason : uint8_t {
  kNone = 0,
  /// The deterministic step budget ran out (the pre-existing guard).
  kBudget,
  /// The wall-clock deadline passed.
  kDeadline,
  /// The request's CancelToken was triggered.
  kCancelled,
};

const char* StopReasonName(StopReason r);

/// The failure-model context threaded through analyzers, searches and
/// evaluators: a deadline plus an optional cancellation token. Copyable
/// and cheap; the default instance never stops anything.
///
/// Checking the deadline calls `steady_clock::now()`, so hot loops call
/// `ShouldStop` only every `kCheckInterval` steps (the step budget stays
/// exact — it is checked on every step by the caller).
struct ExecContext {
  Deadline deadline;
  const CancelToken* cancel = nullptr;

  /// How many loop iterations a hot path may run between clock checks.
  /// Must be a power of two (callers test `(step & (kCheckInterval-1))`).
  static constexpr uint64_t kCheckInterval = 256;

  bool active() const { return !deadline.infinite() || cancel != nullptr; }

  /// Cancellation first, then the deadline (see StopReason).
  StopReason ShouldStop() const {
    if (cancel != nullptr && cancel->cancelled()) {
      return StopReason::kCancelled;
    }
    if (deadline.expired()) return StopReason::kDeadline;
    return StopReason::kNone;
  }

  /// Status form of `ShouldStop` for evaluators: OK when running,
  /// kCancelled / kDeadlineExceeded naming `what` otherwise.
  Status Check(const char* what) const;
};

}  // namespace hornsafe

#endif  // HORNSAFE_UTIL_DEADLINE_H_

#pragma once
/// \file stop_token.hpp
/// \brief Polled cancellation for long-running solver loops.
///
/// A StopSource owns a stop flag and an optional monotonic deadline; a
/// StopToken is a cheap non-owning view of one source that the
/// metaheuristic loops poll every few iterations.  Engines never consume
/// randomness when polling, so a run that finishes without being stopped
/// is bit-identical to the same run without a token — cancellation only
/// ever truncates, it never perturbs.
///
/// The serve layer (src/serve) creates one source per in-flight request to
/// implement per-request deadlines and shutdown-time cancellation; the
/// token is threaded through SaParams/DpsoParams/... so every engine of
/// the library honors it.
///
/// Not std::stop_token: that type cannot express a deadline, and polling
/// it is not guaranteed wait-free.  This one is two relaxed atomic loads.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

namespace cdd {

class StopSource;

/// Non-owning view of a StopSource (or of nothing: a default-constructed
/// token never requests a stop).  Copyable; must not outlive its source.
class StopToken {
 public:
  StopToken() = default;

  /// True when the source was stopped explicitly or its deadline passed.
  bool stop_requested() const;

  /// True when this token is attached to a source at all.
  bool stop_possible() const { return source_ != nullptr; }

 private:
  friend class StopSource;
  explicit StopToken(const StopSource* source) : source_(source) {}
  const StopSource* source_ = nullptr;
};

/// Owner of a stop flag plus an optional steady-clock deadline.
/// RequestStop / stop_requested are thread-safe; SetDeadline and Reset
/// must not race with each other (one controlling thread).
class StopSource {
 public:
  using Clock = std::chrono::steady_clock;

  StopSource() = default;
  explicit StopSource(Clock::time_point deadline) { SetDeadline(deadline); }

  StopSource(const StopSource&) = delete;
  StopSource& operator=(const StopSource&) = delete;

  /// Requests a stop; every token of this source observes it.
  void RequestStop() { stopped_.store(true, std::memory_order_relaxed); }

  /// Arms (or re-arms) the deadline.
  void SetDeadline(Clock::time_point deadline) {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_relaxed);
  }

  /// Clears the flag and the deadline so the source can be reused for the
  /// next request (serve worker slots do this between jobs).
  void Reset() {
    stopped_.store(false, std::memory_order_relaxed);
    deadline_ns_.store(kNoDeadline, std::memory_order_relaxed);
  }

  bool stop_requested() const {
    if (stopped_.load(std::memory_order_relaxed)) return true;
    const std::int64_t deadline =
        deadline_ns_.load(std::memory_order_relaxed);
    return deadline != kNoDeadline &&
           Clock::now().time_since_epoch().count() >= deadline;
  }

  /// A token viewing this source; valid only while the source lives.
  StopToken token() const { return StopToken(this); }

 private:
  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::max();

  std::atomic<bool> stopped_{false};
  std::atomic<std::int64_t> deadline_ns_{kNoDeadline};
};

inline bool StopToken::stop_requested() const {
  return source_ != nullptr && source_->stop_requested();
}

/// How often the serial metaheuristic loops poll their StopToken, in
/// iterations.  Polling reads a clock, so the stride keeps the overhead
/// invisible next to an O(n) objective evaluation.
inline constexpr std::uint64_t kStopCheckStride = 64;

}  // namespace cdd

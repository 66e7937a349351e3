//===- support/Deadline.h - Cooperative deadlines / cancellation -*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Monotonic deadlines checked cooperatively inside the allocator's hot
/// loops, so `DriverOptions::TimeBudgetMs` bounds wall time instead of
/// round count. Three pieces:
///
/// * `Deadline` — a value type wrapping a steady_clock time point (or
///   "none"). Cheap to copy; `sooner()` combines a caller deadline with a
///   stage budget.
/// * `ScopedDeadline` — RAII installer of the calling thread's *ambient*
///   deadline. The driver installs one around each tier; hot loops don't
///   need the token threaded through every signature.
/// * `pollDeadline()` — the per-iteration check. Samples the clock only
///   every 64th call (a thread-local decimation counter), so a worklist
///   loop pays an increment + compare almost always and a clock read
///   rarely. Throws `DeadlineExceeded` once the ambient deadline passes;
///   `tryAllocate` catches it and returns `BUDGET_EXCEEDED`.
///
/// Polls live in: the simplify worklist, the select walks, the optimal
/// search's node visits, and the interference/liveness rebuild loops. A
/// loop body that can run for more than ~a millisecond between polls
/// should add one.
///
//===----------------------------------------------------------------------===//

#ifndef PDGC_SUPPORT_DEADLINE_H
#define PDGC_SUPPORT_DEADLINE_H

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace pdgc {

/// Thrown by pollDeadline()/checkDeadline() when the calling thread's
/// ambient deadline has passed. The hardened driver maps it to a
/// BUDGET_EXCEEDED Status; nothing else should swallow it.
class DeadlineExceeded : public std::runtime_error {
public:
  explicit DeadlineExceeded(const std::string &Msg)
      : std::runtime_error(Msg) {}
};

/// A point in monotonic time work must not run past, or "none".
class Deadline {
public:
  using Clock = std::chrono::steady_clock;
  // A wall clock here would let an NTP step or DST jump expire (or
  // un-expire) every in-flight budget at once.
  static_assert(Clock::is_steady,
                "deadlines must be measured on a monotonic clock");

  /// No deadline: expired() is always false, sooner() yields the other.
  Deadline() = default;

  explicit Deadline(Clock::time_point AtIn) : At(AtIn), Set(true) {}

  /// A deadline \p Ms milliseconds from now; Ms == 0 means none (the
  /// TimeBudgetMs convention: zero disables the budget).
  static Deadline afterMs(std::uint64_t Ms) {
    if (Ms == 0)
      return Deadline();
    return Deadline(Clock::now() + std::chrono::milliseconds(Ms));
  }

  bool isSet() const { return Set; }

  bool expired() const { return Set && Clock::now() >= At; }

  /// The earlier of two deadlines ("none" loses to anything).
  Deadline sooner(Deadline Other) const {
    if (!Set)
      return Other;
    if (!Other.Set || At <= Other.At)
      return *this;
    return Other;
  }

  Clock::time_point time() const { return At; }

private:
  Clock::time_point At{};
  bool Set = false;
};

namespace deadline_detail {

/// The calling thread's ambient deadline; unset-state is encoded as
/// !isSet() so the fast path is one thread-local bool load.
extern thread_local Deadline Ambient;
extern thread_local std::uint32_t PollTick;

/// Slow path of pollDeadline(): reads the clock, throws on expiry, and
/// bumps the deadline.* counters. Out of line so the inline poll stays
/// a handful of instructions.
void pollSlow();

} // namespace deadline_detail

/// Installs \p D as the calling thread's ambient deadline for this scope,
/// *tightened* against any enclosing scope's deadline (an inner stage
/// cannot outlive its caller's budget). Restores the previous ambient on
/// destruction.
class ScopedDeadline {
public:
  explicit ScopedDeadline(Deadline D) : Saved(deadline_detail::Ambient) {
    deadline_detail::Ambient = D.sooner(Saved);
    // An already-expired deadline must surface on the *first* poll, not
    // up to 63 calls into the decimation window — align the tick so the
    // next pollDeadline() takes the slow path. (Queued server requests
    // whose budget lapsed while waiting hit exactly this case.)
    if (deadline_detail::Ambient.expired())
      deadline_detail::PollTick = 63;
  }
  ~ScopedDeadline() { deadline_detail::Ambient = Saved; }

  ScopedDeadline(const ScopedDeadline &) = delete;
  ScopedDeadline &operator=(const ScopedDeadline &) = delete;

private:
  Deadline Saved;
};

/// Cheap per-iteration cancellation check for hot loops. No ambient
/// deadline: one bool load. With one: increments a thread-local tick and
/// samples the clock every 64th call, throwing DeadlineExceeded on
/// expiry. Worst-case overshoot is 63 iterations past the deadline plus
/// one loop body — bound your loop bodies accordingly.
inline void pollDeadline() {
  if (!deadline_detail::Ambient.isSet())
    return;
  if (++deadline_detail::PollTick % 64 == 0)
    deadline_detail::pollSlow();
}

/// Undecimated check for coarse boundaries (between phases, between
/// rounds) where the clock read is noise next to the work just done.
inline void checkDeadline() {
  if (!deadline_detail::Ambient.isSet())
    return;
  deadline_detail::pollSlow();
}

} // namespace pdgc

#endif // PDGC_SUPPORT_DEADLINE_H

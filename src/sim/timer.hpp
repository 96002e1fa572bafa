// One-shot re-armable deadline on virtual time.
//
// Thin RAII wrapper over Engine::schedule_timer/cancel_timer for protocol
// retransmission deadlines: arm() replaces any previous deadline, cancel()
// guarantees the callback will never run, and destruction cancels. The
// callback executes in scheduler context (no process is running), so it
// must only do wake-up work (typically Notifier::notify) — never blocking
// calls, and never the retransmission itself.
#pragma once

#include <functional>
#include <utility>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace mv2gnc::sim {

class DeadlineTimer {
 public:
  explicit DeadlineTimer(Engine& engine) : engine_(engine) {}
  ~DeadlineTimer() { cancel(); }
  DeadlineTimer(const DeadlineTimer&) = delete;
  DeadlineTimer& operator=(const DeadlineTimer&) = delete;

  /// Arm (or re-arm) the deadline at absolute virtual time `at`. A previous
  /// pending deadline is canceled first, so at most one is outstanding.
  void arm(SimTime at, std::function<void()> on_expire) {
    cancel();
    deadline_ = at;
    fired_ = false;
    id_ = engine_.schedule_timer(at, [this, cb = std::move(on_expire)] {
      fired_ = true;
      cb();
    });
  }

  /// Cancel the pending deadline, if any. Safe to call repeatedly.
  void cancel() {
    if (id_ != 0) {
      engine_.cancel_timer(id_);
      id_ = 0;
    }
  }

  /// True while a deadline is scheduled and has not fired or been canceled.
  bool armed() const { return id_ != 0 && !fired_; }

  /// True once the most recently armed deadline's callback has run.
  bool fired() const { return fired_; }

  /// The absolute time of the most recently armed deadline.
  SimTime deadline() const { return deadline_; }

 private:
  Engine& engine_;
  TimerId id_ = 0;
  SimTime deadline_ = 0;
  bool fired_ = false;
};

}  // namespace mv2gnc::sim

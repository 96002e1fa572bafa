// Deterministic discrete-event engine with cooperative processes.
//
// A simulated process is a fiber: a stackful coroutine with its own 8 MiB
// stack that runs on the thread that called Engine::run(). Exactly one
// process runs at a time, and a process gives control back whenever it
// blocks on virtual time (delay) or on a condition (EventFlag / Notifier /
// Channel). Between process slices the engine pops the earliest pending
// event and advances the virtual clock.
//
// Scheduling is dispatch-inline: there is no scheduler fiber. Whichever
// context gives control back (a blocking process, a finishing process, or
// run() itself at the start) runs the dispatch loop in place — executing
// due events and switching straight to the next ready process. A process
// whose own wake-up is the next thing due keeps running without any
// switch at all. The dispatch order (ready FIFO first, then the earliest
// event, seq-ordered within a timestamp) is the only scheduling rule, so
// virtual timings do not depend on how contexts are switched (see
// docs/SIMULATION.md).
//
// The payoff is that code written against the simulated CUDA/MPI APIs looks
// like ordinary blocking code, while the whole run is bit-deterministic:
// same inputs => same event order => same virtual timings.
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/rng.hpp"
#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace mv2gnc::sim {

class Engine;

/// Handle for a cancellable timer (see Engine::schedule_timer). 0 is never a
/// valid id, so value-initialized handles are safely inert.
using TimerId = std::uint64_t;

/// Thrown by Engine::run() when every live process is blocked and no event
/// can ever wake one of them. The message lists each stuck process and the
/// reason string it supplied when it blocked.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown inside a blocked process when the engine tears down early (after
/// a deadlock, after a sibling process threw, or when an Engine with live
/// processes is destroyed): the process resumes with this exception so its
/// stack unwinds and its destructors run. User code should not catch it;
/// the process trampoline swallows it after unwinding.
class ProcessAborted {};

namespace detail {

struct Context;  // a switchable execution context (engine.cpp)
struct Process;  // a simulated process: its fiber and scheduling state

struct ScheduledEvent {
  SimTime at;
  std::uint64_t seq;  // FIFO tie-break for same-time events
  SmallFn action;     // inline storage: no heap allocation per event
  TimerId timer_id = 0;  // nonzero only for cancellable timers
};

struct EventOrder {
  bool operator()(const ScheduledEvent& a, const ScheduledEvent& b) const {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
};

}  // namespace detail

/// A one-shot (resettable) condition a process can wait on.
///
/// trigger() may run from another process slice or from a scheduled event;
/// every waiter becomes runnable at the current virtual time. Once set,
/// wait() returns immediately until reset() is called.
class EventFlag {
 public:
  explicit EventFlag(Engine& engine) : engine_(engine) {}
  EventFlag(const EventFlag&) = delete;
  EventFlag& operator=(const EventFlag&) = delete;

  /// True once trigger() has been called (and reset() has not).
  bool is_set() const;
  /// Set the flag and make all current waiters runnable.
  void trigger();
  /// Clear the flag so future wait() calls block again.
  void reset();
  /// Block the calling process until the flag is set.
  void wait(const std::string& reason = "EventFlag::wait");

 private:
  friend class Engine;
  Engine& engine_;
  bool set_ = false;
  std::vector<detail::Process*> waiters_;
};

/// A counting wake-up: notify() deposits a token, wait() consumes all
/// pending tokens or blocks until one arrives. This is the "progress engine
/// has new work" primitive: MPI ranks block on their Notifier while idle and
/// the fabric/DMA completion events notify it.
class Notifier {
 public:
  explicit Notifier(Engine& engine) : engine_(engine) {}
  Notifier(const Notifier&) = delete;
  Notifier& operator=(const Notifier&) = delete;

  /// Deposit a token and wake the waiter (if any).
  void notify();
  /// Consume all pending tokens, blocking until at least one exists.
  void wait(const std::string& reason = "Notifier::wait");
  /// Consume pending tokens without blocking; returns false if none.
  bool try_consume();

 private:
  friend class Engine;
  Engine& engine_;
  std::uint64_t pending_ = 0;
  detail::Process* waiter_ = nullptr;
};

/// The engine: virtual clock + event queue + cooperative scheduler.
class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time. Callable from anywhere.
  SimTime now() const { return now_; }

  /// Create a process. Its body starts running once run() is called (or at
  /// the next scheduling point if spawned from a running process).
  void spawn(std::string name, std::function<void()> body);

  /// Run until all processes finish. Throws DeadlockError if the system
  /// wedges, or rethrows the first exception escaping a process body or a
  /// scheduled action. Every process runs on the calling thread.
  void run();

  /// Schedule `action` at absolute virtual time `at` (must be >= now()).
  /// Actions run in scheduler context (no process is running while one
  /// executes); they must be short and must not block.
  void schedule_at(SimTime at, SmallFn action);

  /// Schedule `action` after a relative delay.
  void schedule_after(SimTime delay, SmallFn action);

  /// Schedule a cancellable action at absolute virtual time `at`; returns a
  /// handle for cancel_timer(). Like schedule_at, the action runs in
  /// scheduler context and must be short and non-blocking — retransmission
  /// timers only notify() a progress loop, they never retransmit in place.
  TimerId schedule_timer(SimTime at, SmallFn action);

  /// Cancel a timer created by schedule_timer. Returns true if the timer was
  /// still pending (and will now never fire). A canceled timer is skipped
  /// without advancing the virtual clock, so canceled-but-unpopped timers do
  /// not inflate the run's elapsed time.
  bool cancel_timer(TimerId id);

  /// Seed the engine-owned deterministic RNG (fault injection, jitter).
  void seed_rng(std::uint64_t seed);

  /// Next raw 64-bit draw from the engine RNG.
  std::uint64_t rand_u64();

  /// Uniform double in [0, 1) from the engine RNG.
  double rand_uniform();

  /// Uniform integer in [0, bound) from the engine RNG (bound > 0).
  std::uint64_t rand_below(std::uint64_t bound);

  /// Block the calling process for `d` virtual nanoseconds.
  void delay(SimTime d);

  /// Name of the currently running process ("" if called off-process).
  std::string current_process_name() const;

  /// Total number of events executed so far (diagnostic).
  std::uint64_t events_executed() const { return events_executed_; }

  /// Wall-clock seconds spent inside run() so far (real time — the only
  /// place the simulator looks at a wall clock; diagnostics only).
  double run_wall_seconds() const { return wall_seconds_; }

  /// Engine throughput: events executed per wall-clock second inside
  /// run(). 0 before the first run() returns.
  double events_per_wall_second() const {
    return wall_seconds_ > 0.0
               ? static_cast<double>(events_executed_) / wall_seconds_
               : 0.0;
  }

  /// Wall-clock seconds burned per simulated (virtual) second — the
  /// scale-out cost metric bench_scaleout tracks. 0 until the clock moves.
  double wall_per_virtual_second() const {
    const double virt = to_sec(now());
    return virt > 0.0 ? wall_seconds_ / virt : 0.0;
  }

 private:
  friend class EventFlag;
  friend class Notifier;
  template <typename T>
  friend class Channel;

  // The running process; throws std::logic_error when called from outside
  // a process (run()'s caller or a scheduled action).
  detail::Process* current() const;
  void make_ready(detail::Process* p);
  // Blocks the calling process; `reason` shows up in deadlock reports.
  void block_current(const std::string& reason);
  // The dispatch loop: run due events and switch to the next ready
  // process, or declare the simulation stopped (quiescent) and switch back
  // to run(). Called by whichever context just gave control up: `self` is
  // the blocking process (so a self-handoff needs no switch), the finished
  // process whose fiber will never resume, or nullptr from run() itself.
  void dispatch(detail::Process* self);
  // Saves the running context into `from` and resumes `to`. Returns once
  // some later switch resumes `from`; never returns when `from` belongs to
  // a finished process.
  void switch_context(detail::Context& from, detail::Context& to,
                      bool from_finished);
  // Bookkeeping on entry to a context, right after a switch lands in it.
  void on_context_entered(void* fake_stack);
  // Fiber entry point; never returns.
  static void fiber_main(unsigned engine_hi, unsigned engine_lo);
  // Unwinds every started, unfinished process with ProcessAborted and
  // marks the never-started ones finished. Runs on run()'s stack (or the
  // destructor's).
  void abort_all();
  // Unmaps the stacks of finished processes. Runs on run()'s stack, so no
  // stack being freed is the one in use.
  void release_finished_stacks();

  std::vector<std::unique_ptr<detail::Process>> processes_;
  std::deque<detail::Process*> ready_;
  std::priority_queue<detail::ScheduledEvent, std::vector<detail::ScheduledEvent>,
                      detail::EventOrder>
      queue_;
  detail::Process* running_ = nullptr;
  // run()'s own context, which the fibers switch back to when the
  // simulation stops or tears down.
  std::unique_ptr<detail::Context> main_ctx_;
  // The context the latest switch left (sanitizer bookkeeping).
  detail::Context* switched_from_ = nullptr;
  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  TimerId next_timer_id_ = 1;
  std::unordered_set<TimerId> pending_timers_;
  SplitMix64 rng_;
  std::uint64_t events_executed_ = 0;
  double wall_seconds_ = 0.0;
  bool aborting_ = false;
  bool in_run_ = false;
  bool sim_stopped_ = false;  // dispatch found nothing left to run
  std::exception_ptr first_error_;
};

}  // namespace mv2gnc::sim

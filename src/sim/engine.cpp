#include "sim/engine.hpp"

#include <cxxabi.h>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <system_error>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#define MV2GNC_ASAN_FIBERS 1
#endif

namespace mv2gnc::sim {

std::string format_time(SimTime t) {
  char buf[64];
  if (t < 10'000) {
    std::snprintf(buf, sizeof(buf), "%" PRId64 " ns", t);
  } else if (t < 10'000'000) {
    std::snprintf(buf, sizeof(buf), "%.2f us", to_us(t));
  } else if (t < 10'000'000'000LL) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", to_ms(t));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f s", to_sec(t));
  }
  return buf;
}

namespace detail {

namespace {

// Every fiber gets the stack a default pthread gets, so a rank body has the
// headroom it would have as an OS thread. The mapping is MAP_NORESERVE:
// only the pages a fiber touches count against memory.
constexpr std::size_t kStackBytes = std::size_t{8} << 20;

// The C++ runtime's per-thread exception bookkeeping (__cxa_eh_globals, as
// laid out by libsupc++ and libc++abi): the chain of exceptions being
// handled and the count of exceptions thrown but not yet caught. All fibers
// share the thread, so each context keeps its own copy across switches —
// otherwise a process blocked inside a catch handler would see its
// exception freed by another process's throw and catch.
struct EhGlobals {
  void* caught_exceptions;
  unsigned int uncaught_exceptions;
#if defined(__ARM_EABI__)
  void* propagating_exceptions;
#endif
};

void save_eh_globals(EhGlobals& to) {
  std::memcpy(&to, abi::__cxa_get_globals(), sizeof(EhGlobals));
}

void load_eh_globals(const EhGlobals& from) {
  std::memcpy(abi::__cxa_get_globals(), &from, sizeof(EhGlobals));
}

void unpoison_stack([[maybe_unused]] void* bottom,
                    [[maybe_unused]] std::size_t size) {
#if defined(MV2GNC_ASAN_FIBERS)
  // Frames of an unwound fiber leave redzones in the shadow memory; the
  // next mapping at this address must not inherit them.
  ASAN_UNPOISON_MEMORY_REGION(bottom, size);
#endif
}

// A fiber stack: kStackBytes of read-write memory above one PROT_NONE guard
// page, so an overflow faults instead of corrupting a neighbour.
class FiberStack {
 public:
  FiberStack() {
    const long page = sysconf(_SC_PAGESIZE);
    guard_bytes_ = page > 0 ? static_cast<std::size_t>(page) : 4096;
    const std::size_t bytes = guard_bytes_ + kStackBytes;
    void* map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                     -1, 0);
    if (map == MAP_FAILED) {
      throw std::system_error(errno, std::generic_category(),
                              "mmap of a fiber stack");
    }
    if (mprotect(map, guard_bytes_, PROT_NONE) != 0) {
      const int err = errno;
      munmap(map, bytes);
      throw std::system_error(err, std::generic_category(),
                              "mprotect of a fiber stack guard page");
    }
    map_ = map;
    unpoison_stack(bottom(), size());
  }
  ~FiberStack() { release(); }
  FiberStack(const FiberStack&) = delete;
  FiberStack& operator=(const FiberStack&) = delete;

  /// Lowest usable address (just above the guard page).
  void* bottom() const { return static_cast<char*>(map_) + guard_bytes_; }
  std::size_t size() const { return kStackBytes; }

  /// Unmaps the stack. Must not be called while running on it.
  void release() {
    if (map_ == nullptr) return;
    unpoison_stack(bottom(), size());
    munmap(map_, guard_bytes_ + kStackBytes);
    map_ = nullptr;
  }

 private:
  void* map_ = nullptr;
  std::size_t guard_bytes_ = 0;
};

}  // namespace

enum class ProcState { kReady, kRunning, kBlocked, kFinished };

// Everything needed to resume an execution context: a process fiber, or
// run()'s own stack.
struct Context {
  ucontext_t uc{};
  EhGlobals eh{};  // a fresh fiber handles and propagates nothing
  // The stack bounds and fake-stack handle the address sanitizer tracks
  // for this context; unused in other builds.
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
  void* fake_stack = nullptr;
};

struct Process {
  std::string name;
  ProcState state = ProcState::kReady;
  bool started = false;  // its fiber has been entered
  std::string wait_reason;
  std::function<void()> body;
  FiberStack stack;
  Context ctx;
};

}  // namespace detail

// ---------------------------------------------------------------------------
// EventFlag
// ---------------------------------------------------------------------------

bool EventFlag::is_set() const { return set_; }

void EventFlag::trigger() {
  if (set_) return;
  set_ = true;
  for (detail::Process* p : waiters_) engine_.make_ready(p);
  waiters_.clear();
}

void EventFlag::reset() { set_ = false; }

void EventFlag::wait(const std::string& reason) {
  while (!set_) {
    waiters_.push_back(engine_.current());
    engine_.block_current(reason);
  }
}

// ---------------------------------------------------------------------------
// Notifier
// ---------------------------------------------------------------------------

void Notifier::notify() {
  ++pending_;
  if (waiter_ != nullptr) {
    engine_.make_ready(waiter_);
    waiter_ = nullptr;
  }
}

void Notifier::wait(const std::string& reason) {
  while (pending_ == 0) {
    detail::Process* self = engine_.current();
    if (waiter_ != nullptr && waiter_ != self) {
      throw std::logic_error("Notifier: more than one concurrent waiter");
    }
    waiter_ = self;
    engine_.block_current(reason);
  }
  pending_ = 0;
}

bool Notifier::try_consume() {
  if (pending_ == 0) return false;
  pending_ = 0;
  return true;
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine() : main_ctx_(std::make_unique<detail::Context>()) {}

Engine::~Engine() {
  if (!aborting_) abort_all();
}

void Engine::spawn(std::string name, std::function<void()> body) {
  auto proc = std::make_unique<detail::Process>();
  proc->name = std::move(name);
  proc->body = std::move(body);
  detail::Context& ctx = proc->ctx;
  if (getcontext(&ctx.uc) != 0) {
    throw std::system_error(errno, std::generic_category(), "getcontext");
  }
  ctx.uc.uc_stack.ss_sp = proc->stack.bottom();
  ctx.uc.uc_stack.ss_size = proc->stack.size();
  ctx.uc.uc_link = nullptr;  // fiber_main never returns
  ctx.stack_bottom = proc->stack.bottom();
  ctx.stack_size = proc->stack.size();
  // makecontext passes int-sized arguments only: split the engine pointer.
  const auto bits =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(this));
  makecontext(&ctx.uc, reinterpret_cast<void (*)()>(&Engine::fiber_main), 2,
              static_cast<unsigned>(bits >> 32),
              static_cast<unsigned>(bits & 0xffffffffu));
  detail::Process* p = proc.get();
  processes_.push_back(std::move(proc));
  ready_.push_back(p);
}

void Engine::schedule_at(SimTime at, SmallFn action) {
  if (at < now_) at = now_;
  queue_.push(detail::ScheduledEvent{at, seq_++, std::move(action)});
}

void Engine::schedule_after(SimTime delay, SmallFn action) {
  const SimTime at = (delay < 0) ? now_ : now_ + delay;
  queue_.push(detail::ScheduledEvent{at, seq_++, std::move(action)});
}

TimerId Engine::schedule_timer(SimTime at, SmallFn action) {
  if (at < now_) at = now_;
  TimerId id = next_timer_id_++;
  pending_timers_.insert(id);
  queue_.push(detail::ScheduledEvent{at, seq_++, std::move(action), id});
  return id;
}

bool Engine::cancel_timer(TimerId id) { return pending_timers_.erase(id) > 0; }

void Engine::seed_rng(std::uint64_t seed) { rng_.seed(seed); }

std::uint64_t Engine::rand_u64() { return rng_.next(); }

double Engine::rand_uniform() { return rng_.uniform(); }

std::uint64_t Engine::rand_below(std::uint64_t bound) {
  return rng_.below(bound);
}

void Engine::delay(SimTime d) {
  detail::Process* self = current();
  const SimTime at = now_ + (d < 0 ? 0 : d);
  queue_.push(detail::ScheduledEvent{at, seq_++,
                                     [this, self] { make_ready(self); }});
  block_current("delay");
}

std::string Engine::current_process_name() const {
  return running_ != nullptr ? running_->name : std::string{};
}

detail::Process* Engine::current() const {
  // running_ is null on run()'s stack and while a scheduled action runs.
  if (running_ == nullptr) {
    throw std::logic_error(
        "engine blocking primitive called outside a simulated process");
  }
  return running_;
}

void Engine::make_ready(detail::Process* p) {
  if (p->state == detail::ProcState::kFinished) return;
  if (p->state == detail::ProcState::kReady) return;  // already queued
  p->state = detail::ProcState::kReady;
  ready_.push_back(p);
}

void Engine::block_current(const std::string& reason) {
  // A process unwinding under abort_all() must not wait again.
  if (aborting_) throw ProcessAborted{};
  detail::Process* self = running_;
  self->state = detail::ProcState::kBlocked;
  self->wait_reason = reason;
  running_ = nullptr;
  // Dispatch inline on this fiber: run due events and switch to the next
  // ready process. If an event makes `self` ready first, dispatch returns
  // without switching at all.
  dispatch(self);
  if (aborting_) throw ProcessAborted{};
}

void Engine::dispatch(detail::Process* self) {
  const bool finished =
      self != nullptr && self->state == detail::ProcState::kFinished;
  detail::Context& here = self != nullptr ? self->ctx : *main_ctx_;
  for (;;) {
    if (aborting_ || first_error_) {
      // Teardown belongs to run(); hand control back to it.
      if (self != nullptr) switch_context(here, *main_ctx_, finished);
      return;
    }
    if (!ready_.empty()) {
      detail::Process* p = ready_.front();
      ready_.pop_front();
      if (p->state != detail::ProcState::kReady) continue;
      p->state = detail::ProcState::kRunning;
      running_ = p;
      if (p != self) {
        p->started = true;
        switch_context(here, p->ctx, finished);
      }
      return;
    }
    if (!queue_.empty()) {
      detail::ScheduledEvent ev =
          std::move(const_cast<detail::ScheduledEvent&>(queue_.top()));
      queue_.pop();
      if (ev.timer_id != 0) {
        // Canceled timers are discarded without touching the clock: a
        // retransmission timer armed far in the future must not stretch
        // the fault-free run's elapsed time after its transfer completed.
        if (pending_timers_.erase(ev.timer_id) == 0) continue;
      }
      now_ = ev.at;
      ++events_executed_;
      // No process is running while an action executes, so it may freely
      // use the non-blocking API (trigger flags, notify, schedule). An
      // exception ends the run like one escaping a process body.
      try {
        ev.action();
      } catch (...) {
        if (!first_error_) first_error_ = std::current_exception();
      }
      continue;
    }
    // No runnable process and no pending event: the simulation is over —
    // run() decides whether that means "finished" or "deadlocked".
    sim_stopped_ = true;
    if (self != nullptr) switch_context(here, *main_ctx_, finished);
    return;
  }
}

void Engine::switch_context(detail::Context& from, detail::Context& to,
                            [[maybe_unused]] bool from_finished) {
  save_eh_globals(from.eh);
  load_eh_globals(to.eh);
  switched_from_ = &from;
#if defined(MV2GNC_ASAN_FIBERS)
  // A finished fiber passes no fake-stack slot, so the sanitizer frees its
  // fake stack now.
  __sanitizer_start_switch_fiber(from_finished ? nullptr : &from.fake_stack,
                                 to.stack_bottom, to.stack_size);
#endif
  swapcontext(&from.uc, &to.uc);
  on_context_entered(from.fake_stack);
}

void Engine::on_context_entered([[maybe_unused]] void* fake_stack) {
#if defined(MV2GNC_ASAN_FIBERS)
  const void* bottom = nullptr;
  std::size_t size = 0;
  __sanitizer_finish_switch_fiber(fake_stack, &bottom, &size);
  // Learn the bounds of the stack just left. For fibers they are known from
  // spawn; this is how run()'s own stack gets its bounds before any fiber
  // switches back to it.
  switched_from_->stack_bottom = bottom;
  switched_from_->stack_size = size;
#endif
}

void Engine::fiber_main(unsigned engine_hi, unsigned engine_lo) {
  auto* engine = reinterpret_cast<Engine*>(static_cast<std::uintptr_t>(
      (std::uint64_t{engine_hi} << 32) | engine_lo));
  engine->on_context_entered(nullptr);
  detail::Process* p = engine->running_;
  try {
    p->body();
  } catch (const ProcessAborted&) {
    // Expected during teardown; fall through to finish bookkeeping.
  } catch (...) {
    if (!engine->first_error_) engine->first_error_ = std::current_exception();
  }
  p->state = detail::ProcState::kFinished;
  engine->running_ = nullptr;
  // Keep the simulation moving from this fiber; it is never resumed.
  engine->dispatch(p);
  std::abort();
}

void Engine::run() {
  const auto wall_start = std::chrono::steady_clock::now();
  if (in_run_) throw std::logic_error("Engine::run() is not reentrant");
  in_run_ = true;
  sim_stopped_ = false;
  const auto finish = [&] {
    release_finished_stacks();
    in_run_ = false;
    wall_seconds_ += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();
  };
  // Kick the simulation off; control comes back here once it stops: every
  // process finished or blocked for good, or one of them failed.
  dispatch(nullptr);
  if (first_error_) {
    abort_all();
    finish();
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
  // Quiescent: everything finished, or every live process is stuck.
  bool any_blocked = false;
  std::ostringstream diag;
  for (const auto& p : processes_) {
    if (p->state == detail::ProcState::kBlocked) {
      any_blocked = true;
      diag << "\n  process '" << p->name << "' blocked on: "
           << p->wait_reason;
    }
  }
  if (any_blocked) {
    abort_all();
    finish();
    throw DeadlockError("simulation deadlock at t=" + format_time(now_) +
                        diag.str());
  }
  finish();
}

void Engine::abort_all() {
  aborting_ = true;
  // Index loop: an unwinding process may still spawn (appending here).
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    detail::Process* p = processes_[i].get();
    if (p->state == detail::ProcState::kFinished) continue;
    if (!p->started) {
      p->state = detail::ProcState::kFinished;  // never runs its body
      continue;
    }
    // Resume it: its pending block_current() throws ProcessAborted, the
    // stack unwinds, and the finished fiber switches back here.
    p->state = detail::ProcState::kRunning;
    running_ = p;
    switch_context(*main_ctx_, p->ctx, false);
    running_ = nullptr;
  }
}

void Engine::release_finished_stacks() {
  for (const auto& p : processes_) {
    if (p->state == detail::ProcState::kFinished) p->stack.release();
  }
}

}  // namespace mv2gnc::sim

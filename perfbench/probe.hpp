// Measurement plumbing of the benchmark runner: host clocks, rusage, the
// host-speed probe, the exclusion ledger for the runner's own per-op
// work, and the span tracer with its Chrome trace-event export.
//
// Everything here observes the simulator from outside, through public
// accessors; nothing changes what the simulator does. Rank bodies run as
// OS threads but only the thread holding the engine's run token executes,
// and the token is handed over under the engine's mutex, so state shared
// by all rank threads (the ledger, the tracer) needs no further locking.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Host nanoseconds on the monotonic clock.
inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process-wide CPU time and context switches (all threads).
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::int64_t switches = 0;  // voluntary + involuntary

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.switches = ru.ru_nvcsw + ru.ru_nivcsw;
    return u;
  }
  friend Usage operator-(const Usage& a, const Usage& b) {
    return {a.user_s - b.user_s, a.sys_s - b.sys_s, a.switches - b.switches};
  }
  friend Usage& operator+=(Usage& a, const Usage& b) {
    a.user_s += b.user_s;
    a.sys_s += b.sys_s;
    a.switches += b.switches;
    return a;
  }
};

/// Peak resident set of this process, in MB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

/// Seconds this host takes for a fixed mix of what the simulator's host
/// time is made of: run-token hand-offs between two threads on the
/// current CPU, and cache-missing memory updates. Simulator-independent,
/// so it tracks how fast the host itself runs right now.
double host_speed_probe();

/// Host work the runner does for itself inside a measured phase: writing
/// per-op stamps into buffers and checking what arrived. It reads and
/// writes simulated device memory directly (it is host memory underneath),
/// so it costs no virtual time and no simulator event; its wall time and
/// CPU are subtracted from the phase so the host metrics are the
/// simulator's alone.
struct Ledger {
  std::int64_t wall_ns = 0;
  Usage usage;
};

class Excluded {
 public:
  explicit Excluded(Ledger& ledger)
      : ledger_(ledger), h0_(host_ns()), u0_(Usage::now()) {}
  ~Excluded() {
    ledger_.usage += Usage::now() - u0_;
    ledger_.wall_ns += host_ns() - h0_;
  }
  Excluded(const Excluded&) = delete;
  Excluded& operator=(const Excluded&) = delete;

 private:
  Ledger& ledger_;
  std::int64_t h0_;
  Usage u0_;
};

/// One traced interval on both clocks. `op` is shared by every rank's
/// spans of one operation (-1 outside operations); `parent` is the id of
/// the enclosing span on the same rank (-1 for a root).
struct Span {
  const char* name = "";
  int rank = 0;
  std::int64_t op = -1;
  int id = 0;
  int parent = -1;
  std::int64_t v0 = 0, v1 = 0;  // virtual ns
  std::int64_t h0 = 0, h1 = 0;  // host ns
  const char* size_class = nullptr;
  const char* layout = nullptr;
};

/// In-memory span store, written out once at exit. Disabled tracers
/// record nothing, so untraced runs pay only a branch per call site.
class Tracer {
 public:
  Tracer(bool enabled, int ranks) : enabled_(enabled), open_(ranks) {}

  bool enabled() const { return enabled_; }

  int begin(int rank, const char* name, std::int64_t op, std::int64_t virt) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.rank = rank;
    s.op = op;
    s.id = static_cast<int>(spans_.size());
    auto& stack = open_[static_cast<std::size_t>(rank)];
    s.parent = stack.empty() ? -1 : stack.back();
    s.v0 = virt;
    s.h0 = host_ns();
    spans_.push_back(s);
    stack.push_back(s.id);
    return s.id;
  }

  void end(int id, std::int64_t virt) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.h1 = host_ns();
    s.v1 = virt;
    open_[static_cast<std::size_t>(s.rank)].pop_back();
  }

  void label(int id, const char* size_class, const char* layout) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].size_class = size_class;
    spans_[static_cast<std::size_t>(id)].layout = layout;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON: one track per rank on the virtual clock,
  /// with the host clock, ids and op in each event's args.
  bool write_chrome(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::vector<int>> open_;  // per-rank stack of open span ids
};

}  // namespace perfbench

#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>

#include "apps/stencil2d.hpp"
#include "core/pack_plan.hpp"
#include "core/protocol.hpp"
#include "mpi/cluster.hpp"
#include "mpi/coll.hpp"
#include "probe.hpp"
#include "sim/rng.hpp"

namespace perfbench {
namespace {

namespace apps = mv2gnc::apps;
namespace core = mv2gnc::core;
namespace mpisim = mv2gnc::mpisim;
namespace sim = mv2gnc::sim;
using mpisim::Context;
using mpisim::Datatype;

// ---------------------------------------------------------------------------
// Seeded inputs. The seed drives draw order, layouts and payload stamps;
// the library sees only the generated buffers and datatypes (its own
// engine RNG keeps its default seed).

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Independent streams of one seed, one per purpose.
enum Stream : std::uint64_t { kSchedule = 1, kLayout, kStamp, kCanary, kFill };

std::uint64_t stream_key(std::uint64_t seed, Stream what, std::uint64_t i = 0) {
  return mix64(mix64(seed ^ (static_cast<std::uint64_t>(what) << 56)) + i);
}

void fill_stream(std::byte* dst, std::size_t n, std::uint64_t key) {
  sim::SplitMix64 g(key);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t w = g.next();
    std::memcpy(dst + i, &w, 8);
  }
  if (i < n) {
    const std::uint64_t w = g.next();
    std::memcpy(dst + i, &w, n - i);
  }
}

// Canary byte of one op: never zero, so a zero-filled landing is caught.
std::byte canary_of(std::uint64_t seed, std::uint64_t op) {
  return static_cast<std::byte>((stream_key(seed, kCanary, op) % 255) + 1);
}

template <typename T>
void shuffle(std::vector<T>& v, sim::SplitMix64& g) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[g.below(i)]);
  }
}

const char* size_name(std::size_t bytes) {
  switch (bytes) {
    case 16: return "16B";
    case 64: return "64B";
    case 256: return "256B";
    case 1024: return "1KB";
    case 4096: return "4KB";
    case 64 * 1024: return "64KB";
    case 256 * 1024: return "256KB";
    case 1024 * 1024: return "1MB";
    case 4 * 1024 * 1024: return "4MB";
  }
  return "other";
}

// ---------------------------------------------------------------------------
// Message layouts. The benchmark keeps its own list of data runs for every
// layout: that list, not the library's flattening, is the ground truth the
// checks compare against.

enum class Shape { kContig, kVector, kSubpattern, kIrregular };

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::kContig: return "contig";
    case Shape::kVector: return "vector";
    case Shape::kSubpattern: return "subpattern";
    case Shape::kIrregular: return "irregular";
  }
  return "?";
}

core::LayoutClass plan_class(Shape s) {
  switch (s) {
    case Shape::kContig: return core::LayoutClass::kContiguous;
    case Shape::kVector: return core::LayoutClass::kSingleVector;
    case Shape::kSubpattern: return core::LayoutClass::kSubPatterned;
    case Shape::kIrregular: return core::LayoutClass::kIrregular;
  }
  return core::LayoutClass::kIrregular;
}

// `count` blocks of `bytes` every `stride` bytes, from `offset`.
struct Run {
  std::int64_t offset = 0;
  std::size_t bytes = 0;
  std::size_t count = 1;
  std::int64_t stride = 0;
};

struct Layout {
  Shape shape = Shape::kContig;
  std::size_t bytes = 0;    // payload
  std::size_t extent = 0;   // buffer span the message touches
  std::vector<Run> runs;    // in packed-stream order

  // A fresh handle for one rank (each process commits its own types).
  Datatype make_type() const {
    const Datatype f = Datatype::float32();
    const int floats = static_cast<int>(bytes / 4);
    switch (shape) {
      case Shape::kContig: return Datatype::contiguous(floats, f);
      case Shape::kVector: return Datatype::vector(floats, 1, 2, f);
      case Shape::kSubpattern: {
        std::vector<int> lens;
        std::vector<std::int64_t> displs;
        for (const Run& r : runs) {
          for (std::size_t i = 0; i < r.count; ++i) {
            lens.push_back(static_cast<int>(r.bytes / 4));
            displs.push_back(r.offset + static_cast<std::int64_t>(i) * r.stride);
          }
        }
        return Datatype::hindexed(lens, displs, f);
      }
      case Shape::kIrregular: {
        std::vector<int> lens;
        std::vector<int> displs;
        for (const Run& r : runs) {
          lens.push_back(static_cast<int>(r.bytes / 4));
          displs.push_back(static_cast<int>(r.offset / 4));
        }
        return Datatype::indexed(lens, displs, f);
      }
    }
    throw std::logic_error("bad shape");
  }

  // Expected image of a landing buffer: canary everywhere, the packed
  // stamp `packed` scattered over the data runs.
  void build_image(std::vector<std::byte>& img, const std::byte* packed,
                   std::byte canary) const {
    img.assign(extent, canary);
    std::size_t pos = 0;
    for (const Run& r : runs) {
      for (std::size_t i = 0; i < r.count; ++i) {
        std::memcpy(img.data() + r.offset + static_cast<std::int64_t>(i) * r.stride,
                    packed + pos, r.bytes);
        pos += r.bytes;
      }
    }
  }
};

Layout make_layout(Shape shape, std::size_t bytes, sim::SplitMix64& g) {
  Layout l;
  l.shape = shape;
  l.bytes = bytes;
  switch (shape) {
    case Shape::kContig:
      l.runs.push_back({0, bytes, 1, static_cast<std::int64_t>(bytes)});
      l.extent = bytes;
      break;
    case Shape::kVector:  // the paper's Fig-5 vector(n, 1, 2, float)
      l.runs.push_back({0, 4, bytes / 4, 8});
      l.extent = 2 * bytes - 4;
      break;
    case Shape::kSubpattern: {
      // Four regular regions (64..512 B blocks at twice their length), in
      // seeded order: hindexed of a few uniform sub-patterns.
      std::vector<std::size_t> blocks{64, 128, 256, 512};
      shuffle(blocks, g);
      std::int64_t at = 0;
      for (std::size_t b : blocks) {
        const std::size_t rows = bytes / 4 / b;
        l.runs.push_back({at, b, rows, static_cast<std::int64_t>(2 * b)});
        at += static_cast<std::int64_t>(rows * 2 * b);
      }
      l.extent = static_cast<std::size_t>(at);
      break;
    }
    case Shape::kIrregular: {
      // Seeded indexed: block and gap lengths uniform in 1..63 floats.
      std::size_t left = bytes / 4;
      std::int64_t at = 0;
      while (left > 0) {
        at += static_cast<std::int64_t>(4 * (1 + g.below(63)));
        const std::size_t len = std::min<std::size_t>(left, 1 + g.below(63));
        l.runs.push_back({at, 4 * len, 1, static_cast<std::int64_t>(4 * len)});
        at += static_cast<std::int64_t>(4 * len);
        left -= len;
      }
      l.extent = static_cast<std::size_t>(at);
      break;
    }
  }
  // Input sanity: the library must classify the layout as intended, or
  // the workload would not exercise the pack-plan class it claims to.
  Datatype t = l.make_type();
  t.commit();
  if (core::PackPlan::build(t, 1)->layout() != plan_class(shape) ||
      t.size() != bytes) {
    throw std::logic_error(std::string("layout ") + shape_name(shape) +
                           " of " + size_name(bytes) +
                           " is not in its pack-plan class");
  }
  return l;
}

// ---------------------------------------------------------------------------
// Measurement harness shared by the rank bodies of one repetition.

struct Snapshot {
  bool taken = false;
  std::int64_t host = 0;
  std::int64_t virt = 0;
  Ledger ledger;
  Usage usage;
  std::uint64_t events = 0;
  std::vector<mpisim::RankStats> ranks;
  std::vector<mpisim::detail::CollOpStats> allreduce;
  core::PlanCacheStats plan;
};

class SpanScope {
 public:
  SpanScope(Tracer& t, Context& ctx, const char* name, std::int64_t op = -1)
      : t_(t), ctx_(ctx), id_(t.begin(ctx.rank, name, op, ctx.now())) {}
  ~SpanScope() { t_.end(id_, ctx_.now()); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  Context& ctx_;
  int id_;
};

class Harness {
 public:
  Harness(const Options& opt, const mpisim::ClusterConfig& cfg,
          std::uint64_t ops, int checkers_per_op)
      : opt(opt),
        cluster(cfg),
        tracer(opt.trace, cfg.ranks),
        roots_(static_cast<std::size_t>(cfg.ranks), -1),
        checks_(ops, 0),
        bad_(ops, 0),
        checkers_(checkers_per_op) {}

  const Options& opt;
  const std::int64_t setup_start = host_ns();  // taken before the Cluster
  mpisim::Cluster cluster;
  Tracer tracer;
  Ledger ledger;

  std::uint64_t ops() const { return checks_.size(); }

  /// Every rank calls this right after the barrier that ends set-up.
  void start_timed(Context& ctx) {
    if (ctx.rank == 0) begin_ = snapshot(ctx);
    roots_[static_cast<std::size_t>(ctx.rank)] =
        tracer.begin(ctx.rank, "bench.timed", -1, ctx.now());
  }

  /// Every rank calls this after its last timed op. Rank 0's clocks close
  /// the timed phase.
  void stop_timed(Context& ctx) {
    tracer.end(roots_[static_cast<std::size_t>(ctx.rank)], ctx.now());
    if (ctx.rank == 0) {
      end_.host = host_ns();
      end_.virt = ctx.now();
      end_.ledger = ledger;
      end_.usage = Usage::now();
      end_.events = ctx.engine->events_executed();
    }
  }

  /// Every rank calls this after a barrier that follows stop_timed, so the
  /// last op's trailing acknowledgements land in the counters.
  void close_counters(Context& ctx) {
    if (ctx.rank != 0) return;
    const Snapshot s = snapshot(ctx);
    end_.ranks = s.ranks;
    end_.allreduce = s.allreduce;
    end_.plan = s.plan;
    end_.taken = true;
  }

  /// Outcome of one checker's look at timed op `op`.
  void checked(std::uint64_t op, bool ok, const char* what) {
    ++checks_[op];
    if (!ok) {
      bad_[op] = 1;
      note(std::string(what) + " wrong in timed op " + std::to_string(op));
    }
  }

  /// A failure outside the timed ops (warm-up, audits, final checks).
  void fail(const std::string& what) {
    ++other_failures_;
    note(what);
  }

  /// Op index whose delivered bytes --corrupt flips (-1: none).
  std::int64_t corrupt_op() const {
    return opt.corrupt ? static_cast<std::int64_t>(ops() / 2) : -1;
  }

  void set_stencil_compute(double per_iter_us, double loop_per_iter_us) {
    stencil_compute_us_ = per_iter_us;
    stencil_loop_us_ = loop_per_iter_us;
  }

  /// Cluster::run(body); an exception a rank throws fails the repetition.
  void run(const std::function<void(Context&)>& body) {
    try {
      cluster.run(body);
    } catch (const std::exception& e) {
      fail(std::string("run aborted: ") + e.what());
    }
  }

  Rep finish(std::uint64_t payload_bytes);

 private:
  Snapshot snapshot(Context& ctx) {
    Snapshot s;
    s.taken = true;
    s.host = host_ns();
    s.virt = ctx.now();
    s.ledger = ledger;
    s.usage = Usage::now();
    s.events = ctx.engine->events_executed();
    for (int r = 0; r < ctx.size; ++r) {
      s.ranks.push_back(cluster.rank_stats(r));
      s.allreduce.push_back(cluster.coll_stats(r).allreduce);
    }
    s.plan = mpisim::Cluster::plan_cache_stats();
    return s;
  }

  void note(std::string what) {
    if (errors_.size() < 8) errors_.push_back(std::move(what));
  }

  void audit(Rep& rep);
  void add_layers(Rep& rep, std::uint64_t payload_bytes);
  void add_span_layers(Rep& rep);

  Snapshot begin_, end_;
  std::vector<int> roots_;
  std::vector<std::uint8_t> checks_;
  std::vector<std::uint8_t> bad_;
  int checkers_;
  std::uint64_t other_failures_ = 0;
  std::vector<std::string> errors_;
  double stencil_compute_us_ = 0.0;
  double stencil_loop_us_ = 0.0;
};

void Harness::audit(Rep& rep) {
  std::uint64_t retransmits = 0, failures = 0, tracked = 0;
  for (int r = 0; r < cluster.config().ranks; ++r) {
    const std::string v = cluster.vbuf_audit(r);
    if (!v.empty()) fail("vbuf audit rank " + std::to_string(r) + ": " + v);
    tracked += cluster.tracked_rendezvous(r);
    if (cluster.vbufs_in_use(r) != cluster.graveyard_slots(r)) {
      fail("rank " + std::to_string(r) + " holds " +
           std::to_string(cluster.vbufs_in_use(r)) + " vbufs but " +
           std::to_string(cluster.graveyard_slots(r)) + " graveyard slots");
    }
    const core::RetryStats& rs = cluster.retry_stats(r);
    retransmits += rs.total_retransmits();
    failures += rs.transfer_failures;
  }
  if (tracked != 0) {
    fail(std::to_string(tracked) + " rendezvous receivers still tracked");
  }
  rep.layers.emplace_back("core.retry.retransmits",
                          static_cast<double>(retransmits));
  rep.layers.emplace_back("core.retry.failures", static_cast<double>(failures));
  rep.layers.emplace_back("core.rndv.tracked", static_cast<double>(tracked));
}

void Harness::add_layers(Rep& rep, std::uint64_t payload_bytes) {
  const double ops = static_cast<double>(rep.ops);
  const auto per_op = [&](double v) { return v / ops; };
  const auto put = [&](const char* name, double v) {
    rep.layers.emplace_back(name, v);
  };
  const Usage used = (end_.usage - begin_.usage) -
                     (end_.ledger.usage - begin_.ledger.usage);
  const double events = static_cast<double>(end_.events - begin_.events);
  put("sim.events", per_op(events));
  put("sim.ns_per_event", events > 0 ? rep.sim_wall_s * 1e9 / events : 0.0);
  put("sim.ctx_switches", per_op(static_cast<double>(used.switches)));
  put("sim.cpu_user_s", used.user_s);
  put("sim.cpu_sys_s", used.sys_s);

  // Sum of one RankStats field's timed-phase delta over ranks.
  const auto delta = [&](auto field) {
    double sum = 0.0;
    for (std::size_t r = 0; r < end_.ranks.size(); ++r) {
      sum += static_cast<double>(field(end_.ranks[r]) - field(begin_.ranks[r]));
    }
    return sum;
  };
  using RS = mpisim::RankStats;
  put("gpu.d2d.busy_us", per_op(delta([](const RS& s) { return s.d2d_busy; })) / 1e3);
  put("gpu.d2h.busy_us", per_op(delta([](const RS& s) { return s.d2h_busy; })) / 1e3);
  put("gpu.h2d.busy_us", per_op(delta([](const RS& s) { return s.h2d_busy; })) / 1e3);
  put("gpu.kernel.busy_us",
      per_op(delta([](const RS& s) { return s.kernel_busy; })) / 1e3);
  double d2d_max = 0.0;
  for (std::size_t r = 0; r < end_.ranks.size(); ++r) {
    d2d_max = std::max(d2d_max, static_cast<double>(end_.ranks[r].d2d_busy -
                                                    begin_.ranks[r].d2d_busy));
  }
  put("gpu.d2d.util", d2d_max / static_cast<double>(rep.virt_ns));

  put("net.fabric.msgs", per_op(delta([](const RS& s) { return s.messages_sent; })));
  put("net.fabric.rdma_writes",
      per_op(delta([](const RS& s) { return s.rdma_writes; })));
  const double fabric_bytes = delta([](const RS& s) { return s.bytes_sent; });
  put("net.fabric.bytes", per_op(fabric_bytes));
  put("net.fabric.busy_us", per_op(delta([](const RS& s) { return s.nic_busy; })) / 1e3);
  put("net.ipc.msgs", per_op(delta([](const RS& s) { return s.ipc_messages_sent; })));
  put("net.ipc.copies", per_op(delta([](const RS& s) { return s.ipc_copies; })));
  const double ipc_bytes = delta([](const RS& s) { return s.ipc_bytes_sent; });
  put("net.ipc.bytes", per_op(ipc_bytes));
  put("net.ipc.busy_us", per_op(delta([](const RS& s) { return s.ipc_busy; })) / 1e3);
  put("net.wire_per_payload",
      (fabric_bytes + ipc_bytes) / static_cast<double>(payload_bytes));

  const auto ctrl = [&](int kind) {
    return per_op(delta([kind](const RS& s) {
      return s.sched.ctrl_by_kind[static_cast<std::size_t>(kind)];
    }));
  };
  put("core.ctrl.eager", ctrl(core::kEager));
  put("core.ctrl.rts", ctrl(core::kRts));
  put("core.ctrl.cts", ctrl(core::kCts));
  put("core.ctrl.chunk_fin", ctrl(core::kChunkFin));
  put("core.ctrl.chunk_ack", ctrl(core::kChunkAck));
  put("core.ctrl.ack_batch", ctrl(core::kChunkAckBatch));
  put("core.ctrl.send_done", ctrl(core::kSendDone));
  put("core.sched.queue_wait_us",
      per_op(delta([](const RS& s) { return s.sched.queue_wait_ns; })) / 1e3);
  put("core.sched.denials", per_op(delta([](const RS& s) { return s.sched.denials; })));
  const double coalesced = delta([](const RS& s) { return s.sched.acks_coalesced; });
  const double acks =
      coalesced + delta([](const RS& s) { return s.sched.acks_individual; });
  put("core.sched.coalesce_ratio", acks > 0 ? coalesced / acks : 0.0);
  std::size_t high_water = 0;
  for (const RS& s : end_.ranks) high_water = std::max(high_water, s.vbuf_high_water);
  put("core.vbuf.high_water", static_cast<double>(high_water));
  const double lookups =
      static_cast<double>(end_.plan.lookups() - begin_.plan.lookups());
  put("core.plan_cache.hit_rate",
      lookups > 0 ? static_cast<double>(end_.plan.hits - begin_.plan.hits) / lookups
                  : 0.0);
  put("core.plan_cache.misses", static_cast<double>(end_.plan.misses));

  // Allreduce counters of Cluster::coll_stats, summed over ranks.
  using CO = mpisim::detail::CollOpStats;
  const auto coll = [&](auto field) {
    double sum = 0.0;
    for (std::size_t r = 0; r < end_.allreduce.size(); ++r) {
      sum += static_cast<double>(field(end_.allreduce[r]) -
                                 field(begin_.allreduce[r]));
    }
    return sum;
  };
  put("mpi.coll.hier_calls", per_op(coll([](const CO& c) { return c.hier_calls; })));
  put("mpi.coll.device_slices",
      per_op(coll([](const CO& c) { return c.device_slices; })));
  put("mpi.coll.reduce_kernels",
      per_op(coll([](const CO& c) { return c.reduce_kernels; })));
  put("mpi.coll.bytes_staged", per_op(coll([](const CO& c) { return c.bytes_staged; })));
  put("mpi.coll.bytes_peer", per_op(coll([](const CO& c) { return c.bytes_peer; })));
  const double stage_ns = coll([](const CO& c) { return c.device_stage_ns; });
  const double elapsed_ns = coll([](const CO& c) { return c.device_elapsed_ns; });
  put("mpi.coll.overlap_ratio",
      stage_ns > 0 && elapsed_ns > 0 ? std::max(0.0, 1.0 - elapsed_ns / stage_ns)
                                     : 0.0);

  put("apps.stencil.exchange.virt_us", stencil_loop_us_ - stencil_compute_us_);
  put("apps.stencil.compute.virt_us", stencil_compute_us_);
}

// Per-call virtual time of the timed MPI calls, round-trip time per size
// and layout class, and host time per set-up call, from the spans. Also
// asserts that each rank's op spans tile its timed-phase root.
void Harness::add_span_layers(Rep& rep) {
  const auto& spans = tracer.spans();
  std::map<std::string, std::pair<double, double>> acc;  // name -> (sum, n)
  const auto add = [&](const std::string& name, double v) {
    auto& a = acc[name];
    a.first += v;
    a.second += 1.0;
  };
  std::vector<std::int64_t> covered(spans.size(), 0);
  for (const Span& s : spans) {
    const double virt_us = static_cast<double>(s.v1 - s.v0) / 1e3;
    const double wall_us = static_cast<double>(s.h1 - s.h0) / 1e3;
    const std::string name = s.name;
    if (name.rfind("mpi.", 0) == 0 && name != "mpi.commit") add(name, virt_us);
    if (name == "mpi.commit" || name == "cuda.malloc" || name == "cuda.memcpy") {
      add(name, wall_us);
    }
    if (name == "op" && s.size_class != nullptr && s.rank == 0) {
      add(std::string("rtt.") + s.size_class, virt_us);
      add(std::string("rtt.") + s.layout, virt_us);
    }
    if (s.parent >= 0) {
      const Span& p = spans[static_cast<std::size_t>(s.parent)];
      if (std::string(p.name) == "bench.timed") {
        if (s.v0 < p.v0 || s.v1 > p.v1) fail("op span outside the timed phase");
        covered[static_cast<std::size_t>(s.parent)] += s.v1 - s.v0;
      }
    }
  }
  for (const Span& s : spans) {
    if (std::string(s.name) != "bench.timed") continue;
    // Ops run back to back and the runner's own work between them takes
    // no virtual time, so root self time plus child time equals the root
    // duration with zero self time: an overlap or an untraced gap breaks it.
    const std::int64_t dur = s.v1 - s.v0;
    const std::int64_t self = dur - covered[static_cast<std::size_t>(s.id)];
    if (self != 0) {
      fail("op spans do not tile the timed phase on rank " +
           std::to_string(s.rank) + ": self time " + std::to_string(self) +
           " ns of " + std::to_string(dur));
    }
    if (s.rank == 0 && dur != rep.virt_ns) {
      fail("rank 0 timed root span disagrees with the timed virtual time");
    }
  }
  const auto mean = [&](const std::string& name) {
    const auto it = acc.find(name);
    return it == acc.end() ? 0.0 : it->second.first / it->second.second;
  };
  for (const char* call :
       {"send", "recv", "isend", "irecv", "waitall", "allreduce", "barrier"}) {
    rep.layers.emplace_back(std::string("mpi.") + call + ".virt_us",
                            mean(std::string("mpi.") + call));
  }
  for (const char* cls : {"16B", "64B", "256B", "1KB", "4KB", "64KB", "256KB",
                          "1MB", "4MB", "contig", "vector", "subpattern",
                          "irregular"}) {
    rep.layers.emplace_back(std::string("mpi.rtt.virt_us.") + cls,
                            mean(std::string("rtt.") + cls));
  }
  rep.layers.emplace_back("mpi.commit.wall_us", mean("mpi.commit"));
  rep.layers.emplace_back("cuda.malloc.wall_us", mean("cuda.malloc"));
  rep.layers.emplace_back("cuda.memcpy.wall_us", mean("cuda.memcpy"));
}

Rep Harness::finish(std::uint64_t payload_bytes) {
  Rep rep;
  rep.attempted = ops();
  rep.ops = ops();
  rep.payload_bytes = payload_bytes;
  audit(rep);
  if (tracer.enabled() && !tracer.write_chrome(opt.trace_out)) {
    fail("cannot write the trace to " + opt.trace_out);
  }
  if (begin_.taken && end_.taken) {
    rep.virt_ns = end_.virt - begin_.virt;
    rep.setup_s =
        static_cast<double>(begin_.host - setup_start - begin_.ledger.wall_ns) /
        1e9;
    rep.sim_wall_s = static_cast<double>((end_.host - begin_.host) -
                                         (end_.ledger.wall_ns -
                                          begin_.ledger.wall_ns)) /
                     1e9;
    add_layers(rep, payload_bytes);
    if (tracer.enabled()) add_span_layers(rep);
  } else {
    fail("the timed phase did not complete");
  }
  std::uint64_t failed = other_failures_;
  for (std::size_t op = 0; op < checks_.size(); ++op) {
    if (bad_[op] || checks_[op] != checkers_) ++failed;
  }
  rep.failed = std::min<std::uint64_t>(failed, rep.attempted);
  rep.errors = errors_;
  if (rep.failed > 0 && rep.errors.empty()) {
    rep.errors.push_back(std::to_string(rep.failed) + " ops never checked");
  }
  return rep;
}

// Traced cudaMalloc / cudaMemcpy / commit used in set-up and final checks.
void* traced_malloc(Harness& h, Context& ctx, std::size_t bytes) {
  SpanScope s(h.tracer, ctx, "cuda.malloc");
  return ctx.cuda->malloc(bytes);
}

void traced_memcpy(Harness& h, Context& ctx, void* dst, const void* src,
                   std::size_t bytes) {
  SpanScope s(h.tracer, ctx, "cuda.memcpy");
  ctx.cuda->memcpy(dst, src, bytes);
}

Datatype traced_commit(Harness& h, Context& ctx, Datatype t) {
  SpanScope s(h.tracer, ctx, "mpi.commit");
  t.commit();
  return t;
}

void traced_barrier(Harness& h, Context& ctx) {
  SpanScope s(h.tracer, ctx, "mpi.barrier");
  ctx.comm.barrier();
}

// Device buffer filled with the seeded byte stream `key`.
std::byte* seeded_buffer(Harness& h, Context& ctx, std::size_t bytes,
                         std::uint64_t key) {
  auto* dev = static_cast<std::byte*>(traced_malloc(h, ctx, bytes));
  std::vector<std::byte> host(bytes);
  fill_stream(host.data(), bytes, key);
  traced_memcpy(h, ctx, dev, host.data(), bytes);
  return dev;
}

// ---------------------------------------------------------------------------
// pingpong_small / pingpong_large: rank 0 sends, rank 1 echoes the same
// layout back. Each one-way message is one op; rank 1 checks the ping,
// rank 0 the pong, both byte-exact including the untouched gap bytes.

struct PingPongPlan {
  std::vector<Layout> layouts;
  std::vector<std::size_t> warmup;  // layout index per warm-up round
  std::vector<std::size_t> rounds;  // layout index per timed round
};

PingPongPlan plan_small(const Options& opt) {
  PingPongPlan p;
  sim::SplitMix64 g(stream_key(opt.seed, kLayout));
  for (std::size_t b : {16, 64, 256, 1024, 4096}) {
    p.layouts.push_back(make_layout(Shape::kVector, b, g));
  }
  for (std::size_t i = 0; i < p.layouts.size(); ++i) p.warmup.push_back(i);
  // Decks of six rounds: every size once in seeded order plus one free
  // draw, so the mix (and with it the per-op mean) moves only a little
  // from seed to seed.
  sim::SplitMix64 d(stream_key(opt.seed, kSchedule));
  const int decks = opt.tiny ? 8 : 2000;
  for (int k = 0; k < decks; ++k) {
    std::vector<std::size_t> deck(p.layouts.size());
    for (std::size_t i = 0; i < deck.size(); ++i) deck[i] = i;
    deck.push_back(d.below(p.layouts.size()));
    shuffle(deck, d);
    p.rounds.insert(p.rounds.end(), deck.begin(), deck.end());
  }
  return p;
}

PingPongPlan plan_large(const Options& opt) {
  PingPongPlan p;
  sim::SplitMix64 g(stream_key(opt.seed, kLayout));
  const std::vector<std::size_t> sizes =
      opt.tiny ? std::vector<std::size_t>{64 * 1024, 256 * 1024}
               : std::vector<std::size_t>{64 * 1024, 256 * 1024, 1024 * 1024,
                                          4 * 1024 * 1024};
  for (Shape s : {Shape::kContig, Shape::kVector, Shape::kSubpattern,
                  Shape::kIrregular}) {
    for (std::size_t b : sizes) p.layouts.push_back(make_layout(s, b, g));
  }
  for (std::size_t i = 0; i < p.layouts.size(); ++i) p.warmup.push_back(i);
  // Stratified draws: every deck holds each (size, layout) pair once, in
  // seeded order, so the per-op mean does not hinge on how often the
  // seed happened to pick the 4 MB vector.
  sim::SplitMix64 d(stream_key(opt.seed, kSchedule));
  const int decks = opt.tiny ? 1 : 6;
  for (int k = 0; k < decks; ++k) {
    std::vector<std::size_t> deck(p.layouts.size());
    for (std::size_t i = 0; i < deck.size(); ++i) deck[i] = i;
    shuffle(deck, d);
    p.rounds.insert(p.rounds.end(), deck.begin(), deck.end());
  }
  return p;
}

class PingPong {
 public:
  PingPong(const Options& opt, PingPongPlan plan)
      : plan_(std::move(plan)),
        h_(opt, config(), 2 * plan_.rounds.size(), 1) {
    for (const Layout& l : plan_.layouts) max_extent_ = std::max(max_extent_, l.extent);
  }

  Rep run() {
    h_.run([this](Context& ctx) { body(ctx); });
    std::uint64_t payload = 0;
    for (std::size_t li : plan_.rounds) payload += 2 * plan_.layouts[li].bytes;
    return h_.finish(payload);
  }


 private:
  static mpisim::ClusterConfig config() {
    mpisim::ClusterConfig cfg;
    cfg.ranks = 2;  // one per node: every byte crosses the fabric
    return cfg;
  }

  void body(Context& ctx) {
    std::vector<Datatype> types;
    for (const Layout& l : plan_.layouts) {
      types.push_back(traced_commit(h_, ctx, l.make_type()));
    }
    // Rank 0: send buffer A and landing buffer B; rank 1: echo buffer C.
    std::byte* send = nullptr;
    std::byte* land = nullptr;
    const std::uint64_t key = stream_key(h_.opt.seed, kFill, ctx.rank);
    if (ctx.rank == 0) send = seeded_buffer(h_, ctx, max_extent_, key);
    land = seeded_buffer(h_, ctx, max_extent_, key + 1);

    play(ctx, types, send, land, plan_.warmup, false);
    traced_barrier(h_, ctx);
    h_.start_timed(ctx);
    play(ctx, types, send, land, plan_.rounds, true);
    h_.stop_timed(ctx);
    traced_barrier(h_, ctx);
    h_.close_counters(ctx);

    // The final landing again, this time read back through cudaMemcpy.
    const Layout& last = plan_.layouts[plan_.rounds.back()];
    std::vector<std::byte> host(last.extent);
    traced_memcpy(h_, ctx, host.data(), land, last.extent);
    {
      Excluded x(h_.ledger);
      if (host != image_) {
        h_.fail("final landing differs when read through cudaMemcpy on rank " +
                std::to_string(ctx.rank));
      }
    }
    if (send != nullptr) ctx.cuda->free(send);
    ctx.cuda->free(land);
  }

  void play(Context& ctx, const std::vector<Datatype>& types, std::byte* send,
            std::byte* land, const std::vector<std::size_t>& rounds,
            bool timed) {
    Tracer& tr = h_.tracer;
    const std::uint64_t base = timed ? 0 : (1ull << 40);  // warm-up stamps
    const int peer = 1 - ctx.rank;
    for (std::size_t k = 0; k < rounds.size(); ++k) {
      const Layout& l = plan_.layouts[rounds[k]];
      const Datatype& t = types[rounds[k]];
      const std::uint64_t round = base + k;
      if (ctx.rank == 0) {
        {
          // The round's stamp and canary; rank 1 checks against the same
          // image, which stays put until rank 0 has the echo back.
          Excluded x(h_.ledger);
          stamp_.resize(l.bytes);
          fill_stream(stamp_.data(), l.bytes, stream_key(h_.opt.seed, kStamp, round));
          l.build_image(image_, stamp_.data(), canary_of(h_.opt.seed, round));
          std::memcpy(send, image_.data(), l.extent);
          std::memset(land, static_cast<int>(canary_of(h_.opt.seed, round)), l.extent);
        }
        SpanScope op(tr, ctx, "op", static_cast<std::int64_t>(k));
        tr.label(op.id(), size_name(l.bytes), shape_name(l.shape));
        mpisim::Request req[2];
        {
          SpanScope s(tr, ctx, "mpi.irecv");
          req[0] = ctx.comm.irecv(land, 1, t, peer, 7);
        }
        {
          SpanScope s(tr, ctx, "mpi.isend");
          req[1] = ctx.comm.isend(send, 1, t, peer, 7);
        }
        {
          SpanScope s(tr, ctx, "mpi.waitall");
          ctx.comm.waitall(req);
        }
      } else {
        {
          Excluded x(h_.ledger);
          std::memset(land, static_cast<int>(canary_of(h_.opt.seed, round)),
                      l.extent);
        }
        SpanScope op(tr, ctx, "op", static_cast<std::int64_t>(k));
        {
          SpanScope s(tr, ctx, "mpi.recv");
          ctx.comm.recv(land, 1, t, peer, 7);
        }
        check(ctx, l, land, 2 * k, timed);
        {
          SpanScope s(tr, ctx, "mpi.send");
          ctx.comm.send(land, 1, t, peer, 7);
        }
      }
      if (ctx.rank == 0) check(ctx, l, land, 2 * k + 1, timed);
    }
  }

  // Compare a landing buffer, data and gap bytes alike, with the round's
  // image (both ranks land on the same canary).
  void check(Context& ctx, const Layout& l, std::byte* land, std::uint64_t op,
             bool timed) {
    Excluded x(h_.ledger);
    if (timed && static_cast<std::int64_t>(op) == h_.corrupt_op()) {
      land[l.runs.front().offset] ^= std::byte{1};
    }
    const bool ok = std::memcmp(land, image_.data(), l.extent) == 0;
    if (timed) {
      h_.checked(op, ok, ctx.rank == 0 ? "pong payload" : "ping payload");
    } else if (!ok) {
      h_.fail("warm-up payload wrong on rank " + std::to_string(ctx.rank));
    }
  }

  PingPongPlan plan_;
  Harness h_;
  std::size_t max_extent_ = 0;
  std::vector<std::byte> stamp_;  // packed stamp of the current round
  std::vector<std::byte> image_;  // expected landing image, current round
};

// ---------------------------------------------------------------------------
// allreduce_device: 4 ranks, 2 per node, device-resident allreduce_sum of
// doubles. Every rank checks its result against the exact host sum.

constexpr int kCollRanks = 4;
constexpr std::size_t kTailDoubles = 64;  // canary past the vector's end

class Allreduce {
 public:
  explicit Allreduce(const Options& opt)
      : classes_(opt.tiny ? std::vector<std::size_t>{64 * 1024, 256 * 1024}
                          : std::vector<std::size_t>{64 * 1024, 256 * 1024,
                                                     1024 * 1024,
                                                     4 * 1024 * 1024}),
        calls_(schedule(opt, classes_)),
        h_(opt, config(), calls_.size(), kCollRanks) {}

  Rep run() {
    h_.run([this](Context& ctx) { body(ctx); });
    std::uint64_t payload = 0;
    for (std::size_t n : calls_) payload += n * sizeof(double);
    return h_.finish(payload);
  }

 private:
  static mpisim::ClusterConfig config() {
    mpisim::ClusterConfig cfg;
    cfg.ranks = kCollRanks;
    cfg.tunables.ranks_per_node = 2;
    return cfg;
  }

  // Stratified size classes in seeded order; each call's length is
  // trimmed by a seeded 0..63 doubles so calls are not all powers of two.
  static std::vector<std::size_t> schedule(const Options& opt,
                                           const std::vector<std::size_t>& cls) {
    sim::SplitMix64 d(stream_key(opt.seed, kSchedule));
    std::vector<std::size_t> calls;
    const int decks = opt.tiny ? 1 : 6;
    for (int k = 0; k < decks; ++k) {
      std::vector<std::size_t> deck = cls;
      shuffle(deck, d);
      for (std::size_t b : deck) calls.push_back(b / sizeof(double) - d.below(64));
    }
    return calls;
  }

  // Rank r contributes h(i) + r * 2^20 with h < 2^20: every partial sum is
  // an exact double, so the result must match bit for bit.
  static double contribution(std::uint64_t key, std::size_t i, int rank) {
    return static_cast<double>(mix64(key + i) >> 44) +
           static_cast<double>(rank) * 1048576.0;
  }

  void body(Context& ctx) {
    const std::size_t max_doubles = classes_.back() / sizeof(double) + kTailDoubles;
    const std::size_t bytes = max_doubles * sizeof(double);
    const std::uint64_t key = stream_key(h_.opt.seed, kFill, ctx.rank);
    auto* send = reinterpret_cast<double*>(seeded_buffer(h_, ctx, bytes, key));
    auto* recv = reinterpret_cast<double*>(seeded_buffer(h_, ctx, bytes, key + 1));

    std::vector<std::size_t> warm;
    for (std::size_t b : classes_) warm.push_back(b / sizeof(double));
    play(ctx, send, recv, warm, false);
    traced_barrier(h_, ctx);
    h_.start_timed(ctx);
    play(ctx, send, recv, calls_, true);
    h_.stop_timed(ctx);
    traced_barrier(h_, ctx);
    h_.close_counters(ctx);

    // The last result again, read back through cudaMemcpy.
    const std::size_t n = calls_.back();
    std::vector<double> host(n);
    traced_memcpy(h_, ctx, host.data(), recv, n * sizeof(double));
    {
      Excluded x(h_.ledger);
      if (!std::equal(host.begin(), host.end(), recv)) {
        h_.fail("final result differs when read through cudaMemcpy");
      }
    }
    ctx.cuda->free(send);
    ctx.cuda->free(recv);
  }

  void play(Context& ctx, double* send, double* recv,
            const std::vector<std::size_t>& calls, bool timed) {
    const std::uint64_t base = timed ? 0 : (1ull << 40);
    for (std::size_t k = 0; k < calls.size(); ++k) {
      const std::size_t n = calls[k];
      const std::uint64_t key = stream_key(h_.opt.seed, kStamp, base + k);
      const std::byte canary = canary_of(h_.opt.seed, base + k);
      {
        Excluded x(h_.ledger);
        for (std::size_t i = 0; i < n; ++i) send[i] = contribution(key, i, ctx.rank);
        std::memset(recv + n, static_cast<int>(canary), kTailDoubles * sizeof(double));
      }
      {
        SpanScope op(h_.tracer, ctx, "op", static_cast<std::int64_t>(k));
        SpanScope s(h_.tracer, ctx, "mpi.allreduce");
        ctx.comm.allreduce_sum(send, recv, static_cast<int>(n));
      }
      Excluded x(h_.ledger);
      if (timed && static_cast<std::int64_t>(k) == h_.corrupt_op() && ctx.rank == 0) {
        recv[n / 2] += 1.0;
      }
      bool ok = true;
      const double ranks_term = 1048576.0 * kCollRanks * (kCollRanks - 1) / 2;
      for (std::size_t i = 0; i < n && ok; ++i) {
        ok = recv[i] == kCollRanks * static_cast<double>(mix64(key + i) >> 44) + ranks_term;
      }
      const auto* tail = reinterpret_cast<const std::byte*>(recv + n);
      for (std::size_t i = 0; i < kTailDoubles * sizeof(double) && ok; ++i) {
        ok = tail[i] == canary;
      }
      if (timed) {
        h_.checked(k, ok, "allreduce result");
      } else if (!ok) {
        h_.fail("warm-up allreduce wrong on rank " + std::to_string(ctx.rank));
      }
    }
  }

  std::vector<std::size_t> classes_;
  std::vector<std::size_t> calls_;
  Harness h_;
};

// ---------------------------------------------------------------------------
// stencil_halo: apps::run_stencil, MV2-GPU-NC variant, 2x2 grid with two
// ranks per node. East-west neighbours share a node (strided halos over
// IPC); north-south neighbours do not (contiguous halos over the fabric).

class Stencil {
 public:
  explicit Stencil(const Options& opt)
      : iterations_(opt.tiny ? 4 : 60),
        h_(opt, config(), static_cast<std::uint64_t>(iterations_), 1) {
    // Tall, narrow tiles: every east-west halo is just over the 64 KB
    // pipeline threshold. The seed jitters the height by 16-row steps.
    sim::SplitMix64 g(stream_key(opt.seed, kLayout));
    rows_ = 16384 + 16 * static_cast<int>(1 + g.below(8));
    cols_ = opt.tiny ? 16 : 128;
  }

  Rep run() {
    h_.run([this](Context& ctx) { body(ctx); });
    // Halo bytes per iteration: two east-west pairs, two north-south
    // pairs, both directions each.
    const std::uint64_t per_iter =
        4 * static_cast<std::uint64_t>(rows_) * sizeof(float) +
        4 * static_cast<std::uint64_t>(cols_ + 2) * sizeof(float);
    return h_.finish(per_iter * static_cast<std::uint64_t>(iterations_));
  }

 private:
  static mpisim::ClusterConfig config() {
    mpisim::ClusterConfig cfg;
    cfg.ranks = 4;
    cfg.tunables.ranks_per_node = 2;
    return cfg;
  }

  apps::StencilConfig app(int cols, int iterations, bool validate) const {
    apps::StencilConfig c;
    c.proc_rows = 2;
    c.proc_cols = 2;
    c.local_rows = rows_;
    c.local_cols = cols;
    c.iterations = iterations;
    c.variant = apps::StencilConfig::Variant::kMv2GpuNc;
    c.validate = validate;
    return c;
  }

  void body(Context& ctx) {
    apps::run_stencil(ctx, app(cols_, 2, false));  // warm-up
    traced_barrier(h_, ctx);
    const auto kernel_busy = [&] {
      return h_.cluster.device(ctx.rank).kernel_engine().total_busy_time();
    };
    const sim::SimTime k0 = kernel_busy();
    h_.start_timed(ctx);
    apps::StencilResult res;
    {
      SpanScope op(h_.tracer, ctx, "op", 0);
      SpanScope s(h_.tracer, ctx, "apps.run_stencil");
      res = apps::run_stencil(ctx, app(cols_, iterations_, false));
    }
    h_.stop_timed(ctx);
    const sim::SimTime k1 = kernel_busy();
    traced_barrier(h_, ctx);
    h_.close_counters(ctx);
    if (ctx.rank == 0) {
      // Compute is the only kernel-engine work of this workload (the
      // strided halos pack with 2-D copies), and each iteration waits for
      // it, so its busy time splits the iteration.
      h_.set_stencil_compute(static_cast<double>(k1 - k0) / 1e3 / iterations_,
                             res.seconds * 1e6 / iterations_);
    }

    // Output check: the same halo shapes (rows over the pipeline
    // threshold, east-west over IPC, north-south over the fabric) in
    // validate mode, which does the real arithmetic and compares every
    // cell with apps::stencil_reference; the checksum is compared here too.
    constexpr int kCheckCols = 4;
    constexpr int kCheckIters = 3;
    double checksum = 0.0;
    bool ok = true;
    try {
      checksum = apps::run_stencil(ctx, app(kCheckCols, kCheckIters, true)).checksum;
    } catch (const std::exception& e) {
      ok = false;
      h_.fail(std::string("stencil validation: ") + e.what());
    }
    if (ctx.rank != 0) return;
    Excluded x(h_.ledger);
    if (h_.opt.corrupt) checksum += 1.0;
    const std::vector<double> ref =
        apps::stencil_reference(2 * rows_, 2 * kCheckCols, kCheckIters);
    double want = 0.0;
    const int pitch = 2 * kCheckCols + 2;
    for (int i = 1; i <= 2 * rows_; ++i) {
      for (int j = 1; j <= 2 * kCheckCols; ++j) {
        want += ref[static_cast<std::size_t>(i) * pitch + j];
      }
    }
    ok = ok && std::abs(checksum - want) <= 1e-6 * std::abs(want);
    if (!ok) h_.fail("stencil checksum differs from apps::stencil_reference");
    // The timed iterations are checked through the validate run: mark each.
    for (int it = 0; it < iterations_; ++it) {
      h_.checked(static_cast<std::uint64_t>(it), ok, "stencil iteration");
    }
  }

  int iterations_;
  Harness h_;
  int rows_ = 0;
  int cols_ = 0;
};

}  // namespace

Rep run_workload(const Options& opt) {
  if (opt.workload == "pingpong_small") {
    auto w = std::make_unique<PingPong>(opt, plan_small(opt));
    return w->run();
  }
  if (opt.workload == "pingpong_large") {
    auto w = std::make_unique<PingPong>(opt, plan_large(opt));
    return w->run();
  }
  if (opt.workload == "stencil_halo") {
    auto w = std::make_unique<Stencil>(opt);
    return w->run();
  }
  if (opt.workload == "allreduce_device") {
    auto w = std::make_unique<Allreduce>(opt);
    return w->run();
  }
  throw std::invalid_argument("unknown workload " + opt.workload);
}

}  // namespace perfbench

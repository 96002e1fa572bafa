// Collectives engine: flat (single-level) and MVAPICH2-style two-level
// hierarchical algorithms over the transport seam.
//
// Flat algorithms treat the communicator as one ring/tree/butterfly:
// dissemination barrier, binomial bcast, recursive-doubling allreduce,
// ring allgather and pairwise-exchange alltoall. When the cluster topology
// co-locates ranks (ranks_per_node > 1, blocked placement), the two-level
// variants split every collective into intra-node phases — which the
// TransportRouter carries over the node's IPC channel — and an inter-node
// phase that is the only traffic crossing the fabric. On rectangular
// topologies the inter-node phase is striped: allreduce reduce-scatters in
// the node, butterflies each slice among counterpart members (all n HCAs
// in parallel, 1/n of the bytes each) and reassembles with an intra
// allgather; allgather runs n parallel member rings, each carrying its
// stripe of every node's superblock. One rank-invariant rule (shape_for)
// picks the shape of every call; see docs/COLLECTIVES.md, "Selection".
//
// Allreduce, allgather and bcast on device-resident buffers run the paths
// of coll_device.cpp: a sliced D2H / wire / device-fold / H2D pipeline when
// its price, walked message by message over the cost hints, beats one
// synchronous staged copy's, the staged copy otherwise. No tunable chooses
// between them. The two-level device allreduce runs the node's
// reduce-scatter and allgather per slice inside that pipeline, overlapped
// with other slices' fabric legs. Each call is planned once (plan_device:
// shape, schedule and slice) and its body runs the plan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cuda/runtime.hpp"
#include "gpu/cost_model.hpp"
#include "mpi/rank_comm.hpp"
#include "net/fabric.hpp"
#include "net/ipc.hpp"
#include "sim/time.hpp"

namespace mv2gnc::mpisim::detail {

/// Counters of one collective operation, summed over every call this rank
/// took part in (surfaced by Cluster::print_stats).
struct CollOpStats {
  std::uint64_t calls = 0;          // invocations on this rank
  std::uint64_t hier_calls = 0;     // of which took the two-level path
  std::uint64_t bytes_sent = 0;     // payload bytes this rank isend()ed
  std::uint64_t intra_phases = 0;   // node-local phases this rank executed
  std::uint64_t leader_phases = 0;  // cluster-wide / leader phases executed

  // -- device-buffer path (coll_device.cpp, docs/COLLECTIVES.md) ---------
  std::uint64_t device_calls = 0;      // calls with device-resident buffers
  std::uint64_t device_pipelined = 0;  // of which took the sliced pipeline
  std::uint64_t device_slices = 0;     // pipeline slices this rank processed
  std::uint64_t bytes_staged = 0;      // device bytes staged across PCIe
  std::uint64_t bytes_peer = 0;        // device bytes over device-direct IPC
  std::uint64_t reduce_kernels = 0;    // device fold launches
  sim::SimTime device_stage_ns = 0;    // summed per-stage durations
  sim::SimTime device_elapsed_ns = 0;  // virtual time inside device calls

  /// 1 - elapsed/stages: the fraction of serialized stage time the sliced
  /// schedule hid behind other stages (0 for the synchronous staged path).
  double overlap_ratio() const {
    if (device_stage_ns <= 0 || device_elapsed_ns <= 0) return 0.0;
    const double r = 1.0 - static_cast<double>(device_elapsed_ns) /
                               static_cast<double>(device_stage_ns);
    return r > 0.0 ? r : 0.0;
  }
};

struct CollStats {
  CollOpStats barrier, bcast, allreduce, allgather, alltoall, gather, scatter;

  std::uint64_t total_calls() const {
    return barrier.calls + bcast.calls + allreduce.calls + allgather.calls +
           alltoall.calls + gather.calls + scatter.calls;
  }
};

/// The cost models the shape rule and the device-collective schedule
/// choice read, copied by the Cluster from the ones its fabric, IPC
/// channels and GPUs run (as the rendezvous reads the GPU cost model to
/// pick a pack scheme). Defaults match the stock QDR-IB + C2050 testbed so
/// a bare RankComm still selects sensibly in unit tests.
struct CollCostHints {
  netsim::NetCostModel fabric = netsim::NetCostModel::qdr_ib();
  gpu::GpuCostModel gpu = gpu::GpuCostModel::tesla_c2050();
  netsim::IpcCostModel ipc = netsim::IpcCostModel::from_gpu(gpu);
};

/// Schedule shape of one collective call.
enum class CollShape {
  kFlat,      // one ring / tree / butterfly over the whole group
  kTwoLevel,  // intra-node phases over IPC around an inter-node phase
};

/// Schedule of one device-buffer bcast, allreduce or allgather call
/// (coll_device.cpp).
enum class DeviceSchedule {
  kStaged,     // full-size D2H, the host wire algorithm, full-size H2D
  kPipelined,  // sliced D2H / wire / H2D pipeline, folds on the device
};

/// What a test forces on one collective call, reached through
/// tests/support/coll_access.hpp: the shape (where the group admits it;
/// otherwise flat) and, on device buffers, the schedule (where the buffers
/// admit it; otherwise staged). An empty member leaves that choice to the
/// selection rules, so an empty force is the public operation.
struct CollForce {
  std::optional<CollShape> shape;
  std::optional<DeviceSchedule> schedule;
};

/// The parts of one send of device memory to a co-located rank that the
/// device allreduce's slice pipeline overlaps with its other legs
/// (CollEngine::intra_send_ns). A rendezvous (device-direct peer copy)
/// costs the sender `post`, may start its copy `head` after the post (RTS
/// and CTS), holds the sender's IPC port for `data`, and completes `tail`
/// after the copy. An eager send costs the sender `stage` (its blocking D2H
/// into the pageable payload) and `post`, holds the port for `data`, lands
/// `tail` later, and costs the receiver `land` (the blocking H2D on
/// delivery).
struct IntraSend {
  bool eager = false;
  sim::SimTime stage = 0;
  sim::SimTime post = 0;
  sim::SimTime head = 0;
  sim::SimTime data = 0;
  sim::SimTime tail = 0;
  sim::SimTime land = 0;
};

/// One rank's collective-algorithm engine; owned by its RankComm. All
/// communication goes through the owner's isend/irecv/wait, so eager vs
/// rendezvous protocol choice, reliability and transport routing apply to
/// collective traffic exactly as to point-to-point traffic.
///
/// Hang-free guarantee (docs/RELIABILITY.md, "Collective abort"): every
/// blocking wait inside a collective runs through coll_wait with a
/// liveness watchdog, and any failure — a p2p transfer exhausting its
/// retry budget, an incoming COLL_ABORT wave, or watchdog expiry — aborts
/// the whole operation: the rank broadcasts the wave to the group, parks
/// its scratch buffers (stale messages of the abandoned operation may
/// still deliver into them), poisons the communicator context (per-step
/// tags are reused across calls, so no later collective on it is safe)
/// and surfaces a clean RequestError. No surviving rank blocks forever.
class CollEngine {
 public:
  explicit CollEngine(RankComm& comm) : comm_(comm) {}
  CollEngine(const CollEngine&) = delete;
  CollEngine& operator=(const CollEngine&) = delete;

  void set_cost_hints(const CollCostHints& h) { hints_ = h; }
  const CollCostHints& cost_hints() const { return hints_; }
  const CollStats& stats() const { return stats_; }

  // The public operations. Each shaped one plans its call once (shape_for
  // for barrier and alltoall, plan_device for the rest) and honours
  // `force`, the test seam (see CollForce); the Communicator leaves it
  // empty.
  void barrier(const CommGroup& g, const CollForce& force = {});
  void bcast(void* buf, int count, const Datatype& dtype, int root,
             const CommGroup& g, const CollForce& force = {});
  void allreduce_doubles(const double* sendbuf, double* recvbuf, int count,
                         bool take_max, const CommGroup& g,
                         const CollForce& force = {});
  void allgather(const void* sendbuf, int count, const Datatype& dtype,
                 void* recvbuf, const CommGroup& g,
                 const CollForce& force = {});
  void alltoall(const void* sendbuf, void* recvbuf, int count,
                const Datatype& dtype, const CommGroup& g,
                const CollForce& force = {});
  void gather(const void* sendbuf, int count, const Datatype& dtype,
              void* recvbuf, int root, const CommGroup& g);
  void scatter(const void* sendbuf, void* recvbuf, int count,
               const Datatype& dtype, int root, const CommGroup& g);

 private:
  /// Node map of one communicator: nodes appear in order of first
  /// appearance by comm rank, members in ascending comm rank, the leader
  /// is the lowest comm rank on the node. Every member computes the same
  /// map, so phase schedules agree without negotiation.
  struct Topology {
    std::vector<int> node_of;               // comm rank -> dense node index
    std::vector<std::vector<int>> members;  // node index -> comm ranks
    std::vector<int> leaders;               // node index -> leading comm rank
    int my_node = 0;
    bool multi_rank_node = false;  // some node hosts >= 2 comm ranks
    int uniform = 0;  // common member count of every node, 0 when ragged

    int num_nodes() const { return static_cast<int>(members.size()); }
    bool same_node(int a, int b) const {
      return node_of[static_cast<std::size_t>(a)] ==
             node_of[static_cast<std::size_t>(b)];
    }
  };
  Topology map_nodes(const CommGroup& g) const;

  /// Which collective a shape or a device schedule is chosen for.
  enum class CollOp { kBarrier, kBcast, kAllreduce, kAllgather, kAlltoall };
  /// The shape rule: a pure function of the group's node map, the message
  /// size and the hints, so every member picks the same shape (a split
  /// group would mismatch tags and deadlock). Two-level only with the IPC
  /// channel (transport_select = auto) and some node holding >= 2 members.
  CollShape shape_for(CollOp op, const Topology& t, std::size_t bytes) const;
  /// Critical-path virtual time of the flat recursive-doubling allreduce
  /// of `bytes` over `ranks` (comm ranks of t), every message priced at
  /// what the simulator charges on its link.
  sim::SimTime butterfly_ns(const Topology& t, const std::vector<int>& ranks,
                            std::size_t bytes) const;
  /// The same for the striped two-level allreduce: two intra-node rings
  /// of n - 1 slice steps around the stripe butterfly across nodes.
  sim::SimTime striped_ns(const Topology& t, std::size_t bytes) const;
  /// One step of a ring: every member sends `bytes` of host or `device`
  /// memory to its neighbour (IPC when `local`) while receiving as much.
  sim::SimTime ring_step_ns(bool local, std::size_t bytes, bool device) const;
  /// A ring over `ranks` (comm ranks of t) of ranks.size() - 1 steps, each
  /// member passing `bytes` of host or `device` memory on per step.
  sim::SimTime ring_ns(const Topology& t, const std::vector<int>& ranks,
                       std::size_t bytes, bool device) const;
  /// One pipeline slice's wire leg: how long it runs once the slice's D2H
  /// has landed, how much of that (its first rendezvous' RTS and CTS) may
  /// run before, the fold it leaves to the write-back stream ahead of the
  /// slice's H2D (0: none), and its exchange shape.
  struct SliceLeg {
    sim::SimTime wire = 0;
    sim::SimTime head = 0;
    sim::SimTime fold = 0;
    bool halving = false;
  };
  /// One pipeline slice's wire leg over `ranks` (comm ranks of t) on
  /// `bytes` of host slot, in the cheaper of its two shapes (leg latency,
  /// deferred fold included): Rabenseifner's recursive-halving
  /// reduce-scatter and recursive-doubling allgather, or the full-slice
  /// recursive-doubling butterfly, whose last fold, without post-pairing,
  /// is deferred. Every fold is a reduction kernel. The verdict reads only
  /// the group's node map and the bytes, so both ends of every exchange
  /// take the same shape.
  SliceLeg slice_leg_ns(const Topology& t, const std::vector<int>& ranks,
                        std::size_t bytes) const;
  /// One send of `bytes` of device memory to a co-located rank, taken
  /// apart as the slice pipeline overlaps it.
  IntraSend intra_send_ns(std::size_t bytes) const;
  /// Critical path of the host bcast tree of `bytes` from `root` in
  /// `shape` (the tree plan_bcast picks), to the last rank's arrival.
  sim::SimTime bcast_tree_ns(const Topology& t, CollShape shape, int root,
                             std::size_t bytes) const;
  /// Critical path of allgather_wire on `block`-byte blocks of host or
  /// `device` memory in `shape`.
  sim::SimTime allgather_ns(const Topology& t, CollShape shape,
                            std::size_t block, bool device) const;

  /// One device-buffer call as the schedule price sees it.
  struct DeviceCall {
    CollOp op;          // kBcast, kAllreduce or kAllgather
    std::size_t bytes;  // the vector (bcast, allreduce) or one rank's block
    int root = 0;       // bcast only
  };
  /// One bcast, allreduce or allgather call as plan_device decided it.
  struct DevicePlan {
    CollShape shape;
    std::optional<DeviceSchedule> schedule;  // empty: not a device call
    std::size_t slice = 0;  // the pipeline's slice bytes (bcast, allreduce)
  };
  /// The plan of one bcast, allreduce or allgather call, the only place
  /// its shape, device schedule and pipeline slice are decided:
  ///  - shape: the forced one, else shape_for's (staged runs the host
  ///    algorithm in it);
  ///  - schedule: none (the host path) unless the buffers are contiguous
  ///    and one is device-resident; staged unless both are, the group has
  ///    two ranks and the call moves bytes; then the pipeline where the
  ///    force names it or, with none forced and gpu_offload on, where it
  ///    prices below staged, in the forced shape or the cheaper one;
  ///  - slice: the one the pipeline was priced at.
  /// A pure function of the node map, the call, the hints and the force,
  /// so every rank reaches the same plan.
  DevicePlan plan_device(const void* sendbuf, const void* recvbuf,
                         const Datatype& dtype, const DeviceCall& call,
                         const Topology& t, const CollForce& force) const;

  // Un-guarded algorithm bodies (one per public op). `t` is map_nodes(g);
  // a body with a plan runs the device path exactly when the plan has a
  // schedule.
  void barrier_impl(const CommGroup& g, const Topology& t, CollShape shape);
  void bcast_impl(void* buf, int count, const Datatype& dtype, int root,
                  const CommGroup& g, const Topology& t,
                  const DevicePlan& plan);
  void allreduce_impl(const double* sendbuf, double* recvbuf, int count,
                      bool take_max, const CommGroup& g, const Topology& t,
                      const DevicePlan& plan);
  void allgather_impl(const void* sendbuf, int count, const Datatype& dtype,
                      void* recvbuf, const CommGroup& g, const Topology& t,
                      const DevicePlan& plan);
  void alltoall_impl(const void* sendbuf, void* recvbuf, int count,
                     const Datatype& dtype, const CommGroup& g,
                     const Topology& t, CollShape shape);
  void gather_impl(const void* sendbuf, int count, const Datatype& dtype,
                   void* recvbuf, int root, const CommGroup& g);
  void scatter_impl(const void* sendbuf, void* recvbuf, int count,
                    const Datatype& dtype, int root, const CommGroup& g);

  // Wire bodies: the flat/two-level exchange of one collective operating on
  // buffers in place, shared by the host path and the device-buffer
  // staged/pipelined paths.
  void allreduce_wire(CollOpStats& op, double* data, int count, bool take_max,
                      const CommGroup& g, const Topology& t, CollShape shape);
  /// The two-level allreduce of host `data` on uniform nodes (t.uniform >=
  /// 2, count >= t.uniform): intra ring reduce-scatter, stripe butterfly
  /// across nodes, intra ring allgather. (Device data runs the two-level
  /// shape of device_sliced_allreduce instead.)
  void striped_allreduce(CollOpStats& op, double* data, int count,
                         bool take_max, const CommGroup& g, const Topology& t);
  void bcast_wire(CollOpStats& op, void* buf, int count, const Datatype& dtype,
                  int root, const CommGroup& g, const Topology& t,
                  CollShape shape);
  void allgather_wire(CollOpStats& op, const void* sendbuf, int count,
                      const Datatype& dtype, void* recvbuf, const CommGroup& g,
                      const Topology& t, CollShape shape);
  /// Plans a bcast from `root` on the group's node map `t`: re-leads the
  /// root's node with the root, so the payload enters both legs from it,
  /// and counts the call's phases into `op`. Returns whether the two-level
  /// tree runs (otherwise the flat binomial).
  bool plan_bcast(CollOpStats& op, const CommGroup& g, int root,
                  CollShape shape, Topology& t);
  /// One bcast tree as planned by plan_bcast: the flat binomial, or a
  /// binomial among node leaders followed by one inside each node. A
  /// message's source tells the two legs apart, so both use `tag`.
  void bcast_tree(CollOpStats& op, const CommGroup& g, const Topology& t,
                  bool two_level, int root, void* buf, int count,
                  const Datatype& dtype, int tag);

  // -- device-buffer collectives (src/mpi/coll_device.cpp) ----------------
  /// True when `p` lies inside a registered device allocation.
  bool device_buffer(const void* p) const;
  /// A price, and the pipeline slice it was priced at (0: no slices).
  struct Priced {
    sim::SimTime ns = 0;
    std::size_t slice = 0;
  };
  /// Critical-path virtual time of `call` run on `schedule` in `shape`,
  /// with the slice a pipelined bcast or allreduce runs.
  Priced device_ns(const DeviceCall& call, DeviceSchedule schedule,
                   CollShape shape, const Topology& t) const;
  /// Price of one pipeline slice's wire leg, by the bytes it carries.
  using LegPrice = std::function<SliceLeg(std::size_t)>;
  /// Virtual time of `total` bytes through the sliced pipeline in
  /// `slice`-byte slices, walked as device_sliced_allreduce runs it. With
  /// `members` == 1 (the flat shape, and the bcast): D2H copies on one
  /// stream, at most `prefetch` slices ahead of the wire, each slice's
  /// wire leg (`leg`) once its copy landed, and its H2D write-back on
  /// another stream, behind the fold the leg deferred to it, if any. With
  /// `members` > 1 (the two-level allreduce) each slice is cut into one
  /// piece per node member, and the slice's piece first takes an
  /// intra-node exchange over the rank's IPC port and the folds of its
  /// arrivals, stream-ordered ahead of its D2H, and after its H2D an
  /// intra-node exchange that gathers the pieces back; `leg` then prices
  /// the piece's fabric leg, and is empty on one node, where no piece
  /// crosses PCIe.
  sim::SimTime sliced_ns(std::size_t total, std::size_t slice, int prefetch,
                         int members, const LegPrice& leg) const;
  /// Slice size of the pipeline, with its sliced_ns price: the
  /// power-of-two candidate minimizing sliced_ns (two-level: the largest
  /// priced within a band of the least, short of one slice where the least
  /// cuts more), capped so the per-slice tag offsets stay inside one tag
  /// span.
  Priced pick_slice_bytes(std::size_t total, int prefetch, int members,
                          const LegPrice& leg) const;
  /// Lazily create the collective-owned d2h / h2d / reduce streams.
  void ensure_coll_streams();
  /// Enqueues the elementwise fold acc = acc (op) in over n doubles on
  /// `stream` as a device reduction kernel; no fiber waits for it.
  void launch_fold(CollOpStats& op, cusim::Stream& stream, double* acc,
                   const double* in, int n, bool take_max);
  /// Abort-safe staging slot: pool-backed when it fits (pinned one-off
  /// otherwise), parked with the scratch list on abort.
  core::detail::StagingSlot* slot_scratch(std::size_t bytes);
  /// Abort-safe device scratch allocation of n doubles.
  double* device_scratch(std::size_t n);

  /// The staged schedule's blocking copy of `n` bytes between a host
  /// scratch buffer and a caller's buffer: a device copy, counted as
  /// staged bytes, when either end is device memory, else a host memcpy.
  void stage_copy(CollOpStats& op, void* dst, const void* src, std::size_t n);
  /// Closes a device call whose stages all ran on this fiber, one after
  /// another: its virtual time since `t0` counts as stage time and as
  /// elapsed time alike.
  void finish_serial(CollOpStats& op, sim::SimTime t0);

  // The device bodies run `plan`'s schedule, shape and slice.
  void device_allreduce(CollOpStats& op, const double* sendbuf,
                        double* recvbuf, int count, bool take_max,
                        const CommGroup& g, const Topology& t,
                        const DevicePlan& plan);
  /// The pipelined allreduce of the device vector [dev, dev+count), one
  /// slice loop in either shape. Flat: each slice's D2H, its wire leg over
  /// the whole group and its H2D. Two-level (`plan.shape` on uniform nodes
  /// of >= 2 members, count >= t.uniform): member j of each node owns
  /// piece j of every slice; per slice, an intra-node reduce-scatter over
  /// device-direct IPC, the folds and the D2H of the owned piece, its wire
  /// leg among the counterpart members of the other nodes, its H2D, and an
  /// intra-node allgather gated on that H2D.
  void device_sliced_allreduce(CollOpStats& op, const CommGroup& g,
                               const Topology& t, const DevicePlan& plan,
                               double* dev, int count, bool take_max);
  /// Wire leg of one host-resident slice, with per-slice tags,
  /// device-kernel folds and the slice's D2H event `gate` holding the first
  /// send's wire, in the shape slice_leg_ns picked: with `halving`,
  /// recursive-halving reduce-scatter plus recursive-doubling allgather
  /// (2(1-1/p) wire bytes and (1-1/p) folded bytes per slice); otherwise
  /// the full-slice butterfly (log2(p) of each, in log2(p) exchanges
  /// instead of 2 log2(p)). A butterfly without post-pairing leaves its
  /// last fold on coll_h2d_, ahead of the slice's write-back, and returns
  /// that fold's event; every other leg has folded into `data` on return
  /// and returns an invalid event.
  cusim::Event device_slice_wire(CollOpStats& op, const CommGroup& g,
                                 const std::vector<int>& ranks, int me,
                                 double* data, int count, bool take_max,
                                 int slice, bool halving, cusim::Event gate);
  void device_bcast(CollOpStats& op, void* buf, int count,
                    const Datatype& dtype, int root, const CommGroup& g,
                    const Topology& t, const DevicePlan& plan);
  void device_allgather(CollOpStats& op, const void* sendbuf, int count,
                        const Datatype& dtype, void* recvbuf,
                        const CommGroup& g, const Topology& t,
                        const DevicePlan& plan);

  /// Run one collective body under the abort protocol: registers the call
  /// with coll_begin (throws if the context is poisoned), hands the body
  /// the group's node map, converts any failure inside into an abort wave
  /// + clean RequestError, and releases (or parks) the scratch buffers.
  template <typename Fn>
  void run_guarded(const CommGroup& g, Fn&& body);
  /// Watchdogged wait used by every algorithm step (see coll_wait).
  void cwait(Request& r);
  /// Worst-case p2p retry budget (sender plus receiver watchdog backoff
  /// series) times coll_watchdog_factor: the deadline of one cwait.
  sim::SimTime watchdog_budget() const;
  void abort_collective(const CommGroup& g, std::uint64_t seq, int origin);

  /// Allocate collective scratch that survives an abort: kept in scratch_
  /// while the op runs, freed on normal completion, parked in the owning
  /// RankComm on abort (stale messages may still deliver into it). Stack
  /// temporaries must never back a posted receive in a collective.
  /// The memory is uninitialized: callers post a receive into it, write
  /// it before reading it, or (a barrier token) never read its bytes.
  template <typename T>
  T* scratch(std::size_t n) {
    std::shared_ptr<T[]> v = std::make_unique_for_overwrite<T[]>(n);
    T* p = v.get();
    scratch_.push_back(std::move(v));
    return p;
  }

  // Primitives shared between the flat path and the leader/intra legs.
  // They run over an ordered subgroup of comm ranks; `me` is this rank's
  // index within `ranks`.
  void dissemination(CollOpStats& op, const CommGroup& g,
                     const std::vector<int>& ranks, int me, int tag_base);
  void binomial_bcast(CollOpStats& op, const CommGroup& g,
                      const std::vector<int>& ranks, int me, int root_idx,
                      void* buf, int count, const Datatype& dtype, int tag);
  void rd_allreduce(CollOpStats& op, const CommGroup& g,
                    const std::vector<int>& ranks, int me, double* recvbuf,
                    int count, bool take_max);

  Request isend_counted(CollOpStats& op, const void* buf, int count,
                        const Datatype& dtype, int dst_world, int tag,
                        int context);
  /// irecv that registers the request in inflight_ (as isend_counted does
  /// for sends) so abort_collective can cancel it. Every receive a
  /// collective body posts must go through this wrapper.
  Request irecv_track(void* buf, int count, const Datatype& dtype, int src,
                      int tag, int context);

  RankComm& comm_;
  CollCostHints hints_;
  CollStats stats_;

  // Abort-protocol state of the collective currently on this rank's stack
  // (collectives never nest, so one slot suffices).
  int cur_context_ = 0;
  std::uint64_t cur_seq_ = 0;
  sim::SimTime wait_budget_ = 0;
  std::vector<std::shared_ptr<void>> scratch_;
  /// Staging slots of the in-flight device collective (slot_scratch).
  /// Released back to the pool on normal completion; an abort parks them
  /// in the owning RankComm's slot graveyard instead — a still-queued
  /// stream copy may reference them, and the survivor audit invariant
  /// (vbufs_in_use == graveyard_slots) must keep counting them.
  std::vector<std::unique_ptr<core::detail::StagingSlot>> coll_slots_;
  void settle_coll_slots(bool aborted);
  // Every request the running collective posted (shared handles; cheap).
  // Cleared on normal completion; on abort each one is canceled — an
  // abandoned isend whose matching receive will never be posted (the peer
  // aborted too) would otherwise retransmit its RTS forever, because the
  // peer's unmatched-RTS ack keeps resetting the sender's retry budget,
  // and finalize's drain_pending would never return.
  std::vector<Request> inflight_;

  // Collective-owned streams of the device-buffer path (lazily created on
  // the first device-resident call; distinct from the rendezvous staging
  // streams so collective slices never queue behind p2p traffic).
  bool coll_streams_ready_ = false;
  cusim::Stream coll_d2h_;
  cusim::Stream coll_h2d_;
  cusim::Stream coll_red_;
};

}  // namespace mv2gnc::mpisim::detail

// mpisim: the MPI-shaped communication API of the simulated cluster.
//
// The surface mirrors the MPI-2.2 subset the paper's code paths exercise:
// blocking and non-blocking point-to-point with tag/source matching
// (including wildcards), derived datatypes, and the collectives the
// applications need. Buffers may live in host memory or in simulated GPU
// device memory — the library detects device pointers (UVA-style) and
// routes them through the MV2-GPU-NC engine, which is precisely the
// paper's contribution ("the MPI library is responsible for staging").
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "mpi/datatype.hpp"

namespace mv2gnc::mpisim {

/// MPI_ANY_SOURCE.
inline constexpr int kAnySource = -1;
/// MPI_ANY_TAG. Wildcard receives never match the library's internal
/// (negative) collective tags.
inline constexpr int kAnyTag = -2;

/// Completion information of a receive (MPI_Status).
struct Status {
  int source = kAnySource;
  int tag = kAnyTag;
  std::size_t bytes = 0;  // packed bytes actually received

  /// MPI_Get_count: number of `dtype` elements received, or nullopt when
  /// the byte count is not a whole number of elements (MPI_UNDEFINED).
  std::optional<int> count(const Datatype& dtype) const;
};

/// Thrown when a matched message is larger than the posted receive buffer
/// (MPI_ERR_TRUNCATE).
class TruncationError : public std::runtime_error {
 public:
  explicit TruncationError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Thrown by wait()/test() when the operation's transfer failed permanently
/// — e.g. the reliability layer exhausted its retransmission budget
/// (rndv_max_retries) on a lossy fabric. The request is complete in the
/// MPI sense (no longer in flight); the data did not arrive.
class RequestError : public std::runtime_error {
 public:
  explicit RequestError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
struct ReqState;
struct CommGroup;
class RankComm;
struct CollAccess;
}  // namespace detail

/// Per-rank MPI API call counters (productivity accounting, paper Table I).
struct ApiStats {
  std::uint64_t send = 0;
  std::uint64_t isend = 0;
  std::uint64_t recv = 0;
  std::uint64_t irecv = 0;
  std::uint64_t wait = 0;
  std::uint64_t waitall = 0;
};

/// Handle to an in-flight non-blocking operation (MPI_Request).
class Request {
 public:
  Request() = default;
  bool valid() const { return state_ != nullptr; }

 private:
  friend class Communicator;
  friend class detail::RankComm;
  explicit Request(std::shared_ptr<detail::ReqState> s)
      : state_(std::move(s)) {}
  std::shared_ptr<detail::ReqState> state_;
};

class Communicator;

/// A persistent communication request (MPI_Send_init / MPI_Recv_init):
/// the argument list is frozen once; start() posts a fresh operation each
/// iteration and wait()/test() complete it. The workhorse of iterative
/// halo-exchange codes.
class PersistentRequest {
 public:
  PersistentRequest() = default;

  /// Post the operation (MPI_Start): a fresh isend/irecv of the frozen
  /// argument list. The previous round must be complete.
  void start();
  /// Complete the current round (MPI_Wait).
  void wait(Status* status = nullptr);
  /// Poll the current round (MPI_Test).
  bool test(Status* status = nullptr);

  bool valid() const { return impl_ != nullptr; }

 private:
  friend class Communicator;
  struct Init;
  std::shared_ptr<Init> impl_;
};

/// Per-rank communicator handle (MPI_COMM_WORLD). Cheap to copy; all
/// copies refer to the same rank endpoint.
class Communicator {
 public:
  Communicator() = default;

  int rank() const;
  int size() const;

  // -- point-to-point ----------------------------------------------------
  /// MPI_Send. `tag` must be >= 0 (negative tags are reserved).
  void send(const void* buf, int count, const Datatype& dtype, int dst,
            int tag);
  /// MPI_Recv.
  void recv(void* buf, int count, const Datatype& dtype, int src, int tag,
            Status* status = nullptr);
  /// MPI_Isend.
  Request isend(const void* buf, int count, const Datatype& dtype, int dst,
                int tag);
  /// MPI_Irecv. `src` may be kAnySource, `tag` may be kAnyTag.
  Request irecv(void* buf, int count, const Datatype& dtype, int src,
                int tag);
  /// MPI_Wait.
  void wait(Request& req, Status* status = nullptr);
  /// MPI_Test: non-blocking completion check (drives progress once).
  bool test(Request& req, Status* status = nullptr);
  /// MPI_Waitall.
  void waitall(std::span<Request> reqs);
  /// MPI_Sendrecv.
  void sendrecv(const void* sendbuf, int sendcount, const Datatype& sendtype,
                int dst, int sendtag, void* recvbuf, int recvcount,
                const Datatype& recvtype, int src, int recvtag,
                Status* status = nullptr);
  /// MPI_Send_init: freeze a send argument list for repeated start().
  PersistentRequest send_init(const void* buf, int count,
                              const Datatype& dtype, int dst, int tag);
  /// MPI_Recv_init.
  PersistentRequest recv_init(void* buf, int count, const Datatype& dtype,
                              int src, int tag);
  /// MPI_Startall.
  void startall(std::span<PersistentRequest> reqs);
  /// MPI_Waitall over persistent requests.
  void waitall_persistent(std::span<PersistentRequest> reqs);

  /// MPI_Iprobe: check for a matching incoming message without receiving
  /// it. Fills `status` (source/tag/bytes) when one is pending.
  bool iprobe(int src, int tag, Status* status = nullptr);
  /// MPI_Probe: block until a matching message is pending.
  void probe(int src, int tag, Status* status = nullptr);

  // -- explicit pack/unpack (MPI_Pack / MPI_Unpack) -----------------------
  /// Bytes needed to pack `count` elements of `dtype` (MPI_Pack_size).
  std::size_t pack_size(int count, const Datatype& dtype) const;
  /// MPI_Pack: append `count` elements at `inbuf` to `outbuf` at
  /// `position` (updated). GPU-aware: a device `inbuf` is staged with the
  /// Figure-2 scheme the cost model picks (core::pick_pack_scheme).
  void pack(const void* inbuf, int count, const Datatype& dtype,
            void* outbuf, std::size_t outsize, std::size_t& position);
  /// MPI_Unpack: the reverse, with the same choice for a device `outbuf`.
  void unpack(const void* inbuf, std::size_t insize, std::size_t& position,
              void* outbuf, int count, const Datatype& dtype);

  // -- communicator management ---------------------------------------------
  /// MPI_UNDEFINED for split().
  static constexpr int kUndefinedColor = -1;
  /// MPI_Comm_split: members passing the same color (>= 0) form a new
  /// communicator ordered by (key, parent rank); kUndefinedColor yields an
  /// invalid (null) communicator. Collective over this communicator.
  Communicator split(int color, int key = 0);
  /// MPI_Comm_dup: a new context over the same group (traffic on the dup
  /// never matches traffic on the parent). Collective.
  Communicator dup();

  // -- collectives ---------------------------------------------------------
  // All collectives are built on the point-to-point layer, so buffers may
  // live in GPU device memory (GPU-aware collectives — the "more
  // applications" direction of the paper's future work). When the topology
  // co-locates ranks, two-level (intra-node + leader) variants run the
  // node-local phase over the IPC transport where a fixed rule says they
  // pay off; see docs/COLLECTIVES.md, "Selection".

  /// MPI_Barrier (dissemination algorithm).
  void barrier();
  /// MPI_Bcast (binomial tree).
  void bcast(void* buf, int count, const Datatype& dtype, int root);
  /// MPI_Allreduce(MPI_SUM) over doubles. Host buffers only.
  void allreduce_sum(const double* sendbuf, double* recvbuf, int count);
  /// MPI_Allreduce(MPI_MAX) over doubles. Host buffers only.
  void allreduce_max(const double* sendbuf, double* recvbuf, int count);
  /// MPI_Gather: rank i's `count` elements land at recvbuf + i*count
  /// elements on `root` (recvbuf significant at root only).
  void gather(const void* sendbuf, int count, const Datatype& dtype,
              void* recvbuf, int root);
  /// MPI_Scatter: the inverse of gather (sendbuf significant at root).
  void scatter(const void* sendbuf, void* recvbuf, int count,
               const Datatype& dtype, int root);
  /// MPI_Allgather (ring): every rank ends with all p blocks, no root
  /// round-trip.
  void allgather(const void* sendbuf, int count, const Datatype& dtype,
                 void* recvbuf);
  /// MPI_Alltoall (pairwise exchange): block j of sendbuf goes to rank j;
  /// block i of recvbuf comes from rank i. Each block is `count` elements.
  void alltoall(const void* sendbuf, void* recvbuf, int count,
                const Datatype& dtype);

  /// MPI_Wtime: virtual seconds since simulation start.
  double wtime() const;

  /// API-call counters for this rank.
  const ApiStats& api_stats() const;
  void reset_api_stats();

  bool valid() const { return impl_ != nullptr; }

 private:
  friend class Cluster;
  friend class PersistentRequest;
  // Test access to the collective engine, whose operations take a
  // CollForce.
  friend struct detail::CollAccess;
  explicit Communicator(detail::RankComm* impl);
  Communicator(detail::RankComm* impl,
               std::shared_ptr<const detail::CommGroup> group);
  detail::RankComm& impl() const;
  const detail::CommGroup& group() const;
  // Translate the world-rank source in a completed Status to a comm rank.
  void localize(Status* status) const;
  detail::RankComm* impl_ = nullptr;
  std::shared_ptr<const detail::CommGroup> group_;
};

}  // namespace mv2gnc::mpisim

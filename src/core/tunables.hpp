// Runtime tunables of the MV2-GPU-NC communication layer.
//
// The paper stresses that the pipeline block size is a *configurable
// parameter* detected once per cluster with micro-benchmarks and stored in
// a configuration file (§IV-B); 64 KB was optimal on their testbed. This
// struct carries that knob plus the thresholds and pool sizes of the
// protocol, and can be loaded from exactly such a config file.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "sim/time.hpp"

namespace mv2gnc::core {

/// How the pipeline chunk size is chosen per message.
enum class ChunkSelect {
  kModel,  // minimize the modeled makespan of the transfer's GPU copies
  kFixed,  // always use chunk_bytes (the paper's configured 64 KB)
};

/// How the wire path to each peer is chosen (see docs/SIMULATION.md,
/// "Node topology and transport selection").
enum class TransportSelect {
  kAuto,    // co-located ranks use the intra-node IPC channel, others fabric
  kFabric,  // force every peer over the HCA (ablation / debugging)
};

/// How concurrent transfers of one rank share the vbuf pool and the wire
/// (see docs/CONCURRENCY.md).
enum class SchedPolicy {
  kFifo,  // first-grabber-wins vbuf acquisition (legacy behavior)
  kFair,  // round-robin turns + per-transfer vbuf reservations
};

struct Tunables {
  /// Messages at or below this size use the eager protocol.
  std::size_t eager_threshold = 8 * 1024;

  /// Pipeline block size (the paper's 64 KB optimum).
  std::size_t chunk_bytes = 64 * 1024;

  /// Chunked pipelining activates for messages larger than this
  /// ("the proposed pipelining schemes get activated beyond 64 KB", §V-B3).
  std::size_t pipeline_threshold = 64 * 1024;

  /// Host staging (vbuf) pool: buffers per rank, each chunk_bytes large.
  std::size_t vbuf_count = 32;

  /// Receive-side chunk window: how many landing vbufs a CTS advertises
  /// before credits take over.
  std::size_t recv_window = 8;

  /// Ablation lever: offload datatype pack/unpack to the GPU (D2D2H
  /// nc2c2c). When true, the GPU cost model picks the scheme per message
  /// (modeled PCIe-2D vs device pack + contiguous D2H); when false,
  /// strided data always crosses PCIe with cudaMemcpy2D directly (D2H
  /// nc2c), the paper's non-offloaded alternative, and device-buffer
  /// collectives always take the synchronous staged schedule instead of
  /// the sliced pipeline (docs/COLLECTIVES.md).
  bool gpu_offload = true;

  /// Per-message pipeline chunk-size policy. kModel prices the pipeline
  /// the transfer runs from the GPU cost model (the makespan of n chunks
  /// through its pack, D2H, H2D and unpack copies, whichever it has; see
  /// core::select_chunk_bytes) and picks the cheapest chunk; a transfer
  /// with none of those copies, such as an IPC contiguous send, goes as
  /// one chunk. kFixed forces chunk_bytes. The detected-per-cluster config
  /// file of §IV-B maps to kFixed with a measured chunk_bytes.
  ChunkSelect chunk_select = ChunkSelect::kModel;

  /// Ablation lever: overlap the transfer stages. When false every
  /// rendezvous message moves as a single chunk (n = 1).
  bool pipelining = true;

  // -- concurrency scaling (docs/CONCURRENCY.md) -------------------------
  /// How concurrent transfers share the vbuf pool. kFifo reproduces the
  /// single-transfer-era behavior exactly (the ablation baseline); kFair
  /// adds per-transfer reservations, round-robin overflow turns and
  /// adaptive pipeline depth.
  SchedPolicy sched_policy = SchedPolicy::kFifo;

  // -- node topology / transport selection -------------------------------
  /// Processes per simulated node. Ranks r with the same r / ranks_per_node
  /// share one node (blocked placement, like mpirun -ppn). The default of 1
  /// reproduces the paper's one-process-per-node testbed exactly: no IPC
  /// channel exists and every byte crosses the HCA.
  std::size_t ranks_per_node = 1;

  /// Wire-path policy for co-located ranks. kAuto routes them over the
  /// in-node IPC channel (peer D2D copies, no HCA); kFabric forces the
  /// inter-node path everywhere, which isolates the transport's effect.
  TransportSelect transport_select = TransportSelect::kAuto;

  // -- ECN feedback (docs/CONCURRENCY.md) --------------------------------
  /// ECN-style congestion feedback: a chunk whose fabric traversal queued
  /// behind more than this much backlog on one shared link carries a
  /// congestion mark; the receiver echoes the mark on the chunk ack and
  /// the sender's scheduler halves its in-flight depth (like pool
  /// contention). 0 disables marking entirely — the byte-identical
  /// default.
  sim::SimTime ecn_backlog_ns = 0;

  // -- reliability -------------------------------------------------------
  /// Base retransmission timeout for rendezvous control messages: if a
  /// transfer makes no progress for this long, its oldest unacknowledged
  /// message is resent. Must exceed any injected delivery jitter.
  sim::SimTime rndv_timeout_ns = 5'000'000;

  /// Retransmission attempts per transfer before it is failed with a
  /// request error (0 disables retransmission entirely).
  std::size_t rndv_max_retries = 6;

  /// Timeout multiplier applied after each retry (exponential backoff).
  double rndv_backoff_factor = 2.0;

  // -- fault injection / failover (docs/RELIABILITY.md) ------------------
  /// Startup skew: each rank delays a seeded uniform [0, rank_skew_ns]
  /// before entering its body — models non-synchronized process launch.
  sim::SimTime rank_skew_ns = 0;

  /// Per-progress-iteration stall probability: with this probability a
  /// rank pauses for a seeded uniform [0, rank_stall_ns] inside its
  /// progress loop — models OS noise / a late CPU. 0 disables (and skips
  /// all RNG draws, keeping fault-free runs bit-exact).
  double rank_stall_prob = 0.0;

  /// Upper bound of one injected stall window.
  sim::SimTime rank_stall_ns = 0;

  /// Transport failover: demote a routed (IPC) peer to the fabric after
  /// this many consecutive transfer failures. 0 disables failover (the
  /// default — route tables never change at runtime).
  std::size_t transport_failover_threshold = 0;

  /// Consecutive successful transfers (over any path) before a demoted
  /// peer's routed path is optimistically restored.
  std::size_t transport_restore_threshold = 3;

  /// Collective liveness watchdog: each blocking wait inside a collective
  /// gets a deadline of this factor times the p2p layer's worst-case
  /// retry budget. Expiry aborts the collective instead of hanging.
  double coll_watchdog_factor = 4.0;

  // -- host datatype-processing cost model -------------------------------
  /// Effective bandwidth of a strided host-side pack/unpack (GB/s).
  double host_pack_bw = 3.0;
  /// Fixed cost per contiguous run during host pack/unpack.
  double host_seg_overhead_ns = 15.0;

  /// Modeled CPU time to pack/unpack `bytes` spread over `segments` runs.
  sim::SimTime host_pack_time(std::size_t bytes, std::size_t segments) const;

  /// Throws std::invalid_argument when a setting is out of range.
  void validate() const;

  /// Parse "key = value" lines ('#' comments, blank lines allowed);
  /// unknown keys are an error. Returns defaults overlaid with the file.
  static Tunables from_stream(std::istream& in);
  static Tunables from_file(const std::string& path);

  /// Render in the same config format from_stream accepts.
  std::string to_config_string() const;
};

}  // namespace mv2gnc::core

// GPU datatype-processing offload (paper §IV-A).
//
// Three layers:
//  1. The three staging schemes of Figure 2 — "D2H nc2nc", "D2H nc2c" and
//     "D2D2H nc2c2c" — as blocking helpers. The benchmark for Figure 2
//     measures the whole-message ones directly; the eager path and
//     MPI_Pack/MPI_Unpack run the `_any` ones on the scheme
//     pick_pack_scheme chooses.
//  2. Chunked async submit helpers used by the 5-stage pipeline: pack or
//     unpack one packed-stream byte range on a CUDA stream, returning the
//     cusim::Event that marks its completion.
//  3. The per-message cost-model decisions (§IV-B): the Figure-2 scheme
//     every device staging path takes, and the pipeline chunk, priced from
//     the SendStages descriptor that runs the transfer.
//
// Layout handling follows the message's pack plan. A single-vector plan
// (the paper's scope) carries one SubPattern, and each row-aligned range of
// it maps onto one cudaMemcpy2DAsync; sub-patterned plans make one 2-D
// copy per sub-pattern in range. Irregular layouts use a generalized device
// pack kernel (an extension over the paper, which covers vectors only); its
// duration is modeled with the same per-run D2D costs and its body
// performs the real byte gather.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/msg_view.hpp"
#include "cuda/runtime.hpp"
#include "gpu/cost_model.hpp"
#include "sim/time.hpp"

namespace mv2gnc::core {

/// The sender's stages of one transfer (the left column of Figure 3; the
/// full table is in core/rndv.hpp). The receiver's RecvStages mirror them.
struct SendStages {
  /// How a chunk reaches its host staging slot.
  enum class ToHost : std::uint8_t {
    kNone,         // no host slot: the wire reads device or user memory
    kD2HCopy,      // contiguous D2H copy (from the tbuf, or the user buffer)
    kPcieStrided,  // strided PCIe copy out of the user buffer (D2H nc2c)
    kCpuPack,      // CPU pack of a host user buffer
  };
  /// Where the wire (RDMA write or IPC peer copy) reads a chunk from.
  enum class Wire : std::uint8_t { kSlot, kTbuf, kUser };

  bool device_pack = false;  // D2D nc2c pack of the user buffer into tbuf
  ToHost to_host = ToHost::kNone;
  Wire wire = Wire::kUser;
};

/// The three options of paper Figure 1 / Figure 2.
enum class PackScheme {
  kD2H_nc2nc,    // option (a): strided copy out, host image stays strided
  kD2H_nc2c,     // option (b): strided copy packs while crossing PCIe
  kD2D2H_nc2c2c, // option (c): pack inside the device, then contiguous D2H
};

/// Blocking: stage the device-resident message into host memory.
///
/// For kD2H_nc2c / kD2D2H_nc2c2c `host_dst` receives the *packed* stream
/// (msg.packed_bytes bytes). For kD2H_nc2nc it receives the same strided
/// image as device memory (extent-sized; caller provides capacity for
/// count*extent bytes) and packing is left to the caller — exactly the
/// "no pack" option programmers used before GPU-aware MPI.
/// Requires a single-vector plan for the strided schemes; a contiguous
/// message degrades to one plain D2H copy under every scheme.
void stage_to_host(cusim::CudaContext& ctx, PackScheme scheme,
                   const MsgView& msg, std::byte* host_dst);

/// Blocking mirror of stage_to_host: move a host image back into the
/// device-resident message. For the packing schemes `host_src` holds the
/// packed stream; for kD2H_nc2nc it holds the strided image.
void stage_from_host(cusim::CudaContext& ctx, PackScheme scheme,
                     const MsgView& msg, const std::byte* host_src);

/// Async: pack packed-stream range [offset, offset+bytes) of the
/// device-resident message into device memory at `dst_dev` (typically
/// tbuf+offset) on `stream`. Returns the completion event. A range that
/// splits a row adds 1-D copies for the partial rows.
cusim::Event submit_device_pack(cusim::CudaContext& ctx, cusim::Stream& stream,
                                const MsgView& msg, std::size_t offset,
                                std::size_t bytes, std::byte* dst_dev);

/// Async mirror: scatter the packed range from device memory `src_dev`
/// back into the strided message on `stream`.
cusim::Event submit_device_unpack(cusim::CudaContext& ctx,
                                  cusim::Stream& stream, const MsgView& msg,
                                  std::size_t offset, std::size_t bytes,
                                  const std::byte* src_dev);

/// Async: pack the packed-stream range straight into *host* memory with a
/// strided PCIe copy (the non-offloaded "D2H nc2c" pipeline variant;
/// requires a contiguous message, or a single-vector plan and a range of
/// whole rows).
cusim::Event submit_pcie_pack_to_host(cusim::CudaContext& ctx,
                                      cusim::Stream& stream,
                                      const MsgView& msg, std::size_t offset,
                                      std::size_t bytes, std::byte* host_dst);

/// Async mirror: scatter a packed host range into the strided device
/// message with a strided PCIe copy ("H2D c2nc").
cusim::Event submit_pcie_unpack_from_host(cusim::CudaContext& ctx,
                                          cusim::Stream& stream,
                                          const MsgView& msg,
                                          std::size_t offset,
                                          std::size_t bytes,
                                          const std::byte* host_src);

/// Blocking, any layout: gather the device message's first `nbytes` packed
/// bytes into host memory with `scheme` (pick_pack_scheme's choice; used by
/// the eager path and MPI_Pack). kD2H_nc2c is one cudaMemcpy2D and needs a
/// single-vector range of whole rows. kD2D2H_nc2c2c packs on the device
/// (one cudaMemcpy2D for such a range, else the sub-pattern or generalized
/// pack) and then makes one contiguous D2H copy. kD2H_nc2nc does not pack
/// and is rejected.
void stage_to_host_any(cusim::CudaContext& ctx, PackScheme scheme,
                       const MsgView& msg, std::byte* host_dst,
                       std::size_t nbytes);

/// Blocking mirror: scatter `nbytes` packed host bytes into the device
/// message with `scheme`.
void stage_from_host_any(cusim::CudaContext& ctx, PackScheme scheme,
                         const MsgView& msg, const std::byte* host_src,
                         std::size_t nbytes);

/// Round `chunk` down to a multiple of a single-vector message's block size
/// (minimum one block); returns `chunk` unchanged for every other layout.
std::size_t align_chunk_to_pattern(const MsgView& msg, std::size_t chunk);

// ---------------------------------------------------------------------------
// Cost-model-driven per-message decisions (paper §IV-B)
// ---------------------------------------------------------------------------

/// Modeled time to move `msg` through `stages` in `chunk`-byte chunks
/// (§IV-B): the makespan of an n = ceil(N/chunk) chunk linear pipeline,
/// sum_s t_s + (n-1)·max_s t_s, every chunk priced at `chunk` bytes. The
/// stages s are the GPU copies `stages` names, mirrored at the receiver:
/// the device pack and unpack, then the D2H and H2D copies (contiguous, or
/// 2-D for the strided PCIe path). The transport leg (fabric wire, IPC peer
/// copy) is not priced, so a transfer with no GPU copy is modeled at 0.
sim::SimTime modeled_pipeline_time(const gpu::GpuCostModel& cost,
                                   const MsgView& msg,
                                   const SendStages& stages,
                                   std::size_t chunk);

/// Pipeline chunk size minimizing modeled_pipeline_time over power-of-two
/// candidates (8 KB .. 1 MB), each aligned to the message's pattern block
/// and capped at the message size. A transfer with no priced stage goes as
/// one chunk (returns the message size); an empty message returns
/// `fallback`.
std::size_t select_chunk_bytes(const gpu::GpuCostModel& cost,
                               const MsgView& msg, const SendStages& stages,
                               std::size_t fallback);

/// The Figure-2 scheme that moves the first `bytes` packed bytes of a
/// device-resident message across PCIe, either way: kD2D2H_nc2c2c (pack
/// on the device, then one contiguous copy) or kD2H_nc2c (one strided
/// copy). The one place the choice is made: the rendezvous stage
/// descriptors, the eager send and receive, and MPI_Pack/MPI_Unpack all
/// take it from here.
///   * A range no single 2-D copy expresses (a layout that is not one
///     vector, or one that splits a row) packs on the device.
///   * Otherwise `gpu_offload = false` forces the strided copy.
///   * Otherwise the cheaper blocking end-to-end cost wins, priced on the
///     rows the bytes cover (not the whole buffer's rows).
/// A contiguous message gets kD2H_nc2c: every scheme is one plain copy.
PackScheme pick_pack_scheme(const gpu::GpuCostModel& cost, const MsgView& msg,
                            std::size_t bytes, bool gpu_offload);

}  // namespace mv2gnc::core

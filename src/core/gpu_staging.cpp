#include "core/gpu_staging.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace mv2gnc::core {

namespace {

// The plan's one sub-pattern when the whole message is a single uniform
// 2-D pattern (kSingleVector), else null.
const SubPattern* single_pattern(const MsgView& msg) {
  return msg.plan->layout() == LayoutClass::kSingleVector
             ? &msg.plan->subpatterns().front()
             : nullptr;
}

std::byte* row_ptr(const MsgView& msg, const SubPattern& sp, std::size_t row) {
  return static_cast<std::byte*>(msg.base) + sp.first_offset +
         static_cast<std::int64_t>(row) * sp.stride;
}

// The single pattern a strided copy walks for packed range [offset,
// offset+bytes), which must cover whole rows of it.
const SubPattern& whole_rows(const MsgView& msg, std::size_t offset,
                             std::size_t bytes, const char* api) {
  const SubPattern* sp = single_pattern(msg);
  if (sp == nullptr) {
    throw std::logic_error(std::string(api) +
                           ": strided copy requires a single-vector layout; "
                           "use the pipeline path for other datatypes");
  }
  if (offset % sp->block != 0 || bytes % sp->block != 0) {
    throw std::logic_error(std::string(api) + ": range not block-aligned");
  }
  if ((offset + bytes) / sp->block > sp->rows) {
    throw std::out_of_range(std::string(api) + ": range beyond pattern");
  }
  return *sp;
}

// Generalized device pack/unpack kernel: a per-run gather/scatter over
// arbitrary descriptors. Every run pays the full first-row cost — unlike a
// uniform 2-D copy, the DMA engine cannot amortize descriptor processing
// across irregular runs (this is exactly what the plan's sub-pattern
// decomposition exists to avoid). The body performs the real byte moves.
cusim::Event submit_generalized(cusim::CudaContext& ctx, cusim::Stream& stream,
                                const MsgView& msg, std::size_t offset,
                                std::size_t bytes, std::byte* dense,
                                bool packing) {
  const auto& cost = ctx.device().cost();
  const std::size_t runs = msg.plan->segments_in_range(offset, bytes);
  const sim::SimTime dur =
      cost.d2d_2d_setup_ns + cost.copy_launch_ns +
      static_cast<sim::SimTime>(static_cast<double>(runs) *
                                cost.d2d_row_first_ns) +
      cost.transfer_time(bytes, gpu::CopyDir::kDeviceToDevice);
  void* base = msg.base;
  const mpisim::Datatype dtype = msg.dtype;
  const int count = msg.count;
  ctx.launch_kernel_timed(stream, dur, [=] {
    if (packing) {
      dtype.pack_bytes(base, count, offset, bytes, dense);
    } else {
      dtype.unpack_bytes(dense, count, offset, bytes, base);
    }
  });
  return ctx.record_event(stream);
}

// Sub-pattern pack/unpack: the plan grouped the rows into maximal uniform
// (block, stride, rows) sub-patterns, so the packed range becomes a short
// sequence of 2-D copies (plus 1-D head/tail copies where a chunk boundary
// splits a row) instead of one degenerate per-row gather. A single-vector
// plan has one sub-pattern, so a row-aligned range of it is exactly one
// cudaMemcpy2DAsync — the offload of paper §IV-A.
cusim::Event submit_subpatterned(cusim::CudaContext& ctx,
                                 cusim::Stream& stream, const MsgView& msg,
                                 std::size_t offset, std::size_t bytes,
                                 std::byte* dense, bool packing) {
  const std::size_t end = offset + bytes;
  const auto copy1d = [&](std::byte* strided, std::byte* packed,
                          std::size_t n) {
    if (packing) {
      ctx.memcpy_async(packed, strided, n,
                       cusim::MemcpyKind::kDeviceToDevice, stream);
    } else {
      ctx.memcpy_async(strided, packed, n,
                       cusim::MemcpyKind::kDeviceToDevice, stream);
    }
  };
  for (const SubPattern& sp : msg.plan->subpatterns()) {
    const std::size_t sp_end = sp.packed_offset + sp.packed_bytes();
    if (sp_end <= offset) continue;
    if (sp.packed_offset >= end) break;
    std::size_t lo = std::max(offset, sp.packed_offset) - sp.packed_offset;
    const std::size_t hi = std::min(end, sp_end) - sp.packed_offset;
    std::byte* d = dense + (sp.packed_offset + lo - offset);
    std::size_t row = lo / sp.block;
    const std::size_t rskip = lo % sp.block;
    std::byte* const sp_base = row_ptr(msg, sp, 0);
    if (rskip != 0) {  // head: finish the split row with a 1-D copy
      const std::size_t take = std::min(sp.block - rskip, hi - lo);
      copy1d(sp_base + static_cast<std::int64_t>(row) * sp.stride + rskip, d,
             take);
      lo += take;
      d += take;
      ++row;
    }
    const std::size_t full_rows = (hi - lo) / sp.block;
    if (full_rows > 0) {
      std::byte* first = sp_base + static_cast<std::int64_t>(row) * sp.stride;
      const auto stride = static_cast<std::size_t>(sp.stride);
      if (packing) {
        ctx.memcpy2d_async(d, sp.block, first, stride, sp.block, full_rows,
                           cusim::MemcpyKind::kDeviceToDevice, stream);
      } else {
        ctx.memcpy2d_async(first, stride, d, sp.block, sp.block, full_rows,
                           cusim::MemcpyKind::kDeviceToDevice, stream);
      }
      lo += full_rows * sp.block;
      d += full_rows * sp.block;
      row += full_rows;
    }
    const std::size_t tail = hi - lo;
    if (tail > 0) {  // tail: start of a split row
      copy1d(sp_base + static_cast<std::int64_t>(row) * sp.stride, d, tail);
    }
  }
  return ctx.record_event(stream);
}

}  // namespace

std::size_t align_chunk_to_pattern(const MsgView& msg, std::size_t chunk) {
  const SubPattern* sp = msg.contiguous ? nullptr : single_pattern(msg);
  if (sp == nullptr) return chunk;
  if (chunk <= sp->block) return sp->block;
  return (chunk / sp->block) * sp->block;
}

// ---------------------------------------------------------------------------
// Blocking whole-message schemes (Figure 2)
// ---------------------------------------------------------------------------

namespace {

// One Figure-2 scheme over the first `rows` rows of the single pattern
// `sp`, as blocking cudaMemcpy2D / cudaMemcpy calls (no stream submit).
void rows_to_host(cusim::CudaContext& ctx, PackScheme scheme,
                  const MsgView& msg, const SubPattern& sp, std::size_t rows,
                  std::byte* host_dst) {
  std::byte* const first = row_ptr(msg, sp, 0);
  const auto stride = static_cast<std::size_t>(sp.stride);
  switch (scheme) {
    case PackScheme::kD2H_nc2nc:
      // Same-layout copy out: the host image keeps the device stride.
      ctx.memcpy2d(host_dst, stride, first, stride, sp.block, rows,
                   cusim::MemcpyKind::kDeviceToHost);
      return;
    case PackScheme::kD2H_nc2c:
      ctx.memcpy2d(host_dst, sp.block, first, stride, sp.block, rows,
                   cusim::MemcpyKind::kDeviceToHost);
      return;
    case PackScheme::kD2D2H_nc2c2c: {
      const std::size_t bytes = rows * sp.block;
      auto* tbuf = static_cast<std::byte*>(ctx.malloc(bytes));
      ctx.memcpy2d(tbuf, sp.block, first, stride, sp.block, rows,
                   cusim::MemcpyKind::kDeviceToDevice);
      ctx.memcpy(host_dst, tbuf, bytes, cusim::MemcpyKind::kDeviceToHost);
      ctx.free(tbuf);
      return;
    }
  }
}

void rows_from_host(cusim::CudaContext& ctx, PackScheme scheme,
                    const MsgView& msg, const SubPattern& sp,
                    std::size_t rows, const std::byte* host_src) {
  std::byte* const first = row_ptr(msg, sp, 0);
  const auto stride = static_cast<std::size_t>(sp.stride);
  switch (scheme) {
    case PackScheme::kD2H_nc2nc:
      ctx.memcpy2d(first, stride, host_src, stride, sp.block, rows,
                   cusim::MemcpyKind::kHostToDevice);
      return;
    case PackScheme::kD2H_nc2c:
      ctx.memcpy2d(first, stride, host_src, sp.block, sp.block, rows,
                   cusim::MemcpyKind::kHostToDevice);
      return;
    case PackScheme::kD2D2H_nc2c2c: {
      const std::size_t bytes = rows * sp.block;
      auto* tbuf = static_cast<std::byte*>(ctx.malloc(bytes));
      ctx.memcpy(tbuf, host_src, bytes, cusim::MemcpyKind::kHostToDevice);
      ctx.memcpy2d(first, stride, tbuf, sp.block, sp.block, rows,
                   cusim::MemcpyKind::kDeviceToDevice);
      ctx.free(tbuf);
      return;
    }
  }
}

// The single pattern whose whole rows a blocking 2-D copy walks for the
// first `nbytes` packed bytes under `scheme`, or null when the range needs
// the device pack kernels (nc2c2c over another layout or a split row).
const SubPattern* rows_for(const MsgView& msg, PackScheme scheme,
                           std::size_t nbytes, const char* api) {
  if (scheme == PackScheme::kD2H_nc2nc) {
    throw std::invalid_argument(std::string(api) +
                                ": nc2nc leaves the host image unpacked");
  }
  const SubPattern* sp = single_pattern(msg);
  if (scheme == PackScheme::kD2H_nc2c ||
      (sp != nullptr && nbytes % sp->block == 0)) {
    return &whole_rows(msg, 0, nbytes, api);
  }
  return nullptr;
}

}  // namespace

void stage_to_host(cusim::CudaContext& ctx, PackScheme scheme,
                   const MsgView& msg, std::byte* host_dst) {
  if (!msg.on_device) {
    throw std::logic_error("stage_to_host: message is not device-resident");
  }
  if (msg.packed_bytes == 0) return;
  if (msg.contiguous) {
    ctx.memcpy(host_dst, msg.base, msg.packed_bytes,
               cusim::MemcpyKind::kDeviceToHost);
    return;
  }
  const SubPattern& sp = whole_rows(msg, 0, msg.packed_bytes, "stage_to_host");
  rows_to_host(ctx, scheme, msg, sp, sp.rows, host_dst);
}

void stage_from_host(cusim::CudaContext& ctx, PackScheme scheme,
                     const MsgView& msg, const std::byte* host_src) {
  if (!msg.on_device) {
    throw std::logic_error("stage_from_host: message is not device-resident");
  }
  if (msg.packed_bytes == 0) return;
  if (msg.contiguous) {
    ctx.memcpy(msg.base, host_src, msg.packed_bytes,
               cusim::MemcpyKind::kHostToDevice);
    return;
  }
  const SubPattern& sp =
      whole_rows(msg, 0, msg.packed_bytes, "stage_from_host");
  rows_from_host(ctx, scheme, msg, sp, sp.rows, host_src);
}

// ---------------------------------------------------------------------------
// Blocking any-layout helpers (eager path, MPI_Pack/MPI_Unpack)
// ---------------------------------------------------------------------------

void stage_to_host_any(cusim::CudaContext& ctx, PackScheme scheme,
                       const MsgView& msg, std::byte* host_dst,
                       std::size_t nbytes) {
  if (nbytes == 0) return;
  if (nbytes > msg.packed_bytes) {
    throw std::out_of_range("stage_to_host_any: nbytes beyond message");
  }
  if (msg.contiguous) {
    ctx.memcpy(host_dst, msg.base, nbytes, cusim::MemcpyKind::kDeviceToHost);
    return;
  }
  if (const SubPattern* sp =
          rows_for(msg, scheme, nbytes, "stage_to_host_any")) {
    rows_to_host(ctx, scheme, msg, *sp, nbytes / sp->block, host_dst);
    return;
  }
  // Other layouts and split rows: submit_device_pack picks sub-pattern 2-D
  // copies or the generalized kernel from the plan, then one D2H copy.
  auto* tbuf = static_cast<std::byte*>(ctx.malloc(nbytes));
  auto& stream = ctx.default_stream();
  submit_device_pack(ctx, stream, msg, 0, nbytes, tbuf).synchronize();
  ctx.memcpy(host_dst, tbuf, nbytes, cusim::MemcpyKind::kDeviceToHost);
  ctx.free(tbuf);
}

void stage_from_host_any(cusim::CudaContext& ctx, PackScheme scheme,
                         const MsgView& msg, const std::byte* host_src,
                         std::size_t nbytes) {
  if (nbytes == 0) return;
  if (nbytes > msg.packed_bytes) {
    throw std::out_of_range("stage_from_host_any: nbytes beyond message");
  }
  if (msg.contiguous) {
    ctx.memcpy(msg.base, host_src, nbytes, cusim::MemcpyKind::kHostToDevice);
    return;
  }
  if (const SubPattern* sp =
          rows_for(msg, scheme, nbytes, "stage_from_host_any")) {
    rows_from_host(ctx, scheme, msg, *sp, nbytes / sp->block, host_src);
    return;
  }
  auto* tbuf = static_cast<std::byte*>(ctx.malloc(nbytes));
  ctx.memcpy(tbuf, host_src, nbytes, cusim::MemcpyKind::kHostToDevice);
  auto& stream = ctx.default_stream();
  submit_device_unpack(ctx, stream, msg, 0, nbytes, tbuf).synchronize();
  ctx.free(tbuf);
}

// ---------------------------------------------------------------------------
// Chunked async helpers (the pipeline's stage 1 and stage 5)
// ---------------------------------------------------------------------------

cusim::Event submit_device_pack(cusim::CudaContext& ctx, cusim::Stream& stream,
                                const MsgView& msg, std::size_t offset,
                                std::size_t bytes, std::byte* dst_dev) {
  if (msg.contiguous) {
    ctx.memcpy_async(dst_dev, static_cast<std::byte*>(msg.base) + offset,
                     bytes, cusim::MemcpyKind::kDeviceToDevice, stream);
    return ctx.record_event(stream);
  }
  if (!msg.plan->subpatterns().empty()) {
    return submit_subpatterned(ctx, stream, msg, offset, bytes, dst_dev,
                               true);
  }
  return submit_generalized(ctx, stream, msg, offset, bytes, dst_dev, true);
}

cusim::Event submit_device_unpack(cusim::CudaContext& ctx,
                                  cusim::Stream& stream, const MsgView& msg,
                                  std::size_t offset, std::size_t bytes,
                                  const std::byte* src_dev) {
  if (msg.contiguous) {
    ctx.memcpy_async(static_cast<std::byte*>(msg.base) + offset, src_dev,
                     bytes, cusim::MemcpyKind::kDeviceToDevice, stream);
    return ctx.record_event(stream);
  }
  if (!msg.plan->subpatterns().empty()) {
    return submit_subpatterned(ctx, stream, msg, offset, bytes,
                               const_cast<std::byte*>(src_dev), false);
  }
  return submit_generalized(ctx, stream, msg, offset, bytes,
                            const_cast<std::byte*>(src_dev), false);
}

cusim::Event submit_pcie_pack_to_host(cusim::CudaContext& ctx,
                                      cusim::Stream& stream,
                                      const MsgView& msg, std::size_t offset,
                                      std::size_t bytes,
                                      std::byte* host_dst) {
  if (msg.contiguous) {
    ctx.memcpy_async(host_dst, static_cast<std::byte*>(msg.base) + offset,
                     bytes, cusim::MemcpyKind::kDeviceToHost, stream);
    return ctx.record_event(stream);
  }
  const SubPattern& sp =
      whole_rows(msg, offset, bytes, "submit_pcie_pack_to_host");
  ctx.memcpy2d_async(host_dst, sp.block, row_ptr(msg, sp, offset / sp.block),
                     static_cast<std::size_t>(sp.stride), sp.block,
                     bytes / sp.block, cusim::MemcpyKind::kDeviceToHost,
                     stream);
  return ctx.record_event(stream);
}

cusim::Event submit_pcie_unpack_from_host(cusim::CudaContext& ctx,
                                          cusim::Stream& stream,
                                          const MsgView& msg,
                                          std::size_t offset,
                                          std::size_t bytes,
                                          const std::byte* host_src) {
  if (msg.contiguous) {
    ctx.memcpy_async(static_cast<std::byte*>(msg.base) + offset, host_src,
                     bytes, cusim::MemcpyKind::kHostToDevice, stream);
    return ctx.record_event(stream);
  }
  const SubPattern& sp =
      whole_rows(msg, offset, bytes, "submit_pcie_unpack_from_host");
  ctx.memcpy2d_async(row_ptr(msg, sp, offset / sp.block),
                     static_cast<std::size_t>(sp.stride), host_src, sp.block,
                     sp.block, bytes / sp.block,
                     cusim::MemcpyKind::kHostToDevice, stream);
  return ctx.record_event(stream);
}

// ---------------------------------------------------------------------------
// Cost-model-driven decisions (paper §IV-B)
// ---------------------------------------------------------------------------

namespace {

// Representative (row width, row count) of a `chunk`-byte slice.
struct ChunkShape {
  std::size_t width;
  std::size_t rows;
};

ChunkShape chunk_shape(const MsgView& msg, std::size_t chunk) {
  if (const SubPattern* sp = single_pattern(msg)) {
    return {sp->block, std::max<std::size_t>(1, chunk / sp->block)};
  }
  if (msg.plan->total_segments() > 0 && msg.packed_bytes > 0) {
    const auto rows = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               static_cast<double>(msg.plan->total_segments()) *
               static_cast<double>(chunk) /
               static_cast<double>(msg.packed_bytes)));
    return {std::max<std::size_t>(1, chunk / rows), rows};
  }
  return {chunk, 1};
}

// Modeled D2D pack of one `chunk`-byte chunk of shape `s` into the tbuf.
// The receiver's unpack costs the same.
sim::SimTime device_pack_time(const gpu::GpuCostModel& cost,
                              const MsgView& msg, ChunkShape s,
                              std::size_t chunk) {
  if (msg.plan->layout() == LayoutClass::kIrregular) {
    // Generalized gather: flat per-run cost, no descriptor amortization.
    return cost.d2d_2d_setup_ns + cost.copy_launch_ns +
           static_cast<sim::SimTime>(static_cast<double>(s.rows) *
                                     cost.d2d_row_first_ns) +
           cost.transfer_time(chunk, gpu::CopyDir::kDeviceToDevice);
  }
  return cost.copy2d_time(s.width, s.rows, gpu::CopyDir::kDeviceToDevice,
                          gpu::Layout2D::kPack, /*rows_contiguous=*/false);
}

}  // namespace

sim::SimTime modeled_pipeline_time(const gpu::GpuCostModel& cost,
                                   const MsgView& msg,
                                   const SendStages& stages,
                                   std::size_t chunk) {
  chunk = std::min(chunk, msg.packed_bytes);
  if (chunk == 0) return 0;
  const ChunkShape s = chunk_shape(msg, chunk);
  // Sum and maximum of the GPU copies one chunk passes through.
  sim::SimTime sum = 0;
  sim::SimTime slowest = 0;
  const auto add = [&](sim::SimTime t) {
    sum += t;
    slowest = std::max(slowest, t);
  };
  if (stages.device_pack) {
    const sim::SimTime pack = device_pack_time(cost, msg, s, chunk);
    add(pack);  // sender: pack into the tbuf
    add(pack);  // receiver: unpack out of the reassembly buffer
  }
  switch (stages.to_host) {
    case SendStages::ToHost::kD2HCopy:
      add(cost.copy_time(chunk, gpu::CopyDir::kDeviceToHost));
      add(cost.copy_time(chunk, gpu::CopyDir::kHostToDevice));
      break;
    case SendStages::ToHost::kPcieStrided:
      // nc2c: the strided copy is the PCIe crossing, both ways.
      add(cost.copy2d_time(s.width, s.rows, gpu::CopyDir::kDeviceToHost,
                           gpu::Layout2D::kPack, /*rows_contiguous=*/false));
      add(cost.copy2d_time(s.width, s.rows, gpu::CopyDir::kHostToDevice,
                           gpu::Layout2D::kUnpack, /*rows_contiguous=*/false));
      break;
    case SendStages::ToHost::kNone:
    case SendStages::ToHost::kCpuPack:
      break;
  }
  const auto n =
      static_cast<sim::SimTime>((msg.packed_bytes + chunk - 1) / chunk);
  return sum + (n - 1) * slowest;
}

std::size_t select_chunk_bytes(const gpu::GpuCostModel& cost,
                               const MsgView& msg, const SendStages& stages,
                               std::size_t fallback) {
  const std::size_t n_total = msg.packed_bytes;
  if (n_total == 0) return fallback;
  std::size_t best = n_total;
  sim::SimTime best_time = std::numeric_limits<sim::SimTime>::max();
  for (std::size_t c = 8 * 1024; c <= 1024 * 1024; c *= 2) {
    const std::size_t cand =
        align_chunk_to_pattern(msg, std::min(c, n_total));
    const sim::SimTime t = modeled_pipeline_time(cost, msg, stages, cand);
    if (t == 0) return n_total;  // no priced stage: nothing to overlap
    if (t < best_time) {
      best_time = t;
      best = cand;
    }
  }
  return best;
}

PackScheme pick_pack_scheme(const gpu::GpuCostModel& cost, const MsgView& msg,
                            std::size_t bytes, bool gpu_offload) {
  if (msg.contiguous) return PackScheme::kD2H_nc2c;
  const SubPattern* sp = single_pattern(msg);
  // No single cudaMemcpy2D walks the range across PCIe.
  if (sp == nullptr || bytes % sp->block != 0) {
    return PackScheme::kD2D2H_nc2c2c;
  }
  // gpu_offload = false is the hard ablation override (the paper's nc2c
  // measurement runs).
  const std::size_t rows = bytes / sp->block;
  if (!gpu_offload || rows == 0) return PackScheme::kD2H_nc2c;
  // Blocking end-to-end comparison (Figure 2) over the rows moved: one
  // strided PCIe copy vs device pack followed by a contiguous PCIe copy.
  const sim::SimTime nc2c =
      cost.copy2d_time(sp->block, rows, gpu::CopyDir::kDeviceToHost,
                       gpu::Layout2D::kPack, /*rows_contiguous=*/false);
  const sim::SimTime nc2c2c =
      cost.copy2d_time(sp->block, rows, gpu::CopyDir::kDeviceToDevice,
                       gpu::Layout2D::kPack, /*rows_contiguous=*/false) +
      cost.copy_time(bytes, gpu::CopyDir::kDeviceToHost);
  return nc2c2c < nc2c ? PackScheme::kD2D2H_nc2c2c : PackScheme::kD2H_nc2c;
}

}  // namespace mv2gnc::core

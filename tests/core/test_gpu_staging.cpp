// GPU staging helpers: data integrity of the three Figure-2 schemes and of
// the chunked pack/unpack used by the pipeline (including the generalized
// kernel for irregular layouts), plus the timing relationships the paper's
// offload argument rests on.
#include "core/gpu_staging.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "cuda/runtime.hpp"
#include "gpu/device.hpp"

namespace core = mv2gnc::core;
namespace cusim = mv2gnc::cusim;
namespace gpu = mv2gnc::gpu;
namespace sim = mv2gnc::sim;
using mv2gnc::mpisim::Datatype;

namespace {

struct Rig {
  sim::Engine eng;
  gpu::MemoryRegistry reg;
  gpu::Device dev{eng, reg, 0, gpu::GpuCostModel::tesla_c2050(), 256u << 20};
  cusim::CudaContext ctx{dev};

  void run(const std::function<void()>& body) {
    eng.spawn("t", body);
    eng.run();
  }
};

Datatype committed(Datatype t) {
  t.commit();
  return t;
}

}  // namespace

class StageSchemes : public ::testing::TestWithParam<core::PackScheme> {};

TEST_P(StageSchemes, RoundTripPreservesData) {
  const auto scheme = GetParam();
  Rig rig;
  rig.run([&] {
    constexpr int kRows = 500, kStrideElems = 3;
    auto t = committed(
        Datatype::vector(kRows, 1, kStrideElems, Datatype::int32()));
    const std::size_t span = static_cast<std::size_t>(t.extent()) + 16;
    auto* dev = static_cast<std::byte*>(rig.ctx.malloc(span));
    std::vector<std::byte> init(span);
    for (std::size_t i = 0; i < span; ++i) {
      init[i] = static_cast<std::byte>(i * 31 & 0xFF);
    }
    rig.ctx.memcpy(dev, init.data(), span);
    auto msg = core::MsgView::make(dev, 1, t, rig.reg);

    // Host buffer big enough for either packed or strided images.
    std::vector<std::byte> host(span + 64, std::byte{0});
    core::stage_to_host(rig.ctx, scheme, msg, host.data());

    // Scrub the device data region, then bring the data back.
    auto* dev2 = static_cast<std::byte*>(rig.ctx.malloc(span));
    rig.ctx.memset(dev2, 0, span);
    auto msg2 = core::MsgView::make(dev2, 1, t, rig.reg);
    core::stage_from_host(rig.ctx, scheme, msg2, host.data());

    std::vector<std::byte> out(span);
    rig.ctx.memcpy(out.data(), dev2, span);
    for (int r = 0; r < kRows; ++r) {
      const std::size_t off = static_cast<std::size_t>(r) * kStrideElems * 4;
      EXPECT_EQ(std::memcmp(out.data() + off, init.data() + off, 4), 0)
          << "row " << r;
    }
    rig.ctx.free(dev);
    rig.ctx.free(dev2);
  });
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, StageSchemes,
                         ::testing::Values(core::PackScheme::kD2H_nc2nc,
                                           core::PackScheme::kD2H_nc2c,
                                           core::PackScheme::kD2D2H_nc2c2c));

TEST(GpuStaging, OffloadSchemeFastestForLargeVectors) {
  // The crux of §IV-A: D2D2H beats both PCIe-strided schemes at size.
  Rig rig;
  rig.run([&] {
    constexpr int kRows = 1 << 16;
    auto t = committed(Datatype::vector(kRows, 1, 2, Datatype::float32()));
    const std::size_t span = static_cast<std::size_t>(t.extent()) + 16;
    auto* dev = static_cast<std::byte*>(rig.ctx.malloc(span));
    auto msg = core::MsgView::make(dev, 1, t, rig.reg);
    std::vector<std::byte> host(span + 64);
    auto timed = [&](core::PackScheme s) {
      const sim::SimTime t0 = rig.eng.now();
      core::stage_to_host(rig.ctx, s, msg, host.data());
      return rig.eng.now() - t0;
    };
    const sim::SimTime nc2nc = timed(core::PackScheme::kD2H_nc2nc);
    const sim::SimTime nc2c = timed(core::PackScheme::kD2H_nc2c);
    const sim::SimTime offload = timed(core::PackScheme::kD2D2H_nc2c2c);
    EXPECT_LT(offload, nc2nc);
    EXPECT_LT(offload, nc2c);
    EXPECT_LT(nc2nc, nc2c);  // nc2c pays the higher packing row cost
    rig.ctx.free(dev);
  });
}

TEST(GpuStaging, ChunkedDevicePackMatchesHostPack) {
  Rig rig;
  rig.run([&] {
    constexpr int kRows = 4096;
    auto t = committed(Datatype::vector(kRows, 2, 5, Datatype::int32()));
    const std::size_t span = static_cast<std::size_t>(t.extent()) + 16;
    auto* dev = static_cast<std::byte*>(rig.ctx.malloc(span));
    std::vector<std::byte> init(span);
    for (std::size_t i = 0; i < span; ++i) {
      init[i] = static_cast<std::byte>((i * 7 + 1) & 0xFF);
    }
    rig.ctx.memcpy(dev, init.data(), span);
    auto msg = core::MsgView::make(dev, 1, t, rig.reg);
    const std::size_t total = msg.packed_bytes;

    auto* tbuf = static_cast<std::byte*>(rig.ctx.malloc(total));
    auto stream = rig.ctx.create_stream();
    const std::size_t chunk = core::align_chunk_to_pattern(msg, 1000);
    ASSERT_EQ(msg.plan->subpatterns().size(), 1u);
    EXPECT_EQ(chunk % msg.plan->subpatterns()[0].block, 0u);
    for (std::size_t off = 0; off < total; off += chunk) {
      const std::size_t n = std::min(chunk, total - off);
      core::submit_device_pack(rig.ctx, stream, msg, off, n, tbuf + off);
    }
    stream.synchronize();

    std::vector<std::byte> got(total);
    rig.ctx.memcpy(got.data(), tbuf, total);
    std::vector<std::byte> want(total);
    t.pack(init.data(), 1, want.data());
    EXPECT_EQ(got, want);
    rig.ctx.free(dev);
    rig.ctx.free(tbuf);
  });
}

TEST(GpuStaging, GeneralizedKernelHandlesIrregularLayout) {
  Rig rig;
  rig.run([&] {
    const std::array<int, 3> lens{2, 1, 3};
    const std::array<int, 3> displs{0, 5, 9};
    auto t = committed(Datatype::indexed(lens, displs, Datatype::int32()));
    const int count = 200;
    const std::size_t span =
        static_cast<std::size_t>(t.extent()) * count + 32;
    auto* dev = static_cast<std::byte*>(rig.ctx.malloc(span));
    std::vector<std::byte> init(span);
    for (std::size_t i = 0; i < span; ++i) {
      init[i] = static_cast<std::byte>(i & 0xFF);
    }
    rig.ctx.memcpy(dev, init.data(), span);
    auto msg = core::MsgView::make(dev, count, t, rig.reg);
    ASSERT_TRUE(msg.plan->subpatterns().empty());  // generalized kernel

    auto* tbuf = static_cast<std::byte*>(rig.ctx.malloc(msg.packed_bytes));
    auto stream = rig.ctx.create_stream();
    core::submit_device_pack(rig.ctx, stream, msg, 0, msg.packed_bytes, tbuf);
    stream.synchronize();
    std::vector<std::byte> got(msg.packed_bytes);
    rig.ctx.memcpy(got.data(), tbuf, msg.packed_bytes);
    std::vector<std::byte> want(msg.packed_bytes);
    t.pack(init.data(), count, want.data());
    EXPECT_EQ(got, want);

    // And back: unpack into a scrubbed buffer.
    auto* dev2 = static_cast<std::byte*>(rig.ctx.malloc(span));
    rig.ctx.memset(dev2, 0, span);
    auto msg2 = core::MsgView::make(dev2, count, t, rig.reg);
    core::submit_device_unpack(rig.ctx, stream, msg2, 0, msg2.packed_bytes,
                               tbuf);
    stream.synchronize();
    std::vector<std::byte> out(span);
    rig.ctx.memcpy(out.data(), dev2, span);
    std::vector<std::byte> expect(span, std::byte{0});
    t.unpack(want.data(), count, expect.data());
    EXPECT_EQ(out, expect);
    rig.ctx.free(dev);
    rig.ctx.free(dev2);
    rig.ctx.free(tbuf);
  });
}

TEST(GpuStaging, StageAnyHandlesUnalignedSlices) {
  Rig rig;
  rig.run([&] {
    auto t = committed(Datatype::vector(100, 1, 2, Datatype::float32()));
    const std::size_t span = static_cast<std::size_t>(t.extent()) + 16;
    auto* dev = static_cast<std::byte*>(rig.ctx.malloc(span));
    std::vector<std::byte> init(span);
    for (std::size_t i = 0; i < span; ++i) {
      init[i] = static_cast<std::byte>(i * 3 & 0xFF);
    }
    rig.ctx.memcpy(dev, init.data(), span);
    auto msg = core::MsgView::make(dev, 1, t, rig.reg);

    // 150 bytes is not a multiple of the 4-byte block size: no strided
    // PCIe copy expresses the range, so it packs on the device.
    const core::PackScheme scheme =
        core::pick_pack_scheme(rig.dev.cost(), msg, 150, /*gpu_offload=*/false);
    EXPECT_EQ(scheme, core::PackScheme::kD2D2H_nc2c2c);
    std::vector<std::byte> host(150, std::byte{0});
    core::stage_to_host_any(rig.ctx, scheme, msg, host.data(), 150);
    std::vector<std::byte> want(msg.packed_bytes);
    t.pack(init.data(), 1, want.data());
    EXPECT_EQ(std::memcmp(host.data(), want.data(), 150), 0);
    rig.ctx.free(dev);
  });
}

TEST(GpuStaging, AlignChunkToPattern) {
  Rig rig;
  rig.run([&] {
    auto t = committed(Datatype::vector(64, 3, 5, Datatype::int32()));
    auto* dev = static_cast<std::byte*>(rig.ctx.malloc(4096));
    auto msg = core::MsgView::make(dev, 1, t, rig.reg);
    ASSERT_EQ(msg.plan->subpatterns().size(), 1u);
    EXPECT_EQ(msg.plan->subpatterns()[0].block, 12u);
    EXPECT_EQ(core::align_chunk_to_pattern(msg, 100), 96u);  // 8 blocks
    EXPECT_EQ(core::align_chunk_to_pattern(msg, 5), 12u);    // min 1 block
    // Contiguous: untouched.
    auto c = committed(Datatype::int32());
    auto cm = core::MsgView::make(dev, 4, c, rig.reg);
    EXPECT_EQ(core::align_chunk_to_pattern(cm, 100), 100u);
    rig.ctx.free(dev);
  });
}

TEST(GpuStaging, StrideSmallerThanBlockFallsBackToGeneralized) {
  // A "pattern" whose stride < block cannot be expressed as cudaMemcpy2D;
  // the staging helpers must reject or fall back rather than corrupt data.
  Rig rig;
  rig.run([&] {
    // Overlapping-read layout: hvector stride 2 bytes < block 4 bytes.
    auto t = committed(Datatype::hvector(8, 1, 2, Datatype::int32()));
    auto* dev = static_cast<std::byte*>(rig.ctx.malloc(256));
    auto msg = core::MsgView::make(dev, 1, t, rig.reg);
    auto* tbuf = static_cast<std::byte*>(rig.ctx.malloc(msg.packed_bytes));
    auto stream = rig.ctx.create_stream();
    // Must take the generalized path and still produce host-pack output.
    std::vector<std::byte> init(256);
    for (std::size_t i = 0; i < init.size(); ++i) {
      init[i] = static_cast<std::byte>(i);
    }
    rig.ctx.memcpy(dev, init.data(), init.size());
    core::submit_device_pack(rig.ctx, stream, msg, 0, msg.packed_bytes, tbuf);
    stream.synchronize();
    std::vector<std::byte> got(msg.packed_bytes);
    rig.ctx.memcpy(got.data(), tbuf, msg.packed_bytes);
    std::vector<std::byte> want(msg.packed_bytes);
    t.pack(init.data(), 1, want.data());
    EXPECT_EQ(got, want);
    rig.ctx.free(dev);
    rig.ctx.free(tbuf);
  });
}

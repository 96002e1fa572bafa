// Device datatypes below the eager threshold take the Figure-2 scheme the
// cost model picks (core::pick_pack_scheme), like rendezvous messages: a
// vector of a few dozen rows crosses PCIe as one strided cudaMemcpy2D and
// never touches the D2D engine; larger vectors, and layouts no single 2-D
// copy expresses, still pack on the device. MPI_Pack and MPI_Unpack of
// device buffers make the same choice. Every case checks the received
// image byte for byte, gap bytes included.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "core/gpu_staging.hpp"
#include "core/pack_plan.hpp"
#include "mpi/cluster.hpp"

namespace core = mv2gnc::core;
namespace gpu = mv2gnc::gpu;
namespace mpisim = mv2gnc::mpisim;
namespace sim = mv2gnc::sim;
using mpisim::ArrayOrder;
using mpisim::Cluster;
using mpisim::ClusterConfig;
using mpisim::Context;
using mpisim::Datatype;

namespace {

Datatype committed(Datatype t) {
  t.commit();
  return t;
}

// fig5's layout: `rows` 4-byte rows at an 8-byte pitch.
Datatype fig5_vector(std::size_t rows) {
  return committed(
      Datatype::vector(static_cast<int>(rows), 1, 2, Datatype::float32()));
}

// Distinct bytes per rank and role, so a misplaced row shows.
std::vector<std::byte> pattern(std::size_t n, unsigned seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 37 + seed * 101 + 11) & 0xFF);
  }
  return v;
}

// Bytes of one element of `t` laid out in memory.
std::size_t span_of(const Datatype& t) {
  return static_cast<std::size_t>(t.extent());
}

// The image a receive of `sent`'s packed bytes leaves in `before`: its rows
// replaced, every gap byte as it was.
std::vector<std::byte> expected_image(const Datatype& t,
                                      const std::vector<std::byte>& sent,
                                      std::vector<std::byte> before) {
  std::vector<std::byte> packed(t.size());
  t.pack(sent.data(), 1, packed.data());
  t.unpack(packed.data(), 1, before.data());
  return before;
}

struct EngineBusy {
  sim::SimTime d2d = 0;
  sim::SimTime kernel = 0;
};

// Both ranks send one element of `t` from device memory to the other and
// receive it into a device buffer prefilled with a different pattern.
// Returns each rank's D2D and kernel engine busy time.
std::array<EngineBusy, 2> device_exchange(const Datatype& t,
                                          bool gpu_offload = true) {
  ClusterConfig cfg{.ranks = 2};
  cfg.tunables.gpu_offload = gpu_offload;
  EXPECT_LE(t.size(), cfg.tunables.eager_threshold);
  Cluster cluster(cfg);
  cluster.run([&](Context& ctx) {
    const std::size_t span = span_of(t);
    const int peer = 1 - ctx.rank;
    const auto send_host = pattern(span, static_cast<unsigned>(ctx.rank));
    const auto recv_host = pattern(span, 7);
    auto* sdev = static_cast<std::byte*>(ctx.cuda->malloc(span));
    auto* rdev = static_cast<std::byte*>(ctx.cuda->malloc(span));
    // H2D copies only: the D2D engine stays idle outside the exchange.
    ctx.cuda->memcpy(sdev, send_host.data(), span);
    ctx.cuda->memcpy(rdev, recv_host.data(), span);
    mpisim::Request rr = ctx.comm.irecv(rdev, 1, t, peer, 3);
    ctx.comm.send(sdev, 1, t, peer, 3);
    ctx.comm.wait(rr);
    std::vector<std::byte> got(span);
    ctx.cuda->memcpy(got.data(), rdev, span);
    const auto want = expected_image(
        t, pattern(span, static_cast<unsigned>(peer)), recv_host);
    EXPECT_EQ(got, want) << "rank " << ctx.rank << ", " << t.size() << " B";
    ctx.cuda->free(sdev);
    ctx.cuda->free(rdev);
  });
  std::array<EngineBusy, 2> busy;
  for (int r = 0; r < 2; ++r) {
    const mpisim::RankStats s = cluster.rank_stats(r);
    busy[static_cast<std::size_t>(r)] = {s.d2d_busy, s.kernel_busy};
  }
  return busy;
}

}  // namespace

TEST(EagerScheme, TinyVectorsCrossPcieStrided) {
  // 16 B and 64 B are 4 and 16 rows: one strided PCIe copy each way beats
  // device pack + contiguous copy (Figure 2), so the D2D engine idles.
  for (const std::size_t rows : {4u, 16u}) {
    const auto busy = device_exchange(fig5_vector(rows));
    for (int r = 0; r < 2; ++r) {
      EXPECT_EQ(busy[static_cast<std::size_t>(r)].d2d, 0)
          << rows * 4 << " B, rank " << r;
      EXPECT_EQ(busy[static_cast<std::size_t>(r)].kernel, 0)
          << rows * 4 << " B, rank " << r;
    }
  }
}

TEST(EagerScheme, LargerEagerVectorsStillPackOnDevice) {
  for (const std::size_t rows : {64u, 256u, 1024u}) {
    const auto busy = device_exchange(fig5_vector(rows));
    for (int r = 0; r < 2; ++r) {
      EXPECT_GT(busy[static_cast<std::size_t>(r)].d2d, 0)
          << rows * 4 << " B, rank " << r;
    }
  }
}

TEST(EagerScheme, GpuOffloadOffNeverTouchesD2D) {
  // Every eager size of fig5's vector, up to the 8 KB threshold.
  for (const std::size_t rows : {4u, 16u, 64u, 256u, 1024u, 2048u}) {
    const auto busy = device_exchange(fig5_vector(rows), false);
    for (int r = 0; r < 2; ++r) {
      EXPECT_EQ(busy[static_cast<std::size_t>(r)].d2d, 0)
          << rows * 4 << " B, rank " << r;
    }
  }
}

TEST(EagerScheme, ShortMessageIntoLargerBufferIsPricedOnItsRows) {
  // 16 B into a 4 KB device vector. Priced on the buffer's 1024 rows the
  // model would pack on the device; priced on the 4 rows moved it takes
  // one strided H2D copy.
  const Datatype small = fig5_vector(4);
  const Datatype big = fig5_vector(1024);
  {
    gpu::MemoryRegistry reg;
    std::vector<std::byte> base(span_of(big));
    const auto view = core::MsgView::make(base.data(), 1, big, reg);
    const auto cost = gpu::GpuCostModel::tesla_c2050();
    ASSERT_EQ(core::pick_pack_scheme(cost, view, view.packed_bytes, true),
              core::PackScheme::kD2D2H_nc2c2c);
    ASSERT_EQ(core::pick_pack_scheme(cost, view, 16, true),
              core::PackScheme::kD2H_nc2c);
  }
  Cluster cluster(ClusterConfig{.ranks = 2});
  cluster.run([&](Context& ctx) {
    if (ctx.rank == 0) {
      const auto host = pattern(span_of(small), 0);
      auto* dev = static_cast<std::byte*>(ctx.cuda->malloc(host.size()));
      ctx.cuda->memcpy(dev, host.data(), host.size());
      ctx.comm.send(dev, 1, small, 1, 4);
      ctx.cuda->free(dev);
      return;
    }
    const std::size_t span = span_of(big);
    const auto before = pattern(span, 9);
    auto* dev = static_cast<std::byte*>(ctx.cuda->malloc(span));
    ctx.cuda->memcpy(dev, before.data(), span);
    ctx.cuda->reset_call_counters();
    mpisim::Status st;
    ctx.comm.recv(dev, 1, big, 0, 4, &st);
    EXPECT_EQ(st.bytes, 16u);
    EXPECT_EQ(ctx.cuda->memcpy2d_calls(), 1u);  // one strided H2D copy
    EXPECT_EQ(ctx.cuda->memcpy_calls(), 0u);
    std::vector<std::byte> got(span);
    ctx.cuda->memcpy(got.data(), dev, span);
    // The first 4 rows hold the sender's rows; everything else, gaps and
    // the other 1020 rows, is untouched.
    auto want = before;
    const auto sent = pattern(span_of(small), 0);
    for (std::size_t row = 0; row < 4; ++row) {
      std::memcpy(want.data() + row * 8, sent.data() + row * 8, 4);
    }
    EXPECT_EQ(got, want);
    ctx.cuda->free(dev);
  });
  EXPECT_EQ(cluster.rank_stats(1).d2d_busy, 0);
  EXPECT_GT(cluster.rank_stats(1).h2d_busy, 0);
}

TEST(EagerScheme, PackAndUnpackTakeTheSameRoute) {
  // MPI_Pack / MPI_Unpack of a device vector: 16 B crosses PCIe strided
  // (one 2-D copy each way, no D2D work), 4 KB packs on the device.
  for (const std::size_t rows : {4u, 1024u}) {
    const Datatype t = fig5_vector(rows);
    Cluster cluster(ClusterConfig{.ranks = 1});
    cluster.run([&](Context& ctx) {
      const std::size_t span = span_of(t);
      const auto src_host = pattern(span, 1);
      const auto dst_host = pattern(span, 2);
      auto* src = static_cast<std::byte*>(ctx.cuda->malloc(span));
      auto* dst = static_cast<std::byte*>(ctx.cuda->malloc(span));
      ctx.cuda->memcpy(src, src_host.data(), span);
      ctx.cuda->memcpy(dst, dst_host.data(), span);
      ctx.cuda->reset_call_counters();
      std::vector<std::byte> packed(t.size());
      std::size_t pos = 0;
      ctx.comm.pack(src, 1, t, packed.data(), packed.size(), pos);
      EXPECT_EQ(pos, t.size());
      pos = 0;
      ctx.comm.unpack(packed.data(), packed.size(), pos, dst, 1, t);
      if (rows == 4) {
        EXPECT_EQ(ctx.cuda->memcpy2d_calls(), 2u);
        EXPECT_EQ(ctx.cuda->memcpy_calls(), 0u);
      }
      std::vector<std::byte> want_packed(t.size());
      t.pack(src_host.data(), 1, want_packed.data());
      EXPECT_EQ(packed, want_packed);
      std::vector<std::byte> got(span);
      ctx.cuda->memcpy(got.data(), dst, span);
      EXPECT_EQ(got, expected_image(t, src_host, dst_host));
      ctx.cuda->free(src);
      ctx.cuda->free(dst);
    });
    if (rows == 4) {
      EXPECT_EQ(cluster.rank_stats(0).d2d_busy, 0);
    } else {
      EXPECT_GT(cluster.rank_stats(0).d2d_busy, 0);
    }
  }
}

TEST(EagerScheme, SubPatternedAndIrregularStillPackOnDevice) {
  // One column of 8 doubles in each of 4 planes (halo3d's X face, shrunk):
  // 4 sub-patterns, one D2D 2-D copy each.
  const std::array<int, 3> sizes{6, 10, 12};
  const std::array<int, 3> subsizes{4, 8, 1};
  const std::array<int, 3> starts{1, 1, 1};
  const Datatype face = committed(Datatype::subarray(
      sizes, subsizes, starts, ArrayOrder::kC, Datatype::float64()));
  ASSERT_EQ(core::PackPlan::build(face, 1)->layout(),
            core::LayoutClass::kSubPatterned);
  for (const EngineBusy& b : device_exchange(face)) EXPECT_GT(b.d2d, 0);

  // Alternating 4 B and 12 B runs: no uniform grouping, so the generalized
  // pack kernel gathers them.
  std::vector<int> lens;
  std::vector<std::int64_t> displs;
  for (int i = 0; i < 16; ++i) {
    lens.push_back(1 + (i % 2) * 2);
    displs.push_back(i * 40);
  }
  const Datatype ragged =
      committed(Datatype::hindexed(lens, displs, Datatype::int32()));
  ASSERT_EQ(core::PackPlan::build(ragged, 1)->layout(),
            core::LayoutClass::kIrregular);
  for (const EngineBusy& b : device_exchange(ragged)) EXPECT_GT(b.kernel, 0);
}

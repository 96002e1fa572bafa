// cusim runtime semantics: data integrity of copies, kind
// inference/validation, blocking-call timing, memset, kernels, host
// triggers.
#include "cuda/runtime.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

namespace cusim = mv2gnc::cusim;
namespace gpu = mv2gnc::gpu;
namespace sim = mv2gnc::sim;

namespace {

// Runs `body` as a single simulated process with a fresh device + context.
void run_sim(const std::function<void(sim::Engine&, cusim::CudaContext&)>& body,
             std::size_t capacity = 64u << 20) {
  sim::Engine eng;
  gpu::MemoryRegistry reg;
  gpu::Device dev(eng, reg, 0, gpu::GpuCostModel::tesla_c2050(), capacity);
  cusim::CudaContext ctx(dev);
  eng.spawn("test", [&] { body(eng, ctx); });
  eng.run();
}

}  // namespace

TEST(CudaRuntime, H2DThenD2HRoundTrip) {
  run_sim([](sim::Engine&, cusim::CudaContext& ctx) {
    std::vector<int> host(1024);
    std::iota(host.begin(), host.end(), 0);
    void* dev = ctx.malloc(host.size() * sizeof(int));
    ctx.memcpy(dev, host.data(), host.size() * sizeof(int),
               cusim::MemcpyKind::kHostToDevice);
    std::vector<int> back(1024, -1);
    ctx.memcpy(back.data(), dev, back.size() * sizeof(int),
               cusim::MemcpyKind::kDeviceToHost);
    EXPECT_EQ(host, back);
    ctx.free(dev);
  });
}

TEST(CudaRuntime, BlockingMemcpyAdvancesClockPerModel) {
  run_sim([](sim::Engine& eng, cusim::CudaContext& ctx) {
    const std::size_t n = 1u << 20;  // 1 MB
    std::vector<std::byte> host(n);
    void* dev = ctx.malloc(n);
    const sim::SimTime t0 = eng.now();
    ctx.memcpy(dev, host.data(), n, cusim::MemcpyKind::kHostToDevice);
    const sim::SimTime elapsed = eng.now() - t0;
    // A plain std::vector is pageable memory: the slower bandwidth applies.
    const sim::SimTime expected = ctx.device().cost().copy_time(
        n, gpu::CopyDir::kHostToDevice, /*pinned_host=*/false);
    EXPECT_EQ(elapsed, expected);
    // The same copy from pinned (cudaMallocHost) memory is faster.
    void* pinned = ctx.malloc_host(n);
    const sim::SimTime t1 = eng.now();
    ctx.memcpy(dev, pinned, n, cusim::MemcpyKind::kHostToDevice);
    const sim::SimTime pinned_elapsed = eng.now() - t1;
    EXPECT_EQ(pinned_elapsed, ctx.device().cost().copy_time(
                                  n, gpu::CopyDir::kHostToDevice, true));
    EXPECT_LT(pinned_elapsed, elapsed);
    ctx.free_host(pinned);
    ctx.free(dev);
  });
}

TEST(CudaRuntime, KindMismatchThrows) {
  run_sim([](sim::Engine&, cusim::CudaContext& ctx) {
    std::vector<std::byte> host(64);
    void* dev = ctx.malloc(64);
    EXPECT_THROW(ctx.memcpy(dev, host.data(), 64,
                            cusim::MemcpyKind::kDeviceToHost),
                 cusim::CudaError);
    ctx.free(dev);
  });
}

TEST(CudaRuntime, DefaultKindInferred) {
  run_sim([](sim::Engine&, cusim::CudaContext& ctx) {
    std::vector<int> host{1, 2, 3, 4};
    void* dev = ctx.malloc(sizeof(int) * 4);
    ctx.memcpy(dev, host.data(), sizeof(int) * 4);  // kDefault -> H2D
    std::vector<int> back(4);
    ctx.memcpy(back.data(), dev, sizeof(int) * 4);  // kDefault -> D2H
    EXPECT_EQ(host, back);
    ctx.free(dev);
  });
}

TEST(CudaRuntime, Memcpy2DStridedPackUnpack) {
  run_sim([](sim::Engine&, cusim::CudaContext& ctx) {
    // 8 rows x 16 bytes in a 64-byte-pitch matrix; pack the 16-byte column
    // block into a contiguous buffer and back into a second matrix.
    constexpr std::size_t pitch = 64, width = 16, height = 8;
    auto* mat = static_cast<std::byte*>(ctx.malloc(pitch * height));
    auto* packed = static_cast<std::byte*>(ctx.malloc(width * height));
    auto* mat2 = static_cast<std::byte*>(ctx.malloc(pitch * height));
    std::vector<std::byte> host(pitch * height);
    for (std::size_t i = 0; i < host.size(); ++i) {
      host[i] = static_cast<std::byte>(i & 0xFF);
    }
    ctx.memcpy(mat, host.data(), host.size());
    ctx.memcpy2d(packed, width, mat, pitch, width, height,
                 cusim::MemcpyKind::kDeviceToDevice);
    ctx.memcpy2d(mat2, pitch, packed, width, width, height,
                 cusim::MemcpyKind::kDeviceToDevice);
    for (std::size_t r = 0; r < height; ++r) {
      EXPECT_EQ(std::memcmp(mat2 + r * pitch, host.data() + r * pitch, width),
                0)
          << "row " << r;
    }
    ctx.free(mat);
    ctx.free(packed);
    ctx.free(mat2);
  });
}

TEST(CudaRuntime, Memcpy2DBadPitchThrows) {
  run_sim([](sim::Engine&, cusim::CudaContext& ctx) {
    void* a = ctx.malloc(256);
    void* b = ctx.malloc(256);
    EXPECT_THROW(ctx.memcpy2d(a, 8, b, 16, 16, 4,
                              cusim::MemcpyKind::kDeviceToDevice),
                 cusim::CudaError);
    ctx.free(a);
    ctx.free(b);
  });
}

TEST(CudaRuntime, MemsetFillsDeviceMemory) {
  run_sim([](sim::Engine&, cusim::CudaContext& ctx) {
    auto* dev = static_cast<std::byte*>(ctx.malloc(128));
    ctx.memset(dev, 0x5A, 128);
    for (int i = 0; i < 128; ++i) EXPECT_EQ(dev[i], std::byte{0x5A});
    ctx.free(dev);
  });
}

TEST(CudaRuntime, MemsetOnHostPointerThrows) {
  run_sim([](sim::Engine&, cusim::CudaContext& ctx) {
    std::vector<std::byte> host(64);
    EXPECT_THROW(ctx.memset(host.data(), 0, 64), cusim::CudaError);
  });
}

TEST(CudaRuntime, AsyncCopyOverlapsAcrossEngines) {
  run_sim([](sim::Engine& eng, cusim::CudaContext& ctx) {
    // A D2H copy and an H2D copy in different streams use different copy
    // engines, so the pair should finish in ~max time, not ~sum.
    const std::size_t n = 4u << 20;
    auto* h1 = ctx.malloc_host(n);
    auto* h2 = ctx.malloc_host(n);
    void* d1 = ctx.malloc(n);
    void* d2 = ctx.malloc(n);
    auto s1 = ctx.create_stream();
    auto s2 = ctx.create_stream();
    const sim::SimTime t0 = eng.now();
    ctx.memcpy_async(h1, d1, n, cusim::MemcpyKind::kDeviceToHost, s1);
    ctx.memcpy_async(d2, h2, n, cusim::MemcpyKind::kHostToDevice, s2);
    s1.synchronize();
    s2.synchronize();
    const sim::SimTime both = eng.now() - t0;
    const sim::SimTime one =
        ctx.device().cost().copy_time(n, gpu::CopyDir::kDeviceToHost);
    EXPECT_LT(both, one + one / 2);  // clearly overlapped
    ctx.free_host(h1);
    ctx.free_host(h2);
    ctx.free(d1);
    ctx.free(d2);
  });
}

TEST(CudaRuntime, SameStreamOpsSerializeAcrossEngines) {
  run_sim([](sim::Engine& eng, cusim::CudaContext& ctx) {
    const std::size_t n = 4u << 20;
    std::vector<std::byte> host(n);
    void* d1 = ctx.malloc(n);
    void* d2 = ctx.malloc(n);
    auto s = ctx.create_stream();
    const sim::SimTime t0 = eng.now();
    // D2D then D2H in one stream: the D2H may not start before the D2D
    // completes even though they run on different engines.
    ctx.memcpy_async(d2, d1, n, cusim::MemcpyKind::kDeviceToDevice, s);
    ctx.memcpy_async(host.data(), d2, n, cusim::MemcpyKind::kDeviceToHost, s);
    s.synchronize();
    const sim::SimTime elapsed = eng.now() - t0;
    const auto& cost = ctx.device().cost();
    const sim::SimTime serial =
        cost.copy_time(n, gpu::CopyDir::kDeviceToDevice) +
        cost.copy_time(n, gpu::CopyDir::kDeviceToHost);
    EXPECT_GE(elapsed, serial);
    ctx.free(d1);
    ctx.free(d2);
  });
}

TEST(CudaRuntime, StreamQueryReflectsProgress) {
  run_sim([](sim::Engine& eng, cusim::CudaContext& ctx) {
    const std::size_t n = 1u << 20;
    std::vector<std::byte> host(n);
    void* dev = ctx.malloc(n);
    auto s = ctx.create_stream();
    EXPECT_TRUE(s.query());  // empty stream is done
    ctx.memcpy_async(dev, host.data(), n, cusim::MemcpyKind::kHostToDevice, s);
    EXPECT_FALSE(s.query());
    eng.delay(sim::milliseconds(10));  // far beyond the copy duration
    EXPECT_TRUE(s.query());
    ctx.free(dev);
  });
}

TEST(CudaRuntime, EventCapturesPointInStream) {
  run_sim([](sim::Engine&, cusim::CudaContext& ctx) {
    const std::size_t n = 1u << 20;
    std::vector<std::byte> host(n);
    void* dev = ctx.malloc(n);
    auto s = ctx.create_stream();
    ctx.memcpy_async(dev, host.data(), n, cusim::MemcpyKind::kHostToDevice, s);
    auto ev = ctx.record_event(s);
    ctx.memcpy_async(dev, host.data(), n, cusim::MemcpyKind::kHostToDevice, s);
    EXPECT_FALSE(ev.query());
    ev.synchronize();
    EXPECT_TRUE(ev.query());
    EXPECT_FALSE(s.query());  // second copy still in flight
    s.synchronize();
    ctx.free(dev);
  });
}

TEST(CudaRuntime, StreamWakeupNotifierFires) {
  run_sim([](sim::Engine& eng, cusim::CudaContext& ctx) {
    sim::Notifier n(eng);
    auto s = ctx.create_stream();
    s.set_wakeup(&n);
    std::vector<std::byte> host(1024);
    void* dev = ctx.malloc(1024);
    ctx.memcpy_async(dev, host.data(), 1024,
                     cusim::MemcpyKind::kHostToDevice, s);
    n.wait();  // completion must poke the notifier
    EXPECT_TRUE(s.query());
    ctx.free(dev);
  });
}

TEST(CudaRuntime, HostTriggerRunsOnceAtStreamDrain) {
  run_sim([](sim::Engine& eng, cusim::CudaContext& ctx) {
    const std::size_t n = 1u << 20;
    void* host = ctx.malloc_host(n);
    void* dev = ctx.malloc(n);
    auto s = ctx.create_stream();
    sim::Notifier wake(eng);
    s.set_wakeup(&wake);
    ctx.memcpy_async(dev, host, n, cusim::MemcpyKind::kHostToDevice, s);
    ctx.memcpy_async(host, dev, n, cusim::MemcpyKind::kDeviceToHost, s);
    const sim::SimTime drain = s.last_op_done();
    int fired = 0;
    sim::SimTime fired_at = -1;
    ctx.launch_host_trigger(s, [&] {
      ++fired;
      fired_at = eng.now();
    });
    EXPECT_FALSE(s.query());
    eng.delay(drain - 1 - eng.now());  // both copies still in flight
    EXPECT_EQ(fired, 0);
    EXPECT_FALSE(s.query());
    s.synchronize();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(fired_at, drain);  // the drain time of the copies before it
    EXPECT_TRUE(s.query());
    eng.delay(sim::milliseconds(1));
    EXPECT_EQ(fired, 1);  // exactly once

    // On an idle stream the trigger is the only completion, so the token
    // that ends this wait can only come from it.
    while (wake.try_consume()) {
    }
    ctx.launch_host_trigger(s, [&] { ++fired; });
    EXPECT_FALSE(s.query());
    wake.wait();
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(s.query());
    ctx.free_host(host);
    ctx.free(dev);
  });
}

TEST(CudaRuntime, KernelBodyRunsAtCompletion) {
  run_sim([](sim::Engine& eng, cusim::CudaContext& ctx) {
    auto s = ctx.create_stream();
    bool ran = false;
    const sim::SimTime t0 = eng.now();
    ctx.launch_kernel(s, 1'000'000, false, [&] { ran = true; });
    EXPECT_FALSE(ran);  // async: body deferred to completion
    s.synchronize();
    EXPECT_TRUE(ran);
    const sim::SimTime expected =
        ctx.device().cost().kernel_time(1'000'000, false) +
        ctx.device().cost().async_submit_ns;
    EXPECT_EQ(eng.now() - t0, expected);
  });
}

TEST(CudaRuntime, DeviceSynchronizeWaitsAllStreams) {
  run_sim([](sim::Engine&, cusim::CudaContext& ctx) {
    auto s1 = ctx.create_stream();
    auto s2 = ctx.create_stream();
    int done = 0;
    ctx.launch_kernel_timed(s1, sim::microseconds(50), [&] { ++done; });
    ctx.launch_kernel_timed(s2, sim::microseconds(90), [&] { ++done; });
    ctx.device_synchronize();
    EXPECT_EQ(done, 2);
    EXPECT_TRUE(s1.query());
    EXPECT_TRUE(s2.query());
  });
}

TEST(CudaRuntime, NullStreamOperationsThrow) {
  run_sim([](sim::Engine&, cusim::CudaContext&) {
    cusim::Stream s;  // null handle
    EXPECT_THROW(s.query(), cusim::CudaError);
    EXPECT_THROW(s.synchronize(), cusim::CudaError);
    cusim::Event e;
    EXPECT_THROW(e.query(), cusim::CudaError);
  });
}

// ---------------------------------------------------------------------------
// CUDA IPC handles (intra-node transport handshake).
// ---------------------------------------------------------------------------

TEST(CudaIpc, HandleRoundTripsThroughOpen) {
  run_sim([](sim::Engine&, cusim::CudaContext& ctx) {
    void* dev = ctx.malloc(4096);
    const cusim::IpcMemHandle h = ctx.ipc_get_mem_handle(dev);
    EXPECT_EQ(h.offset, 0u);
    EXPECT_EQ(h.size, 4096u);
    void* mapped = ctx.ipc_open_mem_handle(h);
    EXPECT_EQ(mapped, dev);
    EXPECT_EQ(ctx.open_ipc_handles(), 1u);
    ctx.ipc_close_mem_handle(mapped);
    EXPECT_EQ(ctx.open_ipc_handles(), 0u);
    ctx.free(dev);
  });
}

TEST(CudaIpc, InteriorPointerKeepsOffset) {
  run_sim([](sim::Engine&, cusim::CudaContext& ctx) {
    auto* dev = static_cast<std::byte*>(ctx.malloc(4096));
    const cusim::IpcMemHandle h = ctx.ipc_get_mem_handle(dev + 100);
    EXPECT_EQ(h.offset, 100u);
    void* mapped = ctx.ipc_open_mem_handle(h);
    EXPECT_EQ(mapped, dev + 100);
    ctx.ipc_close_mem_handle(mapped);
    ctx.free(dev);
  });
}

TEST(CudaIpc, HostPointerRejected) {
  run_sim([](sim::Engine&, cusim::CudaContext& ctx) {
    std::vector<std::byte> host(64);
    EXPECT_THROW(ctx.ipc_get_mem_handle(host.data()), cusim::CudaError);
  });
}

TEST(CudaIpc, StaleHandleRejected) {
  run_sim([](sim::Engine&, cusim::CudaContext& ctx) {
    void* dev = ctx.malloc(4096);
    const cusim::IpcMemHandle h = ctx.ipc_get_mem_handle(dev);
    ctx.free(dev);
    // The allocation the handle names is gone; opening it must fail even if
    // a new allocation happens to reuse the address range.
    EXPECT_THROW(ctx.ipc_open_mem_handle(h), cusim::CudaError);
  });
}

TEST(CudaIpc, CloseOfUnknownMappingThrows) {
  run_sim([](sim::Engine&, cusim::CudaContext& ctx) {
    void* dev = ctx.malloc(64);
    EXPECT_THROW(ctx.ipc_close_mem_handle(dev), cusim::CudaError);
    ctx.free(dev);
  });
}

TEST(CudaIpc, OpenIsRefcounted) {
  run_sim([](sim::Engine&, cusim::CudaContext& ctx) {
    void* dev = ctx.malloc(256);
    const cusim::IpcMemHandle h = ctx.ipc_get_mem_handle(dev);
    void* a = ctx.ipc_open_mem_handle(h);
    void* b = ctx.ipc_open_mem_handle(h);
    EXPECT_EQ(a, b);
    EXPECT_EQ(ctx.open_ipc_handles(), 1u);  // one mapping, two refs
    ctx.ipc_close_mem_handle(a);
    EXPECT_EQ(ctx.open_ipc_handles(), 1u);
    ctx.ipc_close_mem_handle(b);
    EXPECT_EQ(ctx.open_ipc_handles(), 0u);
    ctx.free(dev);
  });
}

// End-to-end point-to-point semantics over the simulated cluster: eager and
// rendezvous protocols, host and device buffers, contiguous and strided
// datatypes, matching rules, wildcards, unexpected messages, truncation.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "mpi/cluster.hpp"

namespace mpisim = mv2gnc::mpisim;
namespace sim = mv2gnc::sim;
using mpisim::Cluster;
using mpisim::ClusterConfig;
using mpisim::Context;
using mpisim::Datatype;

namespace {

Datatype committed(Datatype t) {
  t.commit();
  return t;
}

std::vector<int> iota_ints(std::size_t n, int start = 0) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), start);
  return v;
}

}  // namespace

TEST(P2P, EagerHostToHost) {
  Cluster cluster(ClusterConfig{.ranks = 2});
  cluster.run([](Context& ctx) {
    auto ints = committed(Datatype::int32());
    if (ctx.rank == 0) {
      auto data = iota_ints(64);
      ctx.comm.send(data.data(), 64, ints, 1, 7);
    } else {
      std::vector<int> got(64, -1);
      mpisim::Status st;
      ctx.comm.recv(got.data(), 64, ints, 0, 7, &st);
      EXPECT_EQ(got, iota_ints(64));
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.bytes, 256u);
    }
  });
}

TEST(P2P, RendezvousHostToHostContiguous) {
  Cluster cluster(ClusterConfig{.ranks = 2});
  cluster.run([](Context& ctx) {
    auto ints = committed(Datatype::int32());
    const int n = 1 << 20;  // 4 MB: far beyond eager
    if (ctx.rank == 0) {
      auto data = iota_ints(n);
      ctx.comm.send(data.data(), n, ints, 1, 0);
    } else {
      std::vector<int> got(n, -1);
      ctx.comm.recv(got.data(), n, ints, 0, 0);
      EXPECT_EQ(got, iota_ints(n));
    }
  });
}

TEST(P2P, RendezvousHostStridedBothSides) {
  Cluster cluster(ClusterConfig{.ranks = 2});
  cluster.run([](Context& ctx) {
    // 64K rows of 4 bytes out of a 16-byte-pitch matrix: 256 KB payload.
    const int rows = 65536;
    auto col = committed(Datatype::vector(rows, 1, 4, Datatype::int32()));
    std::vector<int> mat(static_cast<std::size_t>(rows) * 4, -1);
    if (ctx.rank == 0) {
      for (int r = 0; r < rows; ++r) mat[static_cast<std::size_t>(r) * 4] = r;
      ctx.comm.send(mat.data(), 1, col, 1, 3);
    } else {
      ctx.comm.recv(mat.data(), 1, col, 0, 3);
      for (int r = 0; r < rows; r += 1023) {
        EXPECT_EQ(mat[static_cast<std::size_t>(r) * 4], r);
      }
      EXPECT_EQ(mat[1], -1);  // holes untouched
    }
  });
}

TEST(P2P, DeviceContiguousLarge) {
  Cluster cluster(ClusterConfig{.ranks = 2});
  cluster.run([](Context& ctx) {
    auto bytes = committed(Datatype::byte());
    const std::size_t n = 1 << 20;
    auto* dev = static_cast<std::byte*>(ctx.cuda->malloc(n));
    if (ctx.rank == 0) {
      std::vector<std::byte> host(n);
      for (std::size_t i = 0; i < n; ++i) {
        host[i] = static_cast<std::byte>(i * 13 & 0xFF);
      }
      ctx.cuda->memcpy(dev, host.data(), n);
      ctx.comm.send(dev, static_cast<int>(n), bytes, 1, 1);
    } else {
      ctx.comm.recv(dev, static_cast<int>(n), bytes, 0, 1);
      std::vector<std::byte> host(n);
      ctx.cuda->memcpy(host.data(), dev, n);
      for (std::size_t i = 0; i < n; i += 4097) {
        EXPECT_EQ(host[i], static_cast<std::byte>(i * 13 & 0xFF)) << i;
      }
    }
    ctx.cuda->free(dev);
  });
}

// The paper's headline path: GPU-to-GPU vector datatype through the
// 5-stage pipeline, verified bit-exactly.
TEST(P2P, DeviceVectorToDeviceVectorPipeline) {
  Cluster cluster(ClusterConfig{.ranks = 2});
  cluster.run([](Context& ctx) {
    const int rows = 1 << 18;  // 1 MB payload over 64K chunks
    const int pitch_elems = 8;
    auto col = committed(
        Datatype::vector(rows, 1, pitch_elems, Datatype::float32()));
    const std::size_t span = static_cast<std::size_t>(rows) * pitch_elems;
    auto* dev = static_cast<float*>(ctx.cuda->malloc(span * sizeof(float)));
    std::vector<float> host(span, -1.f);
    if (ctx.rank == 0) {
      for (int r = 0; r < rows; ++r) {
        host[static_cast<std::size_t>(r) * pitch_elems] = r * 0.5f;
      }
      ctx.cuda->memcpy(dev, host.data(), span * sizeof(float));
      ctx.comm.send(dev, 1, col, 1, 9);
    } else {
      ctx.cuda->memcpy(dev, host.data(), span * sizeof(float));  // -1 fill
      ctx.comm.recv(dev, 1, col, 0, 9);
      std::vector<float> out(span);
      ctx.cuda->memcpy(out.data(), dev, span * sizeof(float));
      for (int r = 0; r < rows; r += 509) {
        EXPECT_EQ(out[static_cast<std::size_t>(r) * pitch_elems], r * 0.5f);
      }
      EXPECT_EQ(out[1], -1.f);  // strided holes untouched
    }
    ctx.cuda->free(dev);
  });
}

TEST(P2P, DeviceToHostAndHostToDevice) {
  Cluster cluster(ClusterConfig{.ranks = 2});
  cluster.run([](Context& ctx) {
    auto ints = committed(Datatype::int32());
    const int n = 100'000;  // 400 KB
    if (ctx.rank == 0) {
      auto* dev = static_cast<int*>(ctx.cuda->malloc(n * sizeof(int)));
      auto data = iota_ints(n);
      ctx.cuda->memcpy(dev, data.data(), n * sizeof(int));
      ctx.comm.send(dev, n, ints, 1, 0);       // device -> host
      ctx.comm.recv(dev, n, ints, 1, 1);       // host -> device
      std::vector<int> back(n);
      ctx.cuda->memcpy(back.data(), dev, n * sizeof(int));
      for (int i = 0; i < n; i += 997) EXPECT_EQ(back[i], i + 1);
      ctx.cuda->free(dev);
    } else {
      std::vector<int> got(n, -1);
      ctx.comm.recv(got.data(), n, ints, 0, 0);
      EXPECT_EQ(got[12345], 12345);
      for (auto& v : got) ++v;
      ctx.comm.send(got.data(), n, ints, 0, 1);
    }
  });
}

TEST(P2P, DeviceStridedToHostStrided) {
  Cluster cluster(ClusterConfig{.ranks = 2});
  cluster.run([](Context& ctx) {
    const int rows = 50'000;
    auto col = committed(Datatype::vector(rows, 2, 6, Datatype::int32()));
    const std::size_t span = static_cast<std::size_t>(col.extent()) / 4 + 16;
    if (ctx.rank == 0) {
      std::vector<int> host(span);
      std::iota(host.begin(), host.end(), 0);
      auto* dev = static_cast<int*>(ctx.cuda->malloc(span * sizeof(int)));
      ctx.cuda->memcpy(dev, host.data(), span * sizeof(int));
      ctx.comm.send(dev, 1, col, 1, 2);
      ctx.cuda->free(dev);
    } else {
      std::vector<int> got(span, -1);
      ctx.comm.recv(got.data(), 1, col, 0, 2);
      for (int r = 0; r < rows; r += 499) {
        EXPECT_EQ(got[static_cast<std::size_t>(r) * 6], r * 6);
        EXPECT_EQ(got[static_cast<std::size_t>(r) * 6 + 1], r * 6 + 1);
      }
      EXPECT_EQ(got[2], -1);
    }
  });
}

TEST(P2P, DeviceVectorsOfDifferentRowWidths) {
  // 40 rows of 12,000 B into 50 rows of 9,600 B (480,000 B, pipelined).
  // Few rows each, so both sides prefer the strided PCIe copy; but the
  // sender sizes its chunks in whole rows of its own layout, which split
  // the receiver's rows, so the receiver must unpack on the device.
  for (const bool offload : {true, false}) {
    ClusterConfig cfg{.ranks = 2};
    cfg.tunables.gpu_offload = offload;
    Cluster cluster(cfg);
    cluster.run([](Context& ctx) {
      const auto send_t =
          committed(Datatype::vector(40, 3000, 6000, Datatype::int32()));
      const auto recv_t =
          committed(Datatype::vector(50, 2400, 4800, Datatype::int32()));
      const auto sent =
          iota_ints(static_cast<std::size_t>(send_t.extent()) / 4);
      if (ctx.rank == 0) {
        auto* dev = static_cast<int*>(ctx.cuda->malloc(sent.size() * 4));
        ctx.cuda->memcpy(dev, sent.data(), sent.size() * 4);
        ctx.comm.send(dev, 1, send_t, 1, 6);
        ctx.cuda->free(dev);
        return;
      }
      std::vector<int> got(static_cast<std::size_t>(recv_t.extent()) / 4,
                           -1);
      auto* dev = static_cast<int*>(ctx.cuda->malloc(got.size() * 4));
      ctx.cuda->memcpy(dev, got.data(), got.size() * 4);
      ctx.comm.recv(dev, 1, recv_t, 0, 6);
      ctx.cuda->memcpy(got.data(), dev, got.size() * 4);
      std::vector<int> want_packed(send_t.size() / 4);
      std::vector<int> got_packed(recv_t.size() / 4);
      send_t.pack(sent.data(), 1, want_packed.data());
      recv_t.pack(got.data(), 1, got_packed.data());
      EXPECT_EQ(got_packed, want_packed);
      EXPECT_EQ(got[2400], -1);  // first gap untouched
      ctx.cuda->free(dev);
    });
  }
}

TEST(P2P, IrregularIndexedDeviceType) {
  // No vector pattern: exercises the generalized device pack kernel.
  Cluster cluster(ClusterConfig{.ranks = 2});
  cluster.run([](Context& ctx) {
    const std::array<int, 4> lens{3, 1, 4, 2};
    const std::array<int, 4> displs{0, 7, 11, 29};
    auto t = committed(
        Datatype::indexed(lens, displs, Datatype::int32()));
    ASSERT_FALSE(t.vector_pattern(1).has_value());
    const int count = 9000;  // ~360 KB packed: rendezvous
    const std::size_t span =
        static_cast<std::size_t>(t.extent()) / 4 * count + 32;
    if (ctx.rank == 0) {
      std::vector<int> host(span);
      std::iota(host.begin(), host.end(), 0);
      auto* dev = static_cast<int*>(ctx.cuda->malloc(span * sizeof(int)));
      ctx.cuda->memcpy(dev, host.data(), span * sizeof(int));
      ctx.comm.send(dev, count, t, 1, 5);
      ctx.cuda->free(dev);
    } else {
      auto* dev = static_cast<int*>(ctx.cuda->malloc(span * sizeof(int)));
      ctx.cuda->memset(dev, 0, span * sizeof(int));
      ctx.comm.recv(dev, count, t, 0, 5);
      std::vector<int> got(span);
      ctx.cuda->memcpy(got.data(), dev, span * sizeof(int));
      const int ext_ints = static_cast<int>(t.extent()) / 4;
      for (int e = 0; e < count; e += 701) {
        EXPECT_EQ(got[static_cast<std::size_t>(e) * ext_ints + 7],
                  e * ext_ints + 7);
        EXPECT_EQ(got[static_cast<std::size_t>(e) * ext_ints + 30],
                  e * ext_ints + 30);
      }
      ctx.cuda->free(dev);
    }
  });
}

TEST(P2P, AnySourceAnyTag) {
  Cluster cluster(ClusterConfig{.ranks = 3});
  cluster.run([](Context& ctx) {
    auto ints = committed(Datatype::int32());
    if (ctx.rank == 0) {
      int sum = 0;
      for (int i = 0; i < 2; ++i) {
        int v = 0;
        mpisim::Status st;
        ctx.comm.recv(&v, 1, ints, mpisim::kAnySource, mpisim::kAnyTag, &st);
        EXPECT_EQ(v, st.source * 100 + st.tag);
        sum += v;
      }
      EXPECT_EQ(sum, 101 + 202);
    } else {
      int v = ctx.rank * 100 + ctx.rank;
      ctx.comm.send(&v, 1, ints, 0, ctx.rank);
    }
  });
}

TEST(P2P, UnexpectedEagerBuffered) {
  Cluster cluster(ClusterConfig{.ranks = 2});
  cluster.run([](Context& ctx) {
    auto ints = committed(Datatype::int32());
    if (ctx.rank == 0) {
      int v = 42;
      ctx.comm.send(&v, 1, ints, 1, 0);
    } else {
      // Let the message arrive long before the recv is posted.
      ctx.engine->delay(sim::milliseconds(5));
      int got = 0;
      ctx.comm.recv(&got, 1, ints, 0, 0);
      EXPECT_EQ(got, 42);
    }
  });
}

TEST(P2P, UnexpectedRendezvousMatchesLater) {
  Cluster cluster(ClusterConfig{.ranks = 2});
  cluster.run([](Context& ctx) {
    auto ints = committed(Datatype::int32());
    const int n = 1 << 18;
    if (ctx.rank == 0) {
      auto data = iota_ints(n);
      ctx.comm.send(data.data(), n, ints, 1, 0);
    } else {
      ctx.engine->delay(sim::milliseconds(2));  // RTS sits unexpected
      std::vector<int> got(n, -1);
      ctx.comm.recv(got.data(), n, ints, 0, 0);
      EXPECT_EQ(got[n - 1], n - 1);
    }
  });
}

TEST(P2P, TagMatchingSelectsCorrectMessage) {
  Cluster cluster(ClusterConfig{.ranks = 2});
  cluster.run([](Context& ctx) {
    auto ints = committed(Datatype::int32());
    if (ctx.rank == 0) {
      int a = 1, b = 2;
      ctx.comm.send(&a, 1, ints, 1, 10);
      ctx.comm.send(&b, 1, ints, 1, 20);
    } else {
      int x = 0, y = 0;
      // Post in reverse tag order: matching must be by tag, not arrival.
      ctx.comm.recv(&y, 1, ints, 0, 20);
      ctx.comm.recv(&x, 1, ints, 0, 10);
      EXPECT_EQ(x, 1);
      EXPECT_EQ(y, 2);
    }
  });
}

TEST(P2P, NonOvertakingSameTag) {
  Cluster cluster(ClusterConfig{.ranks = 2});
  cluster.run([](Context& ctx) {
    auto ints = committed(Datatype::int32());
    if (ctx.rank == 0) {
      for (int i = 0; i < 8; ++i) ctx.comm.send(&i, 1, ints, 1, 0);
    } else {
      for (int i = 0; i < 8; ++i) {
        int v = -1;
        ctx.comm.recv(&v, 1, ints, 0, 0);
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST(P2P, IsendIrecvWaitall) {
  Cluster cluster(ClusterConfig{.ranks = 2});
  cluster.run([](Context& ctx) {
    auto ints = committed(Datatype::int32());
    constexpr int kMsgs = 4;
    std::vector<std::vector<int>> bufs(kMsgs, std::vector<int>(5000, -1));
    std::vector<mpisim::Request> reqs;
    if (ctx.rank == 0) {
      for (int m = 0; m < kMsgs; ++m) {
        std::iota(bufs[m].begin(), bufs[m].end(), m * 10000);
        reqs.push_back(ctx.comm.isend(bufs[m].data(), 5000, ints, 1, m));
      }
    } else {
      for (int m = 0; m < kMsgs; ++m) {
        reqs.push_back(ctx.comm.irecv(bufs[m].data(), 5000, ints, 0, m));
      }
    }
    ctx.comm.waitall(reqs);
    if (ctx.rank == 1) {
      for (int m = 0; m < kMsgs; ++m) {
        EXPECT_EQ(bufs[m][4999], m * 10000 + 4999);
      }
    }
  });
}

TEST(P2P, TestPollsWithoutBlocking) {
  Cluster cluster(ClusterConfig{.ranks = 2});
  cluster.run([](Context& ctx) {
    auto ints = committed(Datatype::int32());
    if (ctx.rank == 0) {
      ctx.engine->delay(sim::microseconds(500));
      int v = 5;
      ctx.comm.send(&v, 1, ints, 1, 0);
    } else {
      int got = 0;
      auto req = ctx.comm.irecv(&got, 1, ints, 0, 0);
      int polls = 0;
      while (!ctx.comm.test(req)) {
        ++polls;
        ctx.engine->delay(sim::microseconds(50));
      }
      EXPECT_GT(polls, 3);
      EXPECT_EQ(got, 5);
    }
  });
}

TEST(P2P, ZeroByteMessage) {
  Cluster cluster(ClusterConfig{.ranks = 2});
  cluster.run([](Context& ctx) {
    auto ints = committed(Datatype::int32());
    if (ctx.rank == 0) {
      ctx.comm.send(nullptr, 0, ints, 1, 0);
    } else {
      mpisim::Status st;
      ctx.comm.recv(nullptr, 0, ints, 0, 0, &st);
      EXPECT_EQ(st.bytes, 0u);
    }
  });
}

TEST(P2P, RecvLargerBufferReportsActualBytes) {
  Cluster cluster(ClusterConfig{.ranks = 2});
  cluster.run([](Context& ctx) {
    auto ints = committed(Datatype::int32());
    if (ctx.rank == 0) {
      auto v = iota_ints(10);
      ctx.comm.send(v.data(), 10, ints, 1, 0);
    } else {
      std::vector<int> got(100, -1);
      mpisim::Status st;
      ctx.comm.recv(got.data(), 100, ints, 0, 0, &st);
      EXPECT_EQ(st.bytes, 40u);
      EXPECT_EQ(got[9], 9);
      EXPECT_EQ(got[10], -1);
    }
  });
}

TEST(P2P, TruncationThrows) {
  Cluster cluster(ClusterConfig{.ranks = 2});
  EXPECT_THROW(
      cluster.run([](Context& ctx) {
        auto ints = committed(Datatype::int32());
        if (ctx.rank == 0) {
          auto v = iota_ints(100);
          ctx.comm.send(v.data(), 100, ints, 1, 0);
        } else {
          std::vector<int> got(10);
          ctx.comm.recv(got.data(), 10, ints, 0, 0);
        }
      }),
      mpisim::TruncationError);
}

TEST(P2P, NegativeUserTagRejected) {
  Cluster cluster(ClusterConfig{.ranks = 2});
  EXPECT_THROW(cluster.run([](Context& ctx) {
                 auto ints = committed(Datatype::int32());
                 int v = 0;
                 if (ctx.rank == 0) ctx.comm.send(&v, 1, ints, 1, -5);
                 else ctx.comm.recv(&v, 1, ints, 0, -5);
               }),
               std::invalid_argument);
}

TEST(P2P, SendrecvExchanges) {
  Cluster cluster(ClusterConfig{.ranks = 2});
  cluster.run([](Context& ctx) {
    auto ints = committed(Datatype::int32());
    const int peer = 1 - ctx.rank;
    int mine = ctx.rank + 100;
    int theirs = -1;
    ctx.comm.sendrecv(&mine, 1, ints, peer, 0, &theirs, 1, ints, peer, 0);
    EXPECT_EQ(theirs, peer + 100);
  });
}

TEST(P2P, SimultaneousLargeExchangeBothDirections) {
  // Both ranks send large device messages to each other at once — the
  // pipeline must not deadlock over shared vbuf pools.
  Cluster cluster(ClusterConfig{.ranks = 2});
  cluster.run([](Context& ctx) {
    auto bytes = committed(Datatype::byte());
    const std::size_t n = 2u << 20;
    auto* dev_out = static_cast<std::byte*>(ctx.cuda->malloc(n));
    auto* dev_in = static_cast<std::byte*>(ctx.cuda->malloc(n));
    std::vector<std::byte> host(n, static_cast<std::byte>(ctx.rank + 1));
    ctx.cuda->memcpy(dev_out, host.data(), n);
    const int peer = 1 - ctx.rank;
    auto rr = ctx.comm.irecv(dev_in, static_cast<int>(n), bytes, peer, 0);
    auto sr = ctx.comm.isend(dev_out, static_cast<int>(n), bytes, peer, 0);
    ctx.comm.wait(sr);
    ctx.comm.wait(rr);
    std::vector<std::byte> got(n);
    ctx.cuda->memcpy(got.data(), dev_in, n);
    EXPECT_EQ(got[0], static_cast<std::byte>(peer + 1));
    EXPECT_EQ(got[n - 1], static_cast<std::byte>(peer + 1));
    ctx.cuda->free(dev_out);
    ctx.cuda->free(dev_in);
  });
}

TEST(P2P, WtimeAdvances) {
  Cluster cluster(ClusterConfig{.ranks = 2});
  cluster.run([](Context& ctx) {
    const double t0 = ctx.comm.wtime();
    ctx.engine->delay(sim::milliseconds(3));
    EXPECT_NEAR(ctx.comm.wtime() - t0, 0.003, 1e-9);
  });
}

// The rendezvous data gate (RndvSend::set_data_gate). Its one user is the
// pipelined device allreduce, whose slices leave a host staging slot while
// the D2H copy that fills the slot may still be in flight: the RTS leaves
// at once and the wire holds until the copy's event fires. Only a send
// whose wire reads the user buffer, with no pack and no staging stage, can
// be gated; the internal isend refuses every other stage set.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mpi/cluster.hpp"
#include "mpi/rank_comm.hpp"
#include "support/coll_access.hpp"

namespace cusim = mv2gnc::cusim;
namespace mpisim = mv2gnc::mpisim;
namespace sim = mv2gnc::sim;
using mpisim::Cluster;
using mpisim::ClusterConfig;
using mpisim::Context;
using mpisim::Datatype;
using mpisim::detail::CollAccess;

namespace {

constexpr int kRows = 4096;  // 16 KB of float32: rendezvous-sized
constexpr sim::SimTime kGateNs = 20'000;
constexpr int kTag = 7;

enum class Buf { kDevStrided, kDevContig, kHostStrided, kHostContig };

const char* name_of(Buf b) {
  switch (b) {
    case Buf::kDevStrided: return "device strided";
    case Buf::kDevContig: return "device contiguous";
    case Buf::kHostStrided: return "host strided";
    case Buf::kHostContig: return "host contiguous";
  }
  return "?";
}

struct Message {
  Datatype type;
  int count = 1;
  std::byte* base = nullptr;
  std::vector<std::byte> host;  // backing store of host-resident buffers
};

// kRows float32 elements; strided layouts keep every other one.
Message make_message(Context& ctx, Buf b) {
  Message m;
  const bool strided = b == Buf::kDevStrided || b == Buf::kHostStrided;
  if (strided) {
    m.type = Datatype::vector(kRows, 1, 2, Datatype::float32());
  } else {
    m.type = Datatype::float32();
    m.count = kRows;
  }
  m.type.commit();
  const std::size_t span = static_cast<std::size_t>(kRows) * (strided ? 8 : 4);
  if (b == Buf::kDevStrided || b == Buf::kDevContig) {
    m.base = static_cast<std::byte*>(ctx.cuda->malloc(span));
  } else {
    m.host.assign(span, std::byte{0});
    m.base = m.host.data();
  }
  return m;
}

// Rank 0's internal isend of `m` to rank 1, gated on an event recorded
// behind a kGateNs kernel (or ungated). `body` runs at the kernel's end.
mpisim::Request gated_isend(Context& ctx, const Message& m, bool gated,
                            cusim::Stream& stream,
                            std::function<void()> body = {}) {
  ctx.cuda->launch_kernel_timed(stream, kGateNs, std::move(body));
  const cusim::Event gate =
      gated ? ctx.cuda->record_event(stream) : cusim::Event{};
  return CollAccess::rank(ctx.comm).isend(
      m.base, m.count, m.type, 1, kTag, CollAccess::group(ctx.comm).context,
      gate);
}

std::byte pattern(std::size_t i) {
  return static_cast<std::byte>((i * 131 + 17) & 0xFF);
}

}  // namespace

TEST(DataGate, RefusedForSendsWithAPackOrStagingStage) {
  // Over the fabric each of these reads its buffer through a pack or a
  // staging copy, which a gate on the wire alone would not hold.
  for (Buf b : {Buf::kDevStrided, Buf::kDevContig, Buf::kHostStrided}) {
    ClusterConfig cfg;
    cfg.ranks = 2;
    Cluster cluster(cfg);
    bool threw = false;
    cluster.run([&](Context& ctx) {
      Message m = make_message(ctx, b);
      mpisim::Request r;
      if (ctx.rank == 0) {
        cusim::Stream stream = ctx.cuda->create_stream();
        try {
          r = gated_isend(ctx, m, /*gated=*/true, stream);
        } catch (const std::logic_error&) {
          threw = true;
        }
        stream.synchronize();
      }
      // A send that was accepted still needs its receive to complete.
      ctx.comm.barrier();
      if (!threw) {
        if (ctx.rank == 1) r = ctx.comm.irecv(m.base, m.count, m.type, 0, kTag);
        ctx.comm.wait(r);
      }
      if (m.host.empty()) ctx.cuda->free(m.base);
    });
    EXPECT_TRUE(threw) << name_of(b);
  }
}

namespace {

struct GateRun {
  std::vector<std::byte> received;
  sim::SimTime gate_at = 0;    // the gating kernel's end
  sim::SimTime recv_done = 0;  // rank 1's receive completed
};

// Host-contiguous rendezvous from rank 0 to rank 1; the kernel that
// (optionally) gates it writes the payload at its end.
GateRun run_host_contig(bool gated) {
  ClusterConfig cfg;
  cfg.ranks = 2;
  Cluster cluster(cfg);
  GateRun out;
  cluster.run([&](Context& ctx) {
    Message m = make_message(ctx, Buf::kHostContig);
    if (ctx.rank == 0) {
      cusim::Stream stream = ctx.cuda->create_stream();
      std::vector<std::byte>& buf = m.host;
      mpisim::Request r = gated_isend(ctx, m, gated, stream, [&buf] {
        for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = pattern(i);
      });
      out.gate_at = stream.last_op_done();
      ctx.comm.wait(r);
      stream.synchronize();
    } else {
      mpisim::Request r =
          ctx.comm.irecv(m.base, m.count, m.type, 0, kTag);
      ctx.comm.wait(r);
      out.recv_done = ctx.now();
      out.received = m.host;
    }
  });
  return out;
}

}  // namespace

TEST(DataGate, HostContiguousSendHoldsItsWireUntilTheGate) {
  const GateRun free_run = run_host_contig(false);
  const GateRun gated = run_host_contig(true);
  // Ungated, the transfer lands before the kernel ends: the gate is what
  // holds the gated one back.
  EXPECT_LT(free_run.recv_done, free_run.gate_at);
  EXPECT_GE(gated.recv_done, gated.gate_at);
  std::vector<std::byte> want(gated.received.size());
  for (std::size_t i = 0; i < want.size(); ++i) want[i] = pattern(i);
  EXPECT_TRUE(gated.received == want) << "gated payload is not the kernel's";
}

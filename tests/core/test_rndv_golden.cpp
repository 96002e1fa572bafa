// Golden schedules of the rendezvous stage combinations. Each case runs
// one fixed transfer (or a short series of them) between two ranks and
// asserts byte-exact delivery plus four exact values: the virtual time at
// which the run ended, the engine's executed-event count, the RetryStats
// counters summed over both ranks, and the outgoing control-message census
// (SchedStats::ctrl_by_kind) summed over both ranks. Together they pin the
// pipeline schedule event for event: a change to any stage order, gate,
// slot acquisition or control message of any buffer combination moves at
// least one of them.
//
// The cases cover every sender/receiver stage combination the MPI layer
// can present — device strided (GPU offload and the strided-PCIe
// alternative), device contiguous, host strided, host contiguous and the
// two intra-node IPC routes — each unpipelined (one chunk) and pipelined
// (four or more chunks). The cost model sends an IPC contiguous message as
// one chunk, so its pipelined cases pin chunk_select = fixed at 128 KB; two
// more cases pin the model's own one-chunk IPC schedules (a 1 MB contiguous
// message and stencil_halo's 16,400-row halo vector). Then a mixed-residency
// pair, persistent re-fires with start() and a lossy fabric that forces
// retransmissions.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "mpi/cluster.hpp"

namespace core = mv2gnc::core;
namespace mpisim = mv2gnc::mpisim;
namespace netsim = mv2gnc::netsim;
namespace sim = mv2gnc::sim;
using mpisim::Cluster;
using mpisim::ClusterConfig;
using mpisim::Context;
using mpisim::Datatype;

namespace {

enum class Buf { kDevStrided, kDevContig, kHostStrided, kHostContig };

enum class Drive {
  kBlocking,    // send / recv
  kPersistent,  // send_init / recv_init re-fired with start()
};

struct Case {
  const char* name;
  Buf send;
  Buf recv;
  int rows;  // float32 elements in the message
  bool pipelining = true;
  bool offload = true;
  std::size_t fixed_chunk = 0;  // nonzero: chunk_select = fixed at this size
  bool whole = false;  // pipelined, but the model sends one chunk per round
  std::size_t rpn = 1;
  Drive drive = Drive::kBlocking;
  int rounds = 1;
  bool lossy = false;
  const char* golden = "";
};

// gtest would print a Case as raw bytes, pointers included, and test
// discovery copies that text into the ctest names; print only the name so
// the names do not depend on the binary's layout.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

constexpr int kOneChunk = 1 << 16;    // 256 KB packed, pipelining off
constexpr int kManyChunks = 1 << 18;  // 1 MB packed, pipelined
constexpr int kHaloRows = 16'400;     // stencil_halo's 65,600 B east-west halo
constexpr std::byte kSentinel{0xEE};

bool on_device(Buf b) { return b == Buf::kDevStrided || b == Buf::kDevContig; }
bool strided(Buf b) { return b == Buf::kDevStrided || b == Buf::kHostStrided; }

// Byte offset of element j inside a buffer of kind b (strided layouts keep
// every other float32).
std::size_t elem_off(Buf b, int j) {
  return static_cast<std::size_t>(j) * (strided(b) ? 8 : 4);
}

std::size_t span_of(Buf b, int rows) { return elem_off(b, rows) + 64; }

std::byte pattern(std::size_t i, int round) {
  return static_cast<std::byte>((i * 131 + static_cast<std::size_t>(round) * 7 +
                                 17) &
                                0xFF);
}

std::vector<std::byte> send_image(const Case& c, int round) {
  std::vector<std::byte> img(span_of(c.send, c.rows));
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = pattern(i, round);
  return img;
}

// What the receive buffer must hold after round `round`: the sender's
// elements at the receiver's layout, the sentinel in every gap.
std::vector<std::byte> expected_image(const Case& c, int round) {
  const std::vector<std::byte> src = send_image(c, round);
  std::vector<std::byte> img(span_of(c.recv, c.rows), kSentinel);
  for (int j = 0; j < c.rows; ++j) {
    std::memcpy(img.data() + elem_off(c.recv, j),
                src.data() + elem_off(c.send, j), 4);
  }
  return img;
}

struct Endpoint {
  Datatype type;
  int count = 1;
  std::byte* base = nullptr;
  std::vector<std::byte> host;  // backing store of host-resident buffers
};

Endpoint make_endpoint(Context& ctx, Buf b, int rows) {
  Endpoint e;
  if (strided(b)) {
    e.type = Datatype::vector(rows, 1, 2, Datatype::float32());
  } else {
    e.type = Datatype::float32();
    e.count = rows;
  }
  e.type.commit();
  const std::size_t span = span_of(b, rows);
  if (on_device(b)) {
    e.base = static_cast<std::byte*>(ctx.cuda->malloc(span));
  } else {
    e.host.assign(span, std::byte{0});
    e.base = e.host.data();
  }
  return e;
}

void fill(Context& ctx, Buf b, Endpoint& e,
          const std::vector<std::byte>& img) {
  if (on_device(b)) {
    ctx.cuda->memcpy(e.base, img.data(), img.size());
  } else {
    std::memcpy(e.base, img.data(), img.size());
  }
}

std::vector<std::byte> read_back(Context& ctx, Buf b, const Endpoint& e,
                                 std::size_t span) {
  std::vector<std::byte> out(span);
  if (on_device(b)) {
    ctx.cuda->memcpy(out.data(), e.base, span);
  } else {
    std::memcpy(out.data(), e.base, span);
  }
  return out;
}

void lossy_control(netsim::FaultModel& fm) {
  netsim::FaultSpec ctrl;
  ctrl.drop_send = 0.08;
  for (int kind : {core::kRts, core::kCts, core::kChunkAck, core::kSendDone,
                   core::kRtsAck, core::kSendDoneAck}) {
    fm.set_kind(kind, ctrl);
  }
}

struct Outcome {
  std::string fingerprint;
  std::vector<std::byte> received;  // every round's receive image, in order
  std::uint64_t first_fins = 0;  // chunk writes minus retransmitted ones
  std::uint64_t retransmits = 0;
};

Outcome run_case(const Case& c) {
  ClusterConfig cfg;
  cfg.ranks = 2;
  cfg.tunables.ranks_per_node = c.rpn;
  cfg.tunables.pipelining = c.pipelining;
  cfg.tunables.gpu_offload = c.offload;
  if (c.fixed_chunk != 0) {
    cfg.tunables.chunk_select = core::ChunkSelect::kFixed;
    cfg.tunables.chunk_bytes = c.fixed_chunk;
  }
  if (c.lossy) {
    cfg.tunables.rndv_timeout_ns = 200'000;
    cfg.rng_seed = 7;
    lossy_control(cfg.faults);
  }
  Outcome out;
  Cluster cluster(cfg);
  cluster.run([&](Context& ctx) {
    const bool sender = ctx.rank == 0;
    const Buf b = sender ? c.send : c.recv;
    Endpoint e = make_endpoint(ctx, b, c.rows);
    const std::size_t span = span_of(b, c.rows);
    mpisim::PersistentRequest preq;
    if (c.drive == Drive::kPersistent) {
      preq = sender ? ctx.comm.send_init(e.base, e.count, e.type, 1, 5)
                    : ctx.comm.recv_init(e.base, e.count, e.type, 0, 5);
    }
    for (int round = 0; round < c.rounds; ++round) {
      fill(ctx, b, e,
           sender ? send_image(c, round)
                  : std::vector<std::byte>(span, kSentinel));
      ctx.comm.barrier();
      switch (c.drive) {
        case Drive::kBlocking:
          if (sender) ctx.comm.send(e.base, e.count, e.type, 1, 5);
          else ctx.comm.recv(e.base, e.count, e.type, 0, 5);
          break;
        case Drive::kPersistent:
          preq.start();
          preq.wait();
          break;
      }
      if (!sender) {
        const std::vector<std::byte> got = read_back(ctx, b, e, span);
        out.received.insert(out.received.end(), got.begin(), got.end());
      }
    }
    if (on_device(b)) ctx.cuda->free(e.base);
  });

  std::array<std::uint64_t, 11> retry{};
  std::array<std::uint64_t, core::SchedStats::kMaxKind> ctrl{};
  for (int r = 0; r < cfg.ranks; ++r) {
    const core::RetryStats& s = cluster.retry_stats(r);
    const std::uint64_t fields[11] = {
        s.rts_retransmits,       s.chunk_retransmits, s.error_retransmits,
        s.cts_resent,            s.acks_resent,       s.send_done_retransmits,
        s.timeouts,              s.stall_fallbacks,   s.duplicates_dropped,
        s.transfer_failures,     s.force_drains};
    for (std::size_t i = 0; i < retry.size(); ++i) retry[i] += fields[i];
    out.retransmits += s.total_retransmits();
    const core::SchedStats& ss = cluster.sched_stats(r);
    for (std::size_t k = 0; k < ctrl.size(); ++k) ctrl[k] += ss.ctrl_by_kind[k];
    EXPECT_EQ(cluster.vbuf_audit(r), "") << c.name << " rank " << r;
    EXPECT_EQ(cluster.tracked_rendezvous(r), 0u) << c.name << " rank " << r;
  }
  out.first_fins = ctrl[core::kChunkFin] - retry[1] - retry[2];
  std::ostringstream os;
  os << "t=" << cluster.elapsed()
     << " ev=" << cluster.engine().events_executed() << " retry=";
  for (std::size_t i = 0; i < retry.size(); ++i) {
    os << (i ? "/" : "") << retry[i];
  }
  os << " ctrl=";
  bool first = true;
  for (std::size_t k = 0; k < ctrl.size(); ++k) {
    if (ctrl[k] == 0) continue;
    os << (first ? "" : ",") << k << ':' << ctrl[k];
    first = false;
  }
  out.fingerprint = os.str();
  return out;
}

// Expected fingerprints. A refactor of the rendezvous engine must leave
// every one unchanged; do not re-record them to make a change pass: a
// moved value means the schedule changed.
const Case kCases[] = {
    {.name = "dev_strided_offload_1chunk", .send = Buf::kDevStrided,
     .recv = Buf::kDevStrided, .rows = kOneChunk, .pipelining = false,
     .golden = "t=2137684 ev=34 retry=0/0/0/0/0/0/0/0/0/0/0 "
               "ctrl=1:2,2:1,3:1,4:1,5:1,7:1"},
    {.name = "dev_strided_offload_pipelined", .send = Buf::kDevStrided,
     .recv = Buf::kDevStrided, .rows = kManyChunks,
     .golden = "t=5396089 ev=132 retry=0/0/0/0/0/0/0/0/0/0/0 "
               "ctrl=1:2,2:1,3:1,4:8,5:8,7:1"},
    {.name = "dev_strided_pcie_1chunk", .send = Buf::kDevStrided,
     .recv = Buf::kDevStrided, .rows = kOneChunk, .pipelining = false,
     .offload = false,
     .golden = "t=35687140 ev=44 retry=0/2/0/0/0/0/5/0/2/0/0 "
               "ctrl=1:2,2:1,3:1,4:3,5:1,7:1"},
    {.name = "dev_strided_pcie_pipelined", .send = Buf::kDevStrided,
     .recv = Buf::kDevStrided, .rows = kManyChunks, .offload = false,
     .golden = "t=72976342 ev=1328 retry=0/0/0/0/0/0/0/0/0/0/0 "
               "ctrl=1:2,2:1,3:1,4:128,5:128,7:1"},
    {.name = "dev_contig_1chunk", .send = Buf::kDevContig,
     .recv = Buf::kDevContig, .rows = kOneChunk, .pipelining = false,
     .golden = "t=378839 ev=30 retry=0/0/0/0/0/0/0/0/0/0/0 "
               "ctrl=1:2,2:1,3:1,4:1,5:1,7:1"},
    {.name = "dev_contig_pipelined", .send = Buf::kDevContig,
     .recv = Buf::kDevContig, .rows = kManyChunks,
     .golden = "t=1124986 ev=100 retry=0/0/0/0/0/0/0/0/0/0/0 "
               "ctrl=1:2,2:1,3:1,4:8,5:8,7:1"},
    {.name = "host_strided_1chunk", .send = Buf::kHostStrided,
     .recv = Buf::kHostStrided, .rows = kOneChunk, .pipelining = false,
     .golden = "t=2232222 ev=25 retry=0/0/0/0/0/0/0/0/0/0/0 "
               "ctrl=1:2,2:1,3:1,4:1,5:1,7:1"},
    {.name = "host_strided_pipelined", .send = Buf::kHostStrided,
     .recv = Buf::kHostStrided, .rows = kManyChunks,
     .golden = "t=8596300 ev=147 retry=0/0/0/0/0/0/0/0/0/0/0 "
               "ctrl=1:2,2:1,3:1,4:16,5:16,7:1"},
    {.name = "host_contig_1chunk", .send = Buf::kHostContig,
     .recv = Buf::kHostContig, .rows = kOneChunk, .pipelining = false,
     .golden = "t=98562 ev=26 retry=0/0/0/0/0/0/0/0/0/0/0 "
               "ctrl=1:2,2:1,3:1,4:1,5:1,7:1,9:1"},
    {.name = "host_contig_pipelined", .send = Buf::kHostContig,
     .recv = Buf::kHostContig, .rows = kManyChunks,
     .golden = "t=353322 ev=116 retry=0/0/0/0/0/0/0/0/0/0/0 "
               "ctrl=1:2,2:1,3:1,4:16,5:16,7:1,9:1"},
    {.name = "ipc_offload_1chunk", .send = Buf::kDevStrided,
     .recv = Buf::kDevStrided, .rows = kOneChunk, .pipelining = false,
     .rpn = 2,
     .golden = "t=1992988 ev=33 retry=0/0/0/0/0/0/0/0/0/0/0 "
               "ctrl=1:2,2:1,3:1,4:1,5:1,7:1,9:1"},
    {.name = "ipc_offload_pipelined", .send = Buf::kDevStrided,
     .recv = Buf::kDevStrided, .rows = kManyChunks, .rpn = 2,
     .golden = "t=5317334 ev=103 retry=0/0/0/0/0/0/0/0/0/0/0 "
               "ctrl=1:2,2:1,3:1,4:8,5:8,7:1,9:1"},
    {.name = "ipc_contig_1chunk", .send = Buf::kDevContig,
     .recv = Buf::kDevContig, .rows = kOneChunk, .pipelining = false, .rpn = 2,
     .golden = "t=236226 ev=29 retry=0/0/0/0/0/0/0/0/0/0/0 "
               "ctrl=1:2,2:1,3:1,4:1,5:1,7:1,9:1"},
    {.name = "ipc_contig_pipelined", .send = Buf::kDevContig,
     .recv = Buf::kDevContig, .rows = kManyChunks, .fixed_chunk = 128 << 10,
     .rpn = 2,
     .golden = "t=911359 ev=71 retry=0/0/0/0/0/0/0/0/0/0/0 "
               "ctrl=1:2,2:1,3:1,4:8,5:8,7:1,9:1"},
    {.name = "ipc_contig_whole", .send = Buf::kDevContig,
     .recv = Buf::kDevContig, .rows = kManyChunks, .whole = true, .rpn = 2,
     .golden = "t=910311 ev=29 retry=0/0/0/0/0/0/0/0/0/0/0 "
               "ctrl=1:2,2:1,3:1,4:1,5:1,7:1,9:1"},
    {.name = "ipc_halo_vector", .send = Buf::kDevStrided,
     .recv = Buf::kDevStrided, .rows = kHaloRows, .whole = true, .rpn = 2,
     .golden = "t=602909 ev=33 retry=0/0/0/0/0/0/0/0/0/0/0 "
               "ctrl=1:2,2:1,3:1,4:1,5:1,7:1,9:1"},
    {.name = "mixed_dev_strided_to_host_contig", .send = Buf::kDevStrided,
     .recv = Buf::kHostContig, .rows = kManyChunks,
     .golden = "t=4193395 ev=101 retry=0/0/0/0/0/0/0/0/0/0/0 "
               "ctrl=1:2,2:1,3:1,4:8,5:8,7:1,9:1"},
    {.name = "mixed_host_strided_to_dev_strided", .send = Buf::kHostStrided,
     .recv = Buf::kDevStrided, .rows = kManyChunks,
     .golden = "t=9704410 ev=196 retry=0/0/0/0/0/0/0/0/0/0/0 "
               "ctrl=1:2,2:1,3:1,4:16,5:16,7:1"},
    {.name = "persistent_cpu_dev_strided", .send = Buf::kDevStrided,
     .recv = Buf::kDevStrided, .rows = kManyChunks,
     .drive = Drive::kPersistent, .rounds = 3,
     .golden = "t=16188267 ev=396 retry=0/0/0/0/0/0/0/0/0/0/0 "
               "ctrl=1:6,2:3,3:3,4:24,5:24,7:3"},
    {.name = "lossy_dev_strided_offload", .send = Buf::kDevStrided,
     .recv = Buf::kDevStrided, .rows = kManyChunks, .rounds = 4, .lossy = true,
     .golden = "t=22339071 ev=671 retry=3/3/0/2/3/0/38/0/0/0/0 "
               "ctrl=1:8,2:7,3:6,4:35,5:35,7:4"},
};

class RndvGolden : public ::testing::TestWithParam<Case> {};

TEST_P(RndvGolden, ScheduleAndPayloadAreExact) {
  const Case& c = GetParam();
  const Outcome out = run_case(c);
  std::vector<std::byte> want;
  for (int round = 0; round < c.rounds; ++round) {
    const std::vector<std::byte> img = expected_image(c, round);
    want.insert(want.end(), img.begin(), img.end());
  }
  EXPECT_TRUE(out.received == want) << c.name << ": payload mismatch";
  // Geometry sanity: the unpipelined cases move one chunk per round, the
  // pipelined ones at least four. A fin that rides a retransmitted write is
  // not a chunk (the one-chunk strided-PCIe case is slow enough that its
  // own write times out and is resent).
  if (!c.lossy) {
    const std::uint64_t rounds = static_cast<std::uint64_t>(c.rounds);
    if (c.pipelining && !c.whole) {
      EXPECT_GE(out.first_fins, 4 * rounds) << c.name;
    } else {
      EXPECT_EQ(out.first_fins, rounds) << c.name;
    }
  } else {
    EXPECT_GT(out.retransmits, 0u) << c.name << ": lossy case never retried";
  }
  EXPECT_EQ(out.fingerprint, c.golden) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllPaths, RndvGolden, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

}  // namespace

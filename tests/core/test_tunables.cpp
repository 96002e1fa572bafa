#include "core/tunables.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

using mv2gnc::core::Tunables;

TEST(Tunables, DefaultsAreValid) {
  Tunables t;
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(t.chunk_bytes, 64u * 1024u);  // the paper's optimum
  EXPECT_TRUE(t.gpu_offload);
  EXPECT_TRUE(t.pipelining);
}

TEST(Tunables, ValidationCatchesBadValues) {
  Tunables t;
  t.chunk_bytes = 0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.vbuf_count = 1;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.recv_window = 0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.recv_window = t.vbuf_count + 1;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.host_pack_bw = 0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.host_seg_overhead_ns = -1;
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

TEST(Tunables, ValidationCatchesBadFaultKnobs) {
  Tunables t;
  t.rank_stall_prob = -0.1;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.rank_stall_prob = 1.5;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.rank_stall_ns = -1;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.rank_skew_ns = -1;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.transport_restore_threshold = 0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.coll_watchdog_factor = 0.5;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  // Boundary values are legal: probabilities may be exactly 0 or 1, the
  // failover threshold 0 means "disabled".
  t = Tunables{};
  t.rank_stall_prob = 1.0;
  t.transport_failover_threshold = 0;
  t.coll_watchdog_factor = 1.0;
  EXPECT_NO_THROW(t.validate());
}

TEST(Tunables, FaultKnobsRoundTrip) {
  Tunables t;
  t.rank_skew_ns = 25'000;
  t.rank_stall_prob = 0.125;
  t.rank_stall_ns = 4'000;
  t.transport_failover_threshold = 5;
  t.transport_restore_threshold = 7;
  t.coll_watchdog_factor = 6.5;
  std::istringstream in(t.to_config_string());
  Tunables u = Tunables::from_stream(in);
  EXPECT_EQ(u.rank_skew_ns, 25'000);
  EXPECT_DOUBLE_EQ(u.rank_stall_prob, 0.125);
  EXPECT_EQ(u.rank_stall_ns, 4'000);
  EXPECT_EQ(u.transport_failover_threshold, 5u);
  EXPECT_EQ(u.transport_restore_threshold, 7u);
  EXPECT_DOUBLE_EQ(u.coll_watchdog_factor, 6.5);
}

TEST(Tunables, HostPackTimeModel) {
  Tunables t;
  t.host_pack_bw = 2.0;           // 2 bytes/ns
  t.host_seg_overhead_ns = 10.0;  // 10 ns per run
  EXPECT_EQ(t.host_pack_time(2000, 5), 1000 + 50);
  EXPECT_EQ(t.host_pack_time(0, 0), 0);
}

TEST(Tunables, ConfigRoundTrip) {
  Tunables t;
  t.chunk_bytes = 128 * 1024;
  t.eager_threshold = 4096;
  t.gpu_offload = false;
  t.recv_window = 4;
  std::istringstream in(t.to_config_string());
  Tunables u = Tunables::from_stream(in);
  EXPECT_EQ(u.chunk_bytes, 128u * 1024u);
  EXPECT_EQ(u.eager_threshold, 4096u);
  EXPECT_FALSE(u.gpu_offload);
  EXPECT_EQ(u.recv_window, 4u);
}

TEST(Tunables, ParserHandlesCommentsAndWhitespace) {
  std::istringstream in(
      "# MV2-GPU-NC site config\n"
      "\n"
      "  chunk_bytes =  32768   # tuned with OSU micro-benchmarks\n"
      "pipelining= no\n");
  Tunables t = Tunables::from_stream(in);
  EXPECT_EQ(t.chunk_bytes, 32768u);
  EXPECT_FALSE(t.pipelining);
}

TEST(Tunables, ParserRejectsUnknownKey) {
  std::istringstream in("warp_speed = 9\n");
  EXPECT_THROW(Tunables::from_stream(in), std::invalid_argument);
}

TEST(Tunables, ParserRejectsMalformedLines) {
  std::istringstream bad_value("chunk_bytes = many\n");
  EXPECT_THROW(Tunables::from_stream(bad_value), std::invalid_argument);
  std::istringstream no_eq("chunk_bytes 65536\n");
  EXPECT_THROW(Tunables::from_stream(no_eq), std::invalid_argument);
  std::istringstream bad_bool("gpu_offload = maybe\n");
  EXPECT_THROW(Tunables::from_stream(bad_bool), std::invalid_argument);
}

TEST(Tunables, ParserValidatesResult) {
  std::istringstream in("vbuf_count = 1\n");
  EXPECT_THROW(Tunables::from_stream(in), std::invalid_argument);
}

TEST(Tunables, MissingFileThrows) {
  EXPECT_THROW(Tunables::from_file("/nonexistent/mv2.conf"),
               std::invalid_argument);
}

TEST(Tunables, ReliabilityKnobsRoundTrip) {
  Tunables t;
  t.rndv_timeout_ns = 250'000;
  t.rndv_max_retries = 11;
  t.rndv_backoff_factor = 1.5;
  std::istringstream in(t.to_config_string());
  Tunables u = Tunables::from_stream(in);
  EXPECT_EQ(u.rndv_timeout_ns, 250'000);
  EXPECT_EQ(u.rndv_max_retries, 11u);
  EXPECT_DOUBLE_EQ(u.rndv_backoff_factor, 1.5);
}

TEST(Tunables, SelectionPoliciesDefaultToModel) {
  Tunables t;
  EXPECT_EQ(t.chunk_select, mv2gnc::core::ChunkSelect::kModel);
}

TEST(Tunables, SelectionPoliciesRoundTrip) {
  Tunables t;
  t.chunk_select = mv2gnc::core::ChunkSelect::kFixed;
  std::istringstream in(t.to_config_string());
  Tunables u = Tunables::from_stream(in);
  EXPECT_EQ(u.chunk_select, mv2gnc::core::ChunkSelect::kFixed);
}

TEST(Tunables, ParserRejectsBadSelectionPolicy) {
  std::istringstream bad_chunk("chunk_select = auto\n");
  EXPECT_THROW(Tunables::from_stream(bad_chunk), std::invalid_argument);
}

TEST(Tunables, ConcurrencyKnobsDefaultToLegacyBehaviour) {
  // fifo + uncapped depth must reproduce the pre-scheduler pipeline
  // exactly; that is the ablation baseline.
  Tunables t;
  EXPECT_EQ(t.sched_policy, mv2gnc::core::SchedPolicy::kFifo);
}

TEST(Tunables, ConcurrencyKnobsRoundTrip) {
  Tunables t;
  t.sched_policy = mv2gnc::core::SchedPolicy::kFair;
  std::istringstream in(t.to_config_string());
  Tunables u = Tunables::from_stream(in);
  EXPECT_EQ(u.sched_policy, mv2gnc::core::SchedPolicy::kFair);
}

TEST(Tunables, ParserRejectsBadSchedPolicy) {
  std::istringstream bad("sched_policy = round_robin\n");
  EXPECT_THROW(Tunables::from_stream(bad), std::invalid_argument);
}

TEST(Tunables, ParserRejectsDeletedBytesSchedPolicy) {
  std::istringstream bad("sched_policy = bytes\n");
  EXPECT_THROW(Tunables::from_stream(bad), std::invalid_argument);
}

TEST(Tunables, ParserRejectsDeletedCoalescingAndReserveKnobs) {
  // Chunk acks are never batched and the fair scheduler reserves one
  // pooled slot per transfer: neither is a config key any more, whatever
  // its value.
  for (const char* line :
       {"ack_coalesce_window_ns = 0\n", "ack_coalesce_window_ns = 30000\n",
        "vbuf_reserve_per_transfer = 1\n",
        "vbuf_reserve_per_transfer = 2\n"}) {
    std::istringstream bad(line);
    EXPECT_THROW(Tunables::from_stream(bad), std::invalid_argument) << line;
  }
  const std::string cfg = Tunables{}.to_config_string();
  EXPECT_EQ(cfg.find("ack_coalesce_window_ns"), std::string::npos);
  EXPECT_EQ(cfg.find("vbuf_reserve_per_transfer"), std::string::npos);
}

TEST(Tunables, ValidationCatchesBadReliabilityKnobs) {
  Tunables t;
  t.rndv_timeout_ns = 0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.rndv_timeout_ns = -5;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Tunables{};
  t.rndv_backoff_factor = 0.5;  // backoff below 1 would shrink the timeout
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

TEST(Tunables, TopologyKnobsRoundTrip) {
  Tunables t;
  t.ranks_per_node = 4;
  t.transport_select = mv2gnc::core::TransportSelect::kFabric;
  std::istringstream in(t.to_config_string());
  Tunables u = Tunables::from_stream(in);
  EXPECT_EQ(u.ranks_per_node, 4u);
  EXPECT_EQ(u.transport_select, mv2gnc::core::TransportSelect::kFabric);
}

TEST(Tunables, TopologyKnobsValidated) {
  Tunables t;
  t.ranks_per_node = 0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  std::istringstream bad(std::string("transport_select = hca\n"));
  EXPECT_THROW(Tunables::from_stream(bad), std::invalid_argument);
}

TEST(Tunables, RoutingAndEcnKnobsDefaultOff) {
  // Routing has no knob (the fabric's one route is least-backlog
  // adaptive); ECN feedback is off unless a threshold is set.
  Tunables t;
  EXPECT_EQ(t.ecn_backlog_ns, 0);
}

TEST(Tunables, RoutingAndEcnKnobsRoundTrip) {
  Tunables t;
  t.ecn_backlog_ns = 25'000;
  const std::string rendered = t.to_config_string();
  EXPECT_NE(rendered.find("ecn_backlog_ns = 25000\n"), std::string::npos);
  std::istringstream in(rendered);
  Tunables u = Tunables::from_stream(in);
  EXPECT_EQ(u.ecn_backlog_ns, 25'000);
}

TEST(Tunables, ParserRejectsDeletedRouteSelect) {
  // The fabric has one route (least-backlog adaptive): route_select is
  // not a config key any more, whatever its value.
  for (const char* line :
       {"route_select = dmodk\n", "route_select = hash\n",
        "route_select = adaptive\n", "route_select = random\n"}) {
    std::istringstream bad(line);
    EXPECT_THROW(Tunables::from_stream(bad), std::invalid_argument) << line;
  }
  EXPECT_EQ(Tunables{}.to_config_string().find("route_select"),
            std::string::npos);
}

TEST(Tunables, ValidationCatchesBadEcnKnobs) {
  Tunables t;
  t.ecn_backlog_ns = -1;
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

TEST(Tunables, ParserRejectsDeletedSelectionAndDepthKnobs) {
  // Collectives pick flat or two-level by a fixed rule, the scheduler's
  // depth has no per-transfer cap and ECN regrows after a fixed 16 clean
  // acks: none of these is a config key any more, whatever its value.
  for (const char* line :
       {"coll_select = auto\n", "coll_select = flat\n",
        "coll_select = hier\n", "max_inflight_chunks = 0\n",
        "max_inflight_chunks = 4\n", "ecn_restore_chunks = 16\n"}) {
    std::istringstream bad(line);
    EXPECT_THROW(Tunables::from_stream(bad), std::invalid_argument) << line;
  }
  const std::string cfg = Tunables{}.to_config_string();
  for (const char* key :
       {"coll_select", "max_inflight_chunks", "ecn_restore_chunks"}) {
    EXPECT_EQ(cfg.find(key), std::string::npos) << key;
  }
}

TEST(Tunables, ParserRejectsDeletedDeviceCollectiveKnobs) {
  // Device collectives pick their schedule and slice size from the cost
  // model; neither choice is a config key any more, whatever its value.
  for (const char* line :
       {"coll_device = staged\n", "coll_device = pipelined\n",
        "coll_device = auto\n", "coll_slice_bytes = 0\n",
        "coll_slice_bytes = 65536\n"}) {
    std::istringstream bad(line);
    EXPECT_THROW(Tunables::from_stream(bad), std::invalid_argument) << line;
  }
  const std::string cfg = Tunables{}.to_config_string();
  EXPECT_EQ(cfg.find("coll_device"), std::string::npos);
  EXPECT_EQ(cfg.find("coll_slice_bytes"), std::string::npos);
}

TEST(Tunables, ParserRejectsDeletedStreamKnobs) {
  // Point-to-point has no stream-enqueued posting and persistent requests
  // re-derive their plan on every start: neither knob is a config key any
  // more, whatever its value.
  for (const char* line :
       {"trigger_mode = polled\n", "trigger_mode = stream\n",
        "persistent_plan_cache = false\n",
        "persistent_plan_cache = true\n"}) {
    std::istringstream bad(line);
    EXPECT_THROW(Tunables::from_stream(bad), std::invalid_argument) << line;
  }
  const std::string cfg = Tunables{}.to_config_string();
  EXPECT_EQ(cfg.find("trigger_mode"), std::string::npos);
  EXPECT_EQ(cfg.find("persistent_plan_cache"), std::string::npos);
}

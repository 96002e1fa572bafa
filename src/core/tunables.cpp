#include "core/tunables.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace mv2gnc::core {

sim::SimTime Tunables::host_pack_time(std::size_t bytes,
                                      std::size_t segments) const {
  return static_cast<sim::SimTime>(static_cast<double>(bytes) / host_pack_bw +
                                   static_cast<double>(segments) *
                                       host_seg_overhead_ns);
}

void Tunables::validate() const {
  if (chunk_bytes == 0) {
    throw std::invalid_argument("tunables: chunk_bytes must be > 0");
  }
  if (vbuf_count < 2) {
    throw std::invalid_argument("tunables: vbuf_count must be >= 2");
  }
  if (recv_window == 0) {
    throw std::invalid_argument("tunables: recv_window must be > 0");
  }
  if (recv_window > vbuf_count) {
    throw std::invalid_argument(
        "tunables: recv_window cannot exceed vbuf_count");
  }
  if (ranks_per_node == 0) {
    throw std::invalid_argument("tunables: ranks_per_node must be >= 1");
  }
  if (rndv_timeout_ns <= 0) {
    throw std::invalid_argument("tunables: rndv_timeout_ns must be > 0");
  }
  if (rndv_backoff_factor < 1.0) {
    throw std::invalid_argument(
        "tunables: rndv_backoff_factor must be >= 1.0");
  }
  if (rank_skew_ns < 0) {
    throw std::invalid_argument("tunables: rank_skew_ns must be >= 0");
  }
  if (rank_stall_prob < 0.0 || rank_stall_prob > 1.0) {
    throw std::invalid_argument(
        "tunables: rank_stall_prob must be in [0, 1]");
  }
  if (rank_stall_ns < 0) {
    throw std::invalid_argument("tunables: rank_stall_ns must be >= 0");
  }
  if (ecn_backlog_ns < 0) {
    throw std::invalid_argument("tunables: ecn_backlog_ns must be >= 0");
  }
  if (transport_restore_threshold == 0) {
    throw std::invalid_argument(
        "tunables: transport_restore_threshold must be >= 1");
  }
  if (coll_watchdog_factor < 1.0) {
    throw std::invalid_argument(
        "tunables: coll_watchdog_factor must be >= 1.0");
  }
  if (host_pack_bw <= 0.0) {
    throw std::invalid_argument("tunables: host_pack_bw must be positive");
  }
  if (host_seg_overhead_ns < 0.0) {
    throw std::invalid_argument(
        "tunables: host_seg_overhead_ns must be non-negative");
  }
}

namespace {

bool parse_bool(const std::string& v, const std::string& key) {
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw std::invalid_argument("tunables: bad boolean for " + key + ": " + v);
}

ChunkSelect parse_chunk_select(const std::string& v) {
  if (v == "model") return ChunkSelect::kModel;
  if (v == "fixed") return ChunkSelect::kFixed;
  throw std::invalid_argument(
      "tunables: chunk_select must be 'model' or 'fixed', got: " + v);
}

TransportSelect parse_transport_select(const std::string& v) {
  if (v == "auto") return TransportSelect::kAuto;
  if (v == "fabric") return TransportSelect::kFabric;
  throw std::invalid_argument(
      "tunables: transport_select must be 'auto' or 'fabric', got: " + v);
}

SchedPolicy parse_sched_policy(const std::string& v) {
  if (v == "fifo") return SchedPolicy::kFifo;
  if (v == "fair") return SchedPolicy::kFair;
  throw std::invalid_argument(
      "tunables: sched_policy must be 'fifo' or 'fair', got: " + v);
}

const char* sched_policy_name(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::kFifo: return "fifo";
    case SchedPolicy::kFair: return "fair";
  }
  return "fifo";
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

}  // namespace

Tunables Tunables::from_stream(std::istream& in) {
  Tunables t;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("tunables: missing '=' on line " +
                                  std::to_string(lineno));
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    try {
      if (key == "eager_threshold") t.eager_threshold = std::stoull(value);
      else if (key == "chunk_bytes") t.chunk_bytes = std::stoull(value);
      else if (key == "pipeline_threshold") t.pipeline_threshold = std::stoull(value);
      else if (key == "vbuf_count") t.vbuf_count = std::stoull(value);
      else if (key == "recv_window") t.recv_window = std::stoull(value);
      else if (key == "gpu_offload") t.gpu_offload = parse_bool(value, key);
      else if (key == "chunk_select") t.chunk_select = parse_chunk_select(value);
      else if (key == "pipelining") t.pipelining = parse_bool(value, key);
      else if (key == "sched_policy") t.sched_policy = parse_sched_policy(value);
      else if (key == "ranks_per_node") t.ranks_per_node = std::stoull(value);
      else if (key == "transport_select") t.transport_select = parse_transport_select(value);
      else if (key == "route_select") t.route_select = netsim::parse_route_select(value);
      else if (key == "ecn_backlog_ns") t.ecn_backlog_ns = std::stoll(value);
      else if (key == "rndv_timeout_ns") t.rndv_timeout_ns = std::stoll(value);
      else if (key == "rndv_max_retries") t.rndv_max_retries = std::stoull(value);
      else if (key == "rndv_backoff_factor") t.rndv_backoff_factor = std::stod(value);
      else if (key == "rank_skew_ns") t.rank_skew_ns = std::stoll(value);
      else if (key == "rank_stall_prob") t.rank_stall_prob = std::stod(value);
      else if (key == "rank_stall_ns") t.rank_stall_ns = std::stoll(value);
      else if (key == "transport_failover_threshold") t.transport_failover_threshold = std::stoull(value);
      else if (key == "transport_restore_threshold") t.transport_restore_threshold = std::stoull(value);
      else if (key == "coll_watchdog_factor") t.coll_watchdog_factor = std::stod(value);
      else if (key == "host_pack_bw") t.host_pack_bw = std::stod(value);
      else if (key == "host_seg_overhead_ns") t.host_seg_overhead_ns = std::stod(value);
      else {
        throw std::invalid_argument("tunables: unknown key '" + key +
                                    "' on line " + std::to_string(lineno));
      }
    } catch (const std::invalid_argument&) {
      throw;
    } catch (const std::exception&) {
      throw std::invalid_argument("tunables: bad value for " + key + ": " +
                                  value);
    }
  }
  t.validate();
  return t;
}

Tunables Tunables::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("tunables: cannot open config file " + path);
  }
  return from_stream(in);
}

std::string Tunables::to_config_string() const {
  std::ostringstream os;
  os << "# MV2-GPU-NC tunables\n"
     << "eager_threshold = " << eager_threshold << "\n"
     << "chunk_bytes = " << chunk_bytes << "\n"
     << "pipeline_threshold = " << pipeline_threshold << "\n"
     << "vbuf_count = " << vbuf_count << "\n"
     << "recv_window = " << recv_window << "\n"
     << "gpu_offload = " << (gpu_offload ? "true" : "false") << "\n"
     << "chunk_select = "
     << (chunk_select == ChunkSelect::kModel ? "model" : "fixed") << "\n"
     << "pipelining = " << (pipelining ? "true" : "false") << "\n"
     << "sched_policy = " << sched_policy_name(sched_policy) << "\n"
     << "ranks_per_node = " << ranks_per_node << "\n"
     << "transport_select = "
     << (transport_select == TransportSelect::kAuto ? "auto" : "fabric")
     << "\n"
     << "route_select = " << netsim::route_select_name(route_select) << "\n"
     << "ecn_backlog_ns = " << ecn_backlog_ns << "\n"
     << "rndv_timeout_ns = " << rndv_timeout_ns << "\n"
     << "rndv_max_retries = " << rndv_max_retries << "\n"
     << "rndv_backoff_factor = " << rndv_backoff_factor << "\n"
     << "rank_skew_ns = " << rank_skew_ns << "\n"
     << "rank_stall_prob = " << rank_stall_prob << "\n"
     << "rank_stall_ns = " << rank_stall_ns << "\n"
     << "transport_failover_threshold = " << transport_failover_threshold
     << "\n"
     << "transport_restore_threshold = " << transport_restore_threshold
     << "\n"
     << "coll_watchdog_factor = " << coll_watchdog_factor << "\n"
     << "host_pack_bw = " << host_pack_bw << "\n"
     << "host_seg_overhead_ns = " << host_seg_overhead_ns << "\n";
  return os.str();
}

}  // namespace mv2gnc::core

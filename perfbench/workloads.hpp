// The benchmark's four closed-loop workloads (see README.md for why each
// exists). One call runs one repetition: build a Cluster, set up, warm
// up, run the timed phase, check every output, and audit the cluster.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;    // record spans and write a Chrome trace
  bool tiny = false;     // smoke-test sizes
  bool corrupt = false;  // flip one delivered byte: the checks must fail
  std::string trace_out;
};

/// Measurements of one repetition. Virtual-time fields repeat exactly for
/// one seed; host-time fields are what the simulator itself took.
struct Rep {
  std::uint64_t attempted = 0;  // timed ops
  std::uint64_t failed = 0;     // timed ops failed or wrong, plus audits
  std::vector<std::string> errors;
  std::uint64_t ops = 0;            // sample count of virt_us
  std::uint64_t payload_bytes = 0;  // delivered by the timed ops
  std::int64_t virt_ns = 0;         // timed-phase virtual time
  double sim_wall_s = 0.0;
  double setup_s = 0.0;
  std::vector<std::pair<std::string, double>> layers;  // per-layer metrics
};

/// Run one repetition of pingpong_small, pingpong_large, stencil_halo or
/// allreduce_device. Throws std::invalid_argument for any other name.
Rep run_workload(const Options& opt);

}  // namespace perfbench

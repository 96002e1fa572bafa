// perfbench_runner: one repetition of one benchmark workload, printed as a
// JSON object on the last line of stdout. run.py drives it.
//
//   perfbench_runner --workload NAME --seed N [--trace-out FILE] [--cpu C]
//                    [--tiny] [--corrupt]
//
// The process pins itself to one CPU before the Cluster spawns its rank
// threads: the ranks run one at a time anyway, and on one CPU the run
// token's hand-offs never migrate between cores (unpinned, the same run
// took either about 1x or 2x as long, depending on where the kernel put
// the rank threads). It then times the host-speed probe on that CPU.
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "probe.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Rep;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload NAME "
               "--seed N [--trace-out FILE] [--cpu C] [--tiny] [--corrupt]\n",
               why.c_str());
  std::exit(2);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Full precision, so repeated runs can be compared bit for bit.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  int cpu = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--trace-out") {
      opt.trace = true;
      opt.trace_out = value();
    } else if (a == "--cpu") {
      cpu = std::atoi(value().c_str());
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--corrupt") {
      opt.corrupt = true;
    } else {
      usage("unknown argument " + a);
    }
  }
  if (cpu < 0) cpu = sched_getcpu();
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    std::perror("sched_setaffinity");
    return 2;
  }

  const double probe_s = perfbench::host_speed_probe();
  Rep rep;
  try {
    rep = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }

  std::string errors = "[";
  for (std::size_t i = 0; i < rep.errors.size(); ++i) {
    if (i > 0) errors += ',';
    errors += json_string(rep.errors[i]);
  }
  errors += "]";
  std::string layers = "{";
  for (std::size_t i = 0; i < rep.layers.size(); ++i) {
    if (i > 0) layers += ',';
    layers += json_string(rep.layers[i].first);
    layers += ':';
    layers += num(rep.layers[i].second);
  }
  layers += "}";
  const double ops = static_cast<double>(rep.ops);
  const double virt = static_cast<double>(rep.virt_ns);
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"traced\":%d,\"cpu\":%d,\"nproc\":%ld,"
      "\"attempted\":%llu,\"failed\":%llu,\"errors\":%s,\"ops\":%llu,"
      "\"payload_bytes\":%llu,\"virt_ns\":%lld,\"virt_us\":%s,"
      "\"virt_gbps\":%s,\"sim_wall_s\":%s,\"setup_s\":%s,\"peak_rss_mb\":%s,"
      "\"probe_s\":%s,\"layers\":%s}\n",
      json_string(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0, cpu,
      sysconf(_SC_NPROCESSORS_ONLN),
      static_cast<unsigned long long>(rep.attempted),
      static_cast<unsigned long long>(rep.failed), errors.c_str(),
      static_cast<unsigned long long>(rep.ops),
      static_cast<unsigned long long>(rep.payload_bytes),
      static_cast<long long>(rep.virt_ns),
      num(ops > 0 ? virt / 1e3 / ops : 0.0).c_str(),
      num(virt > 0 ? static_cast<double>(rep.payload_bytes) / virt : 0.0).c_str(),
      num(rep.sim_wall_s).c_str(), num(rep.setup_s).c_str(),
      num(perfbench::peak_rss_mb()).c_str(), num(probe_s).c_str(),
      layers.c_str());
  return rep.failed == 0 && rep.errors.empty() ? 0 : 1;
}

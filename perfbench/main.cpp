// Entry point of the end-to-end benchmark: one workload per invocation.
//
//   perfbench --workload oneshot|socket|serve --seed N --seconds S --trace 0|1
//             [--small] [--out-dir DIR] [--git-sha SHA]
//
// Prints a header (host, nproc, build type, git sha, seed, grid and thread
// budget), sample counts, the exact-count guards and, as its last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the per-layer ones,
// and every span is written to DIR/trace-<workload>-<seed>.json.
#include <sched.h>
#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"
#include "util/parse.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metric;
using perfbench::Report;

int usage(const std::string& why) {
  std::cerr << "error: " << why
            << "\nusage: perfbench --workload oneshot|socket|serve --seed N --seconds S "
               "--trace 0|1 [--small] [--out-dir DIR] [--git-sha SHA]\n";
  return 2;
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
}

void print_result(const Report& report, const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (report.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    std::cout << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << perfbench::fmt(m.value)
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string git_sha = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--small") {
      options.small = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      const auto seed = hpcg::util::parse_uint64(value);
      if (!seed) return usage("--seed takes a non-negative integer");
      options.seed = *seed;
      have_seed = true;
    } else if (arg == "--seconds") {
      const auto seconds = hpcg::util::parse_double(value);
      if (!seconds || !(*seconds > 0)) return usage("--seconds takes a positive number");
      options.seconds = *seconds;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else {
      return usage("unknown argument " + arg);
    }
  }
  const std::map<std::string, Report (*)(const perfbench::Options&)> workloads = {
      {"oneshot", perfbench::run_oneshot},
      {"socket", perfbench::run_socket},
      {"serve", perfbench::run_serve},
  };
  const auto workload = workloads.find(options.workload);
  if (workload == workloads.end()) return usage("unknown --workload '" + options.workload + "'");
  if (!have_seed) return usage("--seed is required");

  char host[256] = "unknown";
  ::gethostname(host, sizeof host - 1);
  const int nproc = available_cpus();
  const int busy = perfbench::kRanks * perfbench::kThreadsPerRank;
  std::cout << "# perfbench workload=" << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds << " trace=" << options.trace
            << (options.small ? " small" : "") << "\n"
            << "# host=" << host << " nproc=" << nproc << " build=" << PERFBENCH_BUILD_TYPE
            << " git=" << git_sha << "\n"
            << "# grid=2x2 ranks=" << perfbench::kRanks
            << " threads_per_rank=" << perfbench::kThreadsPerRank << " busy=" << busy << "\n";
  if (busy > nproc) {
    std::cerr << "error: refusing to run: workload '" << options.workload << "' keeps " << busy
              << " threads busy (" << perfbench::kRanks << " ranks x "
              << perfbench::kThreadsPerRank << " kernel thread) but only " << nproc
              << " CPUs are available; oversubscribed timings are noise\n";
    return 3;
  }

  perfbench::Tracer::enable(options.trace);
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  Report report;
  try {
    report = workload->second(options);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  if (options.trace) {
    const auto spans = perfbench::Tracer::spans();
    const auto path = options.out_dir + "/trace-" + options.workload + "-" +
                      std::to_string(options.seed) + ".json";
    perfbench::write_chrome_trace(path, spans);
    std::cout << "# trace: " << spans.size() << " spans -> " << path << "\n";
    for (const auto& m : report.per_layer) {
      std::cout << "# layer " << m.name << " = " << perfbench::fmt(m.value) << " " << m.unit
                << "\n";
    }
  }
  for (const auto& note : report.notes) std::cout << "# " << note << "\n";
  for (const auto& [name, value] : report.guards) std::cout << "guard " << name << "=" << value << "\n";
  print_result(report, options.trace ? report.per_layer : report.end_to_end);
  return 0;
}

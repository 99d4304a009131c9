// nwsbench: runs one benchmark workload and prints its result.
//
//   nwsbench --workload <ingest|ingest_repl|fleet_query|paper_fleet>
//            --seed <n> --seconds <s> --trace <0|1> [--calibrate 1]
//
// --calibrate 1 (fleet_query only) measures the stack's closed-loop
// capacity instead, the figure kFleetQueryRate is chosen from.
//
// Human-readable lines (host shape, per-operation summaries, METRICS
// deltas, the ledger) come first; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ledger.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.hpp"

#ifndef NWSBENCH_BUILD_TYPE
#define NWSBENCH_BUILD_TYPE "unknown"
#endif
#ifndef NWSBENCH_GIT_SHA
#define NWSBENCH_GIT_SHA "unknown"
#endif

namespace {

using perfbench::Options;
using perfbench::RunResult;

void print_host(const Options& opt) {
  const char* backend = std::getenv("NWSCPU_NET_BACKEND");
  std::printf("host: nproc=%u net_backend=%s build=%s compiler=\"%s\" "
              "git=%s\n",
              std::thread::hardware_concurrency(),
              backend != nullptr ? backend : "epoll(default)",
              NWSBENCH_BUILD_TYPE, __VERSION__, NWSBENCH_GIT_SHA);
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
}

/// Aggregate CPU time of this machine from /proc/stat: {steal, total}
/// in clock ticks.  Steal is time the hypervisor gave the vCPUs to others.
std::pair<double, double> cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string label;
  f >> label;
  double total = 0.0;
  double steal = 0.0;
  double v = 0.0;
  for (int i = 0; i < 8 && f >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

double finite(double v) { return std::isfinite(v) ? v : 1e300; }

void print_result(const RunResult& r) {
  for (const std::string& line : r.notes) std::printf("%s\n", line.c_str());
  for (const auto& m : r.metrics) {
    std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), finite(m.value),
                m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: nwsbench --workload <ingest|ingest_repl|fleet_query|"
               "paper_fleet> --seed <n> --seconds <s> --trace <0|1> "
               "[--calibrate 1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(val);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--calibrate") {
      opt.calibrate = std::strcmp(val, "0") != 0;
    } else {
      return usage();
    }
  }
  RunResult (*run)(const Options&) = nullptr;
  if (opt.workload == "ingest") {
    run = [](const Options& o) { return perfbench::run_ingest(o, false); };
  } else if (opt.workload == "ingest_repl") {
    run = [](const Options& o) { return perfbench::run_ingest(o, true); };
  } else if (opt.workload == "fleet_query") {
    run = perfbench::run_fleet_query;
  } else if (opt.workload == "paper_fleet") {
    run = perfbench::run_paper_fleet;
  }
  if (run == nullptr || opt.seconds <= 0.0) return usage();

  std::filesystem::create_directories(opt.scratch);
  print_host(opt);
  const auto [steal0, total0] = cpu_ticks();
  RunResult result = run(opt);
  if (opt.trace) result = perfbench::run_ledger(opt, result);
  const auto [steal1, total1] = cpu_ticks();
  // Host interference: the share of this machine's CPU time the
  // hypervisor stole during the run.  Every metric moves with it.
  std::printf("steal: %.2f%% of CPU time during the run\n",
              total1 > total0 ? 100.0 * (steal1 - steal0) / (total1 - total0)
                              : 0.0);
  print_result(result);
  return 0;
}

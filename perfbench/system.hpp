// Helpers shared by the workload and ledger code: process figures,
// METRICS reads, scratch directories and result formatting.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Resident set size of this process (KiB).
[[nodiscard]] double rss_kib();
/// User + system CPU time of this process (s).
[[nodiscard]] double cpu_seconds();
/// The server's registry through the METRICS verb (empty on failure).
[[nodiscard]] std::map<std::string, double> fetch_metrics(std::uint16_t port);
[[nodiscard]] double median(std::vector<double> v);

/// A fresh directory under the run's scratch area, removed on scope exit.
class ScratchDir {
 public:
  ScratchDir(const Options& opt, const std::string& name);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }

 private:
  std::filesystem::path path_;
};

/// Prints "<label>: n= failed= p50= p<tail>=" and stores the figures in
/// r.info under "<label>.p50_us" / "<label>.tail_us".
void summarize(RunResult& r, const std::string& label, const OpLog& log);
/// Per-sub-run figures of a workload.  The reported metric is the median
/// over sub-runs, so one sub-run disturbed by the host cannot move it.
struct SubRunStats {
  std::vector<double> rate;  ///< samples per second
  std::vector<double> p50;   ///< op latency p50 (us)
  std::vector<double> tail;  ///< op latency at the workload's tail (us)

  /// One sub-run: its sample rate and its operations' latencies, with the
  /// tail taken at `tail_pct` (a fraction).
  void add(double rate_per_s, const OpLog& ops, double tail_pct);
  /// samples_per_s, op_p50_us and op_tail_us, plus a note of the ranges.
  void report(RunResult& r) const;
};
/// Adds after - before to r.counters.
void add_counters(RunResult& r, const std::map<std::string, double>& after,
                  const std::map<std::string, double>& before);
/// Prints the nonzero counter deltas of r.counters.
void print_counters(RunResult& r);

}  // namespace perfbench

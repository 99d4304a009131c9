// The four benchmark workloads and the traced per-layer ledger.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Journals and the span dump go here (inside the checkout).
  std::string scratch = ".perfbench_tmp";
  /// fleet_query: measure the closed-loop capacity instead of the workload.
  bool calibrate = false;
};

/// fleet_query's offered load (requests/s): about half the closed-loop
/// capacity of its stack, ~50k req/s over four connections on a 4-core
/// x86-64 host (measure with `--calibrate 1`).
inline constexpr double kFleetQueryRate = 25000.0;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run measured.  `metrics` holds the reported metrics, `info`
/// the figures the ledger needs (units, CPU and wall seconds, generator
/// lag), `counters` the METRICS deltas, and `notes` the human-readable
/// lines printed before the result.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::map<std::string, double> info;
  std::map<std::string, double> counters;  ///< METRICS deltas of the run
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed correctness check (the run reports correct=false).
  void check(bool ok, const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
};

RunResult run_ingest(const Options& opt, bool replicated);
RunResult run_fleet_query(const Options& opt);
RunResult run_paper_fleet(const Options& opt);

/// The traced run: replays the workload's generated inputs through each
/// layer's public functions under in-memory spans and derives the
/// per-layer metrics, using `live` (the untraced run of the same seed)
/// for counter deltas and the untraced per-unit cost.
RunResult run_ledger(const Options& opt, const RunResult& live);

}  // namespace perfbench

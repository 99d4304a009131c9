// Tests of the benchmark's own machinery: the percentile rule, open-loop
// timing and lateness, seed determinism of the request bytes, failure
// accounting, span self time and METRICS parsing.
//
// Run: python3 perfbench/run.py --selftest   (or ctest in the build tree)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

using namespace perfbench;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void percentile_rule() {
  // 1000 samples: p99.9 leaves 1 beyond, p99 leaves exactly 10.
  Tail t = tail_rule(ramp(1000));
  EXPECT(t.pct == 99.0 && t.value == 990.0 && t.beyond == 10 && t.n == 1000);
  // 100 samples: the first percentile with ten beyond is p90.
  t = tail_rule(ramp(100));
  EXPECT(t.pct == 90.0 && t.value == 90.0 && t.beyond == 10);
  // 5000 samples: p99.9 has 5 beyond, p99 has 50.
  t = tail_rule(ramp(5000));
  EXPECT(t.pct == 99.0 && t.beyond == 50);
  // Too few samples for any tail: the median, flagged by beyond < 10.
  t = tail_rule(ramp(10));
  EXPECT(t.pct == 50.0 && t.value == 5.0 && t.beyond < 10 && t.n == 10);
  EXPECT(percentile(ramp(4), 0.5) == 2.0);
  EXPECT(percentile({}, 0.5) == 0.0);
}

void open_loop_timing() {
  const OpenLoop sched(1000.0, 1'000'000);  // one request per ms
  EXPECT(sched.due(0) == 1'000'000);
  EXPECT(sched.due(3) == 4'000'000);
  OpenLoopAccount acct;
  // Request 0 leaves on time and is answered 0.5 ms later.
  acct.on_send(0, sched.due(0), sched.due(0));
  EXPECT(acct.on_reply("OK", sched.due(0) + 500'000));
  // The generator stalls: request 1 (due at 2 ms) leaves at 6 ms and is
  // answered at 6.1 ms.  Its latency counts from the due time.
  acct.on_send(1, sched.due(1), 6'000'000);
  EXPECT(acct.on_reply("OK 0.5 0.1 0.01 9 90 median", 6'100'000));
  EXPECT(acct.ops[0].attempted() == 1 && acct.ops[1].attempted() == 1);
  EXPECT(acct.ops[0].sorted()[0] == 500.0);
  EXPECT(acct.ops[1].sorted()[0] == 4100.0);
  EXPECT(acct.lateness_us.size() == 2 && acct.lateness_us[0] == 0.0 &&
         acct.lateness_us[1] == 4000.0);
}

void seed_determinism() {
  std::string a;
  std::string b;
  std::string c;
  append_ingest_frame(a, 7, 3, 11, 64);
  append_ingest_frame(b, 7, 3, 11, 64);
  append_ingest_frame(c, 8, 3, 11, 64);
  EXPECT(!a.empty() && a == b && a != c);
  // 4 header + 1 op + 2 + 12 name + 8 seq + 4 count + 64 * 16.
  EXPECT(a.size() == 4 + 1 + 2 + 12 + 8 + 4 + 64 * 16);

  const Zipf zipf(4096, 1.1);
  std::string x;
  std::string y;
  std::string z;
  for (std::uint64_t j = 0; j < 200; ++j) {
    append_fleet_line(x, 7, fleet_request(7, 1, 2, j, 4096, zipf, 4));
    append_fleet_line(y, 7, fleet_request(7, 1, 2, j, 4096, zipf, 4));
    append_fleet_line(z, 8, fleet_request(8, 1, 2, j, 4096, zipf, 4));
  }
  EXPECT(x == y && x != z);
  // PUTs stay on the owning connection's hosts; the Zipf draw is skewed.
  std::size_t hot = 0;
  for (std::uint64_t j = 0; j < 2000; ++j) {
    const FleetRequest r = fleet_request(7, 1, 2, j, 4096, zipf, 4);
    if (r.put) EXPECT(r.host % 2 == 1 && r.sample >= 4);
    if (!r.put && r.host < 41) ++hot;
  }
  EXPECT(hot > 300);  // 1% of the hosts draw well over a third of reads
  // Samples: strictly increasing times, values in [0, 1].
  for (std::uint64_t i = 0; i < 100; ++i) {
    const auto m0 = sample_at(7, 5, i);
    const auto m1 = sample_at(7, 5, i + 1);
    EXPECT(m1.time > m0.time && m0.value >= 0.0 && m0.value <= 1.0);
  }
}

void failure_accounting() {
  OpenLoopAccount acct;
  acct.on_send(0, 0, 0);
  acct.on_send(0, 1000, 1000);
  acct.on_send(1, 2000, 2000);
  acct.on_send(1, 3000, 3000);
  EXPECT(acct.on_reply("OK", 10'000));
  EXPECT(acct.on_reply("ERR busy retry_after_ms=100", 11'000));
  EXPECT(acct.on_reply("ERR unknown series", 12'000));
  // The fourth reply never arrives (timeout): finish() counts it missing.
  EXPECT(acct.outstanding() == 1);
  acct.finish();
  EXPECT(acct.outstanding() == 0);
  EXPECT(acct.ops[0].attempted() == 2 && acct.ops[0].failed() == 1);
  EXPECT(acct.ops[1].attempted() == 2 && acct.ops[1].failed() == 2);
  // Failed operations miss every latency limit.
  EXPECT(std::isinf(acct.ops[0].sorted().back()));
  EXPECT(std::isinf(percentile(acct.ops[1].sorted(), 0.5)));
  // A reply with nothing outstanding is a broken stream.
  EXPECT(!acct.on_reply("OK", 13'000));
  EXPECT(reply_ok("OK") && reply_ok("OK 64 0 0") && !reply_ok("OKAY") &&
         !reply_ok("ERR x") && !reply_ok(""));
}

void spans_and_metrics() {
  SpanRecorder rec;
  const int root = rec.begin("root");
  const int child = rec.begin("child", root);
  rec.end(child, 5);
  rec.end(root);
  EXPECT(rec.self_ns(root) == rec.duration_ns(root) - rec.duration_ns(child));
  EXPECT(rec.spans()[1].parent == root && rec.spans()[1].items == 5);
  EXPECT(rec.dump().find(" child\n") != std::string::npos);

  const auto before = parse_exposition(
      "# HELP a_total x\n# TYPE a_total counter\na_total 5\n"
      "b_total{dispatcher=\"0\"} 1\nb_total{dispatcher=\"1\"} 2\n");
  const auto after = parse_exposition(
      "a_total 9\nb_total{dispatcher=\"0\"} 4\nb_total{dispatcher=\"1\"} 2\n"
      "# exemplar trace=00ff\nb_total_extra 7\n");
  const auto d = exposition_delta(after, before);
  EXPECT(d.at("a_total") == 4.0);
  EXPECT(metric_sum(d, "b_total") == 3.0);
  EXPECT(metric_sum(after, "b_total") == 6.0);  // b_total_extra excluded
}

}  // namespace

int main() {
  percentile_rule();
  open_loop_timing();
  seed_determinism();
  failure_accounting();
  spans_and_metrics();
  if (failures == 0) std::printf("harness_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

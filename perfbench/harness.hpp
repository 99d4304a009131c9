// Benchmark machinery shared by the workload runner and its tests:
// deterministic inputs derived from the seed, the latency percentile rule,
// open-loop scheduling with lateness accounting, failure accounting, an
// in-memory span recorder, and METRICS exposition parsing.
//
// Nothing here touches a socket, and the accounting takes its times as
// arguments, so every rule is testable in isolation (harness_test.cpp).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "nws/memory.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Deterministic inputs.  Every generated value is a pure function of the
// seed and its coordinates, so a reference can regenerate any sample
// without the generator's state.

/// splitmix64 finaliser.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept;
/// Uniform double in [0, 1) from the top 53 bits of a hash.
[[nodiscard]] double unit(std::uint64_t h) noexcept;

/// Sample i of series `series`: a 10 s sensor period and an availability
/// in [0, 1] with a full 53-bit mantissa (a slow swing plus noise).
[[nodiscard]] nws::Measurement sample_at(std::uint64_t seed,
                                         std::uint64_t series,
                                         std::uint64_t i) noexcept;

[[nodiscard]] std::string sensor_series_name(std::size_t s);  // ingest
[[nodiscard]] std::string host_series_name(std::size_t h);    // fleet_query

/// Zipf(s) over ranks 0..n-1, drawn by inverse CDF from a hash.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  [[nodiscard]] std::size_t draw(std::uint64_t h) const;

 private:
  std::vector<double> cdf_;
};

/// Binary PUTB frame carrying batch k (samples k*n .. k*n+n-1, sequence
/// numbers starting at 1) of sensor series s.
void append_ingest_frame(std::string& out, std::uint64_t seed, std::size_t s,
                         std::uint64_t k, std::size_t batch);

/// One fleet_query request: connection `conn` of `conns` issues request j.
/// Even j are PUTs cycling over the hosts the connection owns (host %
/// conns == conn, so each host's writes stay ordered on one connection);
/// odd j are FORECASTs of a Zipf-drawn host.  `first_sample` offsets the
/// PUT sample index past the priming samples.
struct FleetRequest {
  bool put = false;
  std::size_t host = 0;
  std::uint64_t sample = 0;  ///< sample index (PUT only)
};
[[nodiscard]] FleetRequest fleet_request(std::uint64_t seed, std::size_t conn,
                                         std::size_t conns, std::uint64_t j,
                                         std::size_t hosts, const Zipf& zipf,
                                         std::uint64_t first_sample);
/// Text wire line for `r` (with the trailing newline).
void append_fleet_line(std::string& out, std::uint64_t seed,
                       const FleetRequest& r);

// ---------------------------------------------------------------------------
// Latency accounting.

/// Nearest-rank percentile of sorted values, p in (0, 1].
[[nodiscard]] double percentile(const std::vector<double>& sorted, double p);

/// The tail percentile rule: the highest of {99.9, 99, 98, 95, 90, 80, 75,
/// 50} with at least ten samples beyond its nearest rank.  With fewer
/// than twenty samples the median is reported (beyond < 10 says so).
struct Tail {
  double pct = 50.0;      ///< percentile chosen
  double value = 0.0;     ///< its value
  std::size_t beyond = 0;  ///< samples above the chosen rank
  std::size_t n = 0;       ///< sample count
};
[[nodiscard]] Tail tail_rule(const std::vector<double>& sorted);

/// Outcomes of one operation type.  A failed operation (ERR reply,
/// timeout, missing reply) is counted and recorded with infinite latency,
/// so it misses every latency limit and drags the percentiles with it.
class OpLog {
 public:
  void ok(double us) { lat_.push_back(us); }
  void fail();
  void merge(const OpLog& other);
  [[nodiscard]] std::size_t attempted() const noexcept { return lat_.size(); }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }
  /// Latencies sorted ascending (failures last, as +inf).
  [[nodiscard]] std::vector<double> sorted() const;

 private:
  std::vector<double> lat_;
  std::size_t failed_ = 0;
};

/// True for a reply the protocol counts as success ("OK" or "OK ...").
[[nodiscard]] bool reply_ok(std::string_view reply) noexcept;

/// Fixed-rate open-loop schedule: request i is due at start + i / rate.
class OpenLoop {
 public:
  OpenLoop(double rate_per_s, std::int64_t start_ns)
      : period_ns_(1e9 / rate_per_s), start_ns_(start_ns) {}
  [[nodiscard]] std::int64_t due(std::uint64_t i) const noexcept {
    return start_ns_ +
           static_cast<std::int64_t>(static_cast<double>(i) * period_ns_);
  }

 private:
  double period_ns_;
  std::int64_t start_ns_;
};

/// Bookkeeping of one pipelined open-loop connection.  Replies arrive in
/// request order, so a FIFO of due times pairs them.  Latency is timed
/// from the scheduled (due) send time, never from the actual send, so a
/// stall charges every request it delayed; how late each send left is
/// recorded separately as the generator's lateness.
class OpenLoopAccount {
 public:
  /// Request of kind `kind` (0 or 1) due at `due_ns` left at `sent_ns`.
  void on_send(int kind, std::int64_t due_ns, std::int64_t sent_ns);
  /// The oldest outstanding request got `reply` at `now_ns`.  False when
  /// no request was outstanding (a stray reply: the stream is broken).
  bool on_reply(std::string_view reply, std::int64_t now_ns);
  /// Every request still outstanding counts as failed (missing reply).
  void finish();
  [[nodiscard]] std::size_t outstanding() const noexcept {
    return inflight_.size();
  }

  OpLog ops[2];            ///< per kind: latency from due time
  std::vector<double> lateness_us;  ///< sent - due, per request

 private:
  struct Entry {
    int kind;
    std::int64_t due;
  };
  std::deque<Entry> inflight_;
};

// ---------------------------------------------------------------------------
// Span recorder: spans live in memory and are written out at the end.

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;
    std::uint64_t items = 0;  ///< work units the span covered
  };
  /// Opens a span; returns its id.
  int begin(std::string name, int parent = -1);
  void end(int id, std::uint64_t items = 0);
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Duration minus the part of the interval its children cover.
  [[nodiscard]] std::int64_t self_ns(int id) const;
  [[nodiscard]] std::int64_t duration_ns(int id) const {
    return spans_[static_cast<std::size_t>(id)].end -
           spans_[static_cast<std::size_t>(id)].start;
  }
  /// "id parent start_ns end_ns self_ns items name" per line.
  [[nodiscard]] std::string dump() const;

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// METRICS exposition.

/// Sample lines of a Prometheus text body: "name{labels}" -> value.
/// Comment lines are skipped.
[[nodiscard]] std::map<std::string, double> parse_exposition(
    std::string_view body);
/// after - before for every series present after.
[[nodiscard]] std::map<std::string, double> exposition_delta(
    const std::map<std::string, double>& after,
    const std::map<std::string, double>& before);
/// Sum over every label variant of one metric name.
[[nodiscard]] double metric_sum(const std::map<std::string, double>& m,
                                std::string_view name);

}  // namespace perfbench
